"""Executable verification checks: level tables, spectrum witnesses, the
classification sweep for non-regular non-central elements, multiplicity
bounds, and natural-module regularity.

Every check is a pure function of its inputs, and emits a
VerificationReport whose JSON form is byte-stable; only ``natural`` reads
the seed, which ``c99`` and ``bounds`` just echo in the check id.  The
sweeps provide characteristic-0 evidence from generic stratum elements with
torsion decorations of order <= 4; they are not exhaustive over the full
torus.
The ``c99`` and ``bounds`` checks are two readings of one sweep, and the
second of them on the same input reads the sweep the first one built (see
`classification_sweep`).
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from operator import add
from types import MappingProxyType

from . import CHECK_IDS, tables
from .exceptions import ResourceLimitError
from .mult import (
    check_dim_ceiling,
    freudenthal_multiplicities,
    validity_note,
    weyl_dimension_of,
    weyl_quotient,
)
from .rootdata import Record, RootDatum, Weight, build_root_datum
from .spectra import (
    SpectrumKind,
    almost_simple_class,
    classify,
    is_almost_simple,
    spectrum_of_multiset,
)
from .torus import (
    EpsilonToken,
    MAX_TORSION_ORDER,
    StratumSpec,
    TorusElement,
    ValueGroupElement,
    canonical_root_strata,
    check_stratum_depth,
    evaluate,
    generic_regular_element,
    generic_stratum_element,
    is_central,
    is_regular,
    stratum_torsion_decorations,
    torus_from_epsilon,
    torus_from_epsilon_text,
)
from .weights import DOMINANT_ENUMERATION_BOUND, is_radical, level_sets

SWEEP_SCOPE_NOTE = (
    "evidence at characteristic 0 from generic stratum elements with torsion "
    f"decorations of order <= {MAX_TORSION_ORDER}; not exhaustive over the full torus"
)
# Coordinate-sum bound of the weights a level table is checked over.
LEVEL_TABLE_BOUND = 6


class VerificationReport(Record):
    """Mutable and unhashable; cases=None gives a new empty list."""

    __slots__ = _fields = ("check_id", "status", "cases", "elapsed", "notes")

    def __init__(self, check_id: str, status: str, cases: list = None, elapsed: float = 0.0,
                 notes: tuple = ()):
        self.check_id = check_id
        self.status = status  # Pass | Fail
        self.cases = [] if cases is None else cases
        self.elapsed = elapsed
        self.notes = notes

    def to_json(self):
        return {
            "check_id": self.check_id,
            "status": self.status,
            "notes": list(self.notes),
            "elapsed_seconds": round(self.elapsed, 6),
            "cases": self.cases,
        }


class _Recorder:
    def __init__(self, check_id, notes=()):
        self.check_id = check_id
        self.notes = tuple(notes)
        self.cases = []
        self.start = time.perf_counter()

    def case(self, label, expected, actual):
        self.check(label, expected == actual, expected, actual)

    def check(self, label, condition, expected="True", actual=None):
        self.cases.append(
            {
                "label": label,
                "expected": str(expected),
                "actual": str(actual if actual is not None else bool(condition)),
                "ok": bool(condition),
            }
        )

    def report(self):
        return VerificationReport(
            check_id=self.check_id,
            status="Pass" if all(c["ok"] for c in self.cases) else "Fail",
            cases=self.cases,
            elapsed=time.perf_counter() - self.start,
            notes=self.notes,
        )


def _fmt_coords(datum, coords_set):
    return "{" + ", ".join(sorted(str(Weight(c, datum)) for c in coords_set)) + "}"


# -- level tables ---------------------------------------------------------------


def verify_level_table(family: str, rank: int) -> VerificationReport:
    """Compare computed level-1/level-2 sets (and the radical part of level 3
    where a reference is available) against the reference table.  The family
    is case-insensitive, as in ``build_root_datum``.  A family without a
    reference table (E, F, G) raises ValueError, and an unsupported rank
    UnsupportedRootSystemError, before any work."""
    datum = build_root_datum(family, rank)
    ref = tables.level_reference(datum.family, rank)
    if ref is None:
        raise ValueError(f"level tables are defined for families A-D, not {datum.name}")
    rec = _Recorder(f"level-table:{datum.name}")
    computed = {1: set(), 2: set(), 3: set()}  # level 3: its radical weights only
    for a in level_sets(datum, 3, LEVEL_TABLE_BOUND):
        if a.level < 3 or is_radical(a.weight):
            computed[a.level].add(a.weight.coords)
    for level, key, label in ((1, "L1", "level-1"), (2, "L2", "level-2"),
                              (3, "L3_radical", "level-3-radical")):
        if ref[key] is not None:
            rec.case(f"{datum.name}:{label}", _fmt_coords(datum, ref[key]),
                     _fmt_coords(datum, computed[level]))
    return rec.report()


# -- witness elements -----------------------------------------------------------


def _symval(s: TorusElement, torsion=0, **powers) -> ValueGroupElement:
    """Value-group element for a symbolic monomial in the element's named
    generators, e.g. _symval(s, a=2) for a^2 or _symval(s, torsion='1/2')."""
    free = [0] * s.free_rank
    for name, exp in powers.items():
        i = s.gen_names.index(name)
        free[i] = exp * s.gen_denoms[i]
    return ValueGroupElement(Fraction(torsion) % 1, tuple(free))


def _spectrum_case(rec, s, lam, expected, expected_kind, label):
    sp = spectrum_of_multiset(s, freudenthal_multiplicities(lam))
    rec.case(
        f"{label}:spectrum",
        sorted((v.sort_key(), m) for v, m in expected.items()),
        sorted((v.sort_key(), m) for v, m in sp.entries),
    )
    rec.case(f"{label}:class", expected_kind.value, classify(sp).kind.value)


def _witness(rec, datum, text, name, central_claim=True):
    """The element of epsilon text, recorded as non-regular and, unless
    central_claim is False, as non-central."""
    s = torus_from_epsilon_text(datum, text)
    rec.check(f"{name} non-regular", not is_regular(s))
    if central_claim:
        rec.check(f"{name} non-central", not is_central(s))
    return s


def _natural_spectrum(rec, s, name):
    """Record s as regular and return its spectrum on L(omega1)."""
    rec.check(f"{name} regular", is_regular(s))
    return spectrum_of_multiset(s, freudenthal_multiplicities(s.datum.fundamental_weight(1)))


def verify_witness_elements() -> VerificationReport:
    """Recompute the explicit witness elements' spectra, regularity and
    centrality on their stated modules."""
    rec = _Recorder("witnesses")

    a3 = build_root_datum("A", 3)
    s = _witness(rec, a3, "a,a,1/a,1/a", "A3 diag(a,a,1/a,1/a)")
    _spectrum_case(
        rec, s, a3.fundamental_weight(2),
        {_symval(s, a=2): 1, _symval(s): 4, _symval(s, a=-2): 1},
        SpectrumKind.ALMOST_SIMPLE, "A3 diag(a,a,1/a,1/a) on w2",
    )
    rec.case("A3 diag(a,a,1/a,1/a): w2 value", _symval(s, a=2).sort_key(),
             evaluate(s, a3.fundamental_weight(2)).sort_key())

    s = torus_from_epsilon_text(a3, "a,a,-1/a,-1/a")
    rec.case(
        "A3 diag(a,a,-1/a,-1/a) assignments",
        [(Fraction(0), (1,)), (Fraction(0), (2,)), (Fraction(1, 2), (1,))],
        [(v.torsion, v.free) for v in s.assignments],
    )
    _spectrum_case(
        rec, s, a3.fundamental_weight(2),
        {_symval(s, a=2): 1, _symval(s, torsion="1/2"): 4, _symval(s, a=-2): 1},
        SpectrumKind.ALMOST_SIMPLE, "A3 diag(a,a,-1/a,-1/a) on w2",
    )

    c2 = build_root_datum("C", 2)
    s = _witness(rec, c2, "a,a", "C2 eps(a,a)")
    _spectrum_case(
        rec, s, c2.fundamental_weight(2),
        {_symval(s, a=2): 1, _symval(s): 3, _symval(s, a=-2): 1},
        SpectrumKind.ALMOST_SIMPLE, "C2 eps(a,a) on w2",
    )

    s = _witness(rec, c2, "1,-1", "C2 eps(1,-1)")
    _spectrum_case(
        rec, s, c2.fundamental_weight(2),
        {_symval(s, torsion="1/2"): 4, _symval(s): 1},
        SpectrumKind.ALMOST_SIMPLE, "C2 eps(1,-1) on w2",
    )

    s = _witness(rec, c2, "1,a", "C2 eps(1,a)", central_claim=False)
    _spectrum_case(
        rec, s, c2.fundamental_weight(1),
        {_symval(s): 2, _symval(s, a=1): 1, _symval(s, a=-1): 1},
        SpectrumKind.ALMOST_SIMPLE, "C2 eps(1,a) on w1",
    )
    s = _witness(rec, c2, "-1,a", "C2 eps(-1,a)", central_claim=False)
    _spectrum_case(
        rec, s, c2.fundamental_weight(1),
        {_symval(s, torsion="1/2"): 2, _symval(s, a=1): 1, _symval(s, a=-1): 1},
        SpectrumKind.ALMOST_SIMPLE, "C2 eps(-1,a) on w1",
    )

    a2 = build_root_datum("A", 2)
    s = _witness(rec, a2, "a,a,1/a^2", "A2 diag(a,a,1/a^2)")
    _spectrum_case(
        rec, s, a2.weight((1, 1)),
        {_symval(s): 4, _symval(s, a=3): 2, _symval(s, a=-3): 2},
        SpectrumKind.NOT_ALMOST_SIMPLE, "A2 diag(a,a,1/a^2) on adjoint",
    )

    d4 = build_root_datum("D", 4)
    s = _witness(rec, d4, "a,a,a,a", "D4 eps(a,a,a,a)")
    _spectrum_case(
        rec, s, d4.fundamental_weight(4),
        {_symval(s, a=2): 1, _symval(s): 6, _symval(s, a=-2): 1},
        SpectrumKind.ALMOST_SIMPLE, "D4 eps(a,a,a,a) on w4",
    )
    _spectrum_case(
        rec, s, d4.fundamental_weight(1),
        {_symval(s, a=1): 4, _symval(s, a=-1): 4},
        SpectrumKind.NOT_ALMOST_SIMPLE, "D4 eps(a,a,a,a) on w1",
    )

    sp = _natural_spectrum(rec, torus_from_epsilon_text(build_root_datum("C", 3), "a,b,c"),
                           "C3 eps(a,b,c)")
    rec.case("C3 eps(a,b,c) simple on w1", SpectrumKind.SIMPLE.value, classify(sp).kind.value)

    sp = _natural_spectrum(rec, generic_regular_element(a3), "A3 generic")
    rec.case("A3 generic simple on w1", SpectrumKind.SIMPLE.value, classify(sp).kind.value)

    s = torus_from_epsilon_text(build_root_datum("B", 3), "-1,a,b")
    sp = _natural_spectrum(rec, s, "B3 eps(-1,a,b)")
    rec.case("B3 eps(-1,a,b) w1 multiplicity of -1", 2, sp.multiplicity(_symval(s, torsion="1/2")))
    rec.case("B3 eps(-1,a,b) almost simple on w1", True, is_almost_simple(sp))

    s = torus_from_epsilon_text(d4, "1,-1,a,b")
    sp = _natural_spectrum(rec, s, "D4 eps(1,-1,a,b)")
    rec.case("D4 eps(1,-1,a,b) mult of 1", 2, sp.multiplicity(_symval(s)))
    rec.case("D4 eps(1,-1,a,b) mult of -1", 2, sp.multiplicity(_symval(s, torsion="1/2")))
    rec.case(
        "D4 eps(1,-1,a,b) not almost simple on w1 (stated exception)",
        SpectrumKind.NOT_ALMOST_SIMPLE.value,
        classify(sp).kind.value,
    )

    return rec.report()


# -- classification sweep --------------------------------------------------------


def _coordinate_caps(datum: RootDatum, dim_bound: int):
    """Per i, the largest c with dim L(c omega_i) <= dim_bound (0 if none).

    The Weyl dimension grows strictly in each coordinate, so every dominant
    weight of dimension <= dim_bound has coordinates within these caps.
    Each cap is found by doubling and then bisection.
    """
    n = datum.rank
    caps = []
    for i in range(n):
        def fits(c):
            return weyl_dimension_of(datum, [c * (j == i) for j in range(n)]) <= dim_bound

        lo, hi = 0, 1  # fits(lo) and not fits(hi) once the doubling stops
        while fits(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        caps.append(lo)
    return tuple(caps)


def enumerate_modules(datum: RootDatum, dim_bound: int, *, with_dimensions=False):
    """Nonzero dominant weights with Weyl dimension within the bound, sorted by
    (dimension, coordinates); with ``with_dimensions``, (dimension, Weight)
    pairs in that order, each dimension the one its last prefix check
    computed.  A negative bound raises ValueError.  A candidate box
    prod (m_i + 1) of ``_coordinate_caps`` larger than
    DOMINANT_ENUMERATION_BOUND, or a bound above DEFAULT_DIM_BOUND (the
    largest module the Freudenthal recursion is run for), raises
    ResourceLimitError before any module is listed."""
    if dim_bound < 0:
        raise ValueError(f"dimension bound must be >= 0, got {dim_bound}")
    caps = _coordinate_caps(datum, dim_bound)
    box = math.prod(m + 1 for m in caps)
    if box > DOMINANT_ENUMERATION_BOUND:
        raise ResourceLimitError(
            f"{datum.name} has {box} candidate dominant weights for dimension <= "
            f"{dim_bound} (coordinate caps {list(caps)}), exceeding the enumeration "
            f"bound {DOMINANT_ENUMERATION_BOUND}"
        )
    check_dim_ceiling(dim_bound)
    n = datum.rank
    columns = tuple(zip(*datum.coroot_pairings))  # columns[i][k] = <omega_i, b_k^vee>
    out = []  # (dimension, coordinates); the last prefix check gives the dimension
    coords = [0] * n

    def rec(i, factors):
        # coords[i:] are 0 on entry; factors stay <coords + rho, b^vee>.
        column = columns[i]
        while True:
            dim = weyl_quotient(datum, coords, math.prod(factors))
            if dim > dim_bound:
                break
            if i + 1 < n:
                rec(i + 1, factors)
            elif any(coords):
                out.append((dim, tuple(coords)))
            coords[i] += 1
            factors = list(map(add, factors, column))
        coords[i] = 0

    rec(0, [sum(pv) for pv in datum.coroot_pairings])
    out.sort()
    if with_dimensions:
        return [(dim, Weight(c, datum)) for dim, c in out]
    return [Weight(c, datum) for _, c in out]


def sweep_elements(datum: RootDatum, depth: int):
    """Deduplicated generic elements of the canonical root-kernel strata up
    to the given depth, with every torsion decoration of order <=
    MAX_TORSION_ORDER.  Each is non-regular, since its kernel holds a root,
    and non-central: the characters trivial on it have the kernel's rank,
    below n (a full-rank kernel has no stratum), so they cannot hold the
    root lattice.  No element reads a seed: every torsion slot is decorated."""
    elements = {}  # assignments -> the first element with them
    for kernel in canonical_root_strata(datum, depth):
        for decoration in stratum_torsion_decorations(StratumSpec(datum, kernel)):
            s = generic_stratum_element(StratumSpec(datum, kernel, decoration))
            elements.setdefault(s.assignments, s)
    return list(elements.values())


@lru_cache(maxsize=1)
def classification_sweep(datum: RootDatum, dim_bound: int, depth: int):
    """Classify every sweep element on every module within the dimension
    bound.  Returns (modules, elements, outcomes): modules maps each module,
    in (dimension, coordinates) order, to its dimension; elements is the
    tuple of ``sweep_elements``; outcomes maps each module with an
    almost-simple (or simple) outcome to the tuple of (element,
    SpectrumClass) pairs that witness it.  The bound is at most
    DEFAULT_DIM_BOUND (``enumerate_modules``), so every module's
    multiplicities are computed.

    One slot, process-wide, keyed by the arguments as passed (a keyword
    argument makes another key than the same value passed by position).
    ``c99`` and ``bounds`` on the same group, bound and depth (any seeds)
    ask with the same arguments, so the second one reads the sweep the first
    one built; any other arguments replace it, so the memory held is bounded
    by one sweep's modules, elements and outcomes (the multisets are not
    kept).  A slot per input
    would keep one sweep per group alive, and a caller who asks for the same
    few groups over and over (a benchmark reusing its inputs) would then time
    memo reads instead of sweeps, as for `kernels.module_walk`.  A rejected
    input raises on every call and leaves the slot as it was; a bad depth is
    rejected before any module is listed.  The result is shared with every
    later reader, so it is read-only: tuples, mapping proxies and frozen
    values.  ``classification_sweep.cache_clear()`` empties the slot.
    """
    check_stratum_depth(depth)
    modules = {lam: dim for dim, lam in enumerate_modules(datum, dim_bound, with_dimensions=True)}
    elements = tuple(sweep_elements(datum, depth))
    outcomes = {}
    for lam in modules:
        multiset = freudenthal_multiplicities(lam)
        for s in elements:
            cls = almost_simple_class(s, multiset)
            if cls is not None:
                outcomes.setdefault(lam, []).append((s, cls))
    outcomes = {lam: tuple(pairs) for lam, pairs in outcomes.items()}
    return MappingProxyType(modules), elements, MappingProxyType(outcomes)


def verify_classification_sweep(
    datum: RootDatum, dim_bound: int, stratum_depth: int, seed: int
) -> VerificationReport:
    """Check that almost-simple outcomes for non-regular non-central generic
    elements occur exactly on the permitted modules, with at least one
    witnessing stratum each.  Depth 1 has no root-pair strata, so there the
    permitted modules of ``tables.root_pair_almost_simple`` are expected to
    have no witness.  The seed only labels the check id."""
    rec = _Recorder(
        f"c99:{datum.name}:dim<={dim_bound}:depth={stratum_depth}:seed={seed}",
        notes=(SWEEP_SCOPE_NOTE, validity_note(datum)),
    )
    modules, _, outcomes = classification_sweep(datum, dim_bound, stratum_depth)
    permitted = tables.permitted_almost_simple(datum)
    pair_only = tables.root_pair_almost_simple(datum) if stratum_depth == 1 else set()
    for lam, dim in modules.items():
        expect = lam.coords in permitted and lam.coords not in pair_only
        witnesses = outcomes.get(lam, [])
        label = f"{lam} (dim {dim})"
        rec.check(
            label,
            expect == bool(witnesses),
            expected=(
                "almost-simple witness" if expect
                else "no witness at depth 1 (root-pair strata only)" if lam.coords in pair_only
                else "no witness"
            ),
            actual=(
                f"almost-simple witness [{'; '.join(s.label for s, _ in witnesses)}]"
                if witnesses
                else "no witness"
            ),
        )
    if not modules:
        rec.check("no modules within bound", True)
    return rec.report()


def verify_multiplicity_bounds(
    datum: RootDatum, dim_bound: int, seed: int, stratum_depth: int = 2
) -> VerificationReport:
    """Every almost-simple sweep outcome obeys the multiplicity cap for its
    (family, dimension) case, and the rank cap otherwise.  The seed only
    labels the check id."""
    rec = _Recorder(
        f"bounds:{datum.name}:dim<={dim_bound}:seed={seed}",
        notes=(SWEEP_SCOPE_NOTE,),
    )
    modules, _, outcomes = classification_sweep(datum, dim_bound, stratum_depth)
    any_case = False
    for lam, pairs in sorted(outcomes.items(), key=lambda kv: kv[0].coords):
        dim = modules[lam]
        cap = tables.multiplicity_cap(datum, dim)
        for s, cls in pairs:
            any_case = True
            rec.check(
                f"{lam} (dim {dim}) via {s.label}: max multiplicity {cls.max_multiplicity} <= {cap}",
                cls.max_multiplicity <= cap,
                expected=f"<= {cap}",
                actual=str(cls.max_multiplicity),
            )
    if not any_case:
        rec.check("no almost-simple outcomes within bound", True)
    return rec.report()


# -- natural module regularity ----------------------------------------------------


def _sample_epsilon_tokens(datum: RootDatum, rng: random.Random):
    """Random epsilon tuple mixing fresh generic symbols, repeats, inverses
    and signs; family A gets a determinant-one final entry."""
    n = datum.rank
    count = n + 1 if datum.family == "A" else n
    names = [f"x{i}" for i in range(count)]
    tokens = []
    used = []
    limit = count - 1 if datum.family == "A" else count
    for i in range(limit):
        torsion = Fraction(1, 2) if rng.random() < 0.25 else Fraction(0)
        roll = rng.random()
        if used and roll < 0.35:
            prev = rng.choice(used)
            exp = 1 if rng.random() < 0.6 else -1
            tokens.append(EpsilonToken(torsion, {prev: exp}))
        elif roll < 0.55:
            tokens.append(EpsilonToken(torsion, {}))
        else:
            name = names[i]
            used.append(name)
            tokens.append(EpsilonToken(torsion, {name: 1}))
    if datum.family == "A":
        total_t = sum((t.torsion for t in tokens), Fraction(0))
        powers = {}
        for t in tokens:
            for k, e in t.powers.items():
                powers[k] = powers.get(k, 0) - e
        tokens.append(EpsilonToken(-total_t, {k: e for k, e in powers.items() if e}))
    return tokens


# The natural-module regularity rule per family: s is regular iff every value
# of its spectrum has multiplicity 1, except the exempt values exp(2 pi i t),
# listed by their torsions t (0 for 1, 1/2 for -1), which may have
# multiplicity 2; and the message of a sample that breaks the rule.
_NATURAL_RULES = {
    "A": ((), "regular <-> simple spectrum"),
    "B": ((Fraction(1, 2),), "regular <-> (-1 multiplicity <= 2, rest simple)"),
    "C": ((), "regular <-> simple spectrum"),
    "D": ((Fraction(0), Fraction(1, 2)), "regular <-> (1,-1 multiplicities <= 2, rest simple)"),
}


def verify_natural_module_regularity(
    family: str, rank: int, samples: int, seed: int
) -> VerificationReport:
    """Randomized biconditionals relating regularity of a non-central element
    and its eigenvalue multiplicities on the natural module; for family D
    also the relation between the natural module and the module of the
    second fundamental weight.  Central samples are skipped; if all
    ``samples`` draws are central, drawing goes on until one is not.  The
    family is case-insensitive, as in ``build_root_datum``."""
    datum = build_root_datum(family, rank)
    family = datum.family
    if family not in "ABCD":
        raise ValueError("natural-module checks are defined for families A-D")
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    rec = _Recorder(f"natural:{datum.name}:samples={samples}:seed={seed}")
    rng = random.Random(seed)
    nat = freudenthal_multiplicities(datum.fundamental_weight(1))
    adj2 = freudenthal_multiplicities(datum.fundamental_weight(2)) if family == "D" else None
    exempt_torsions, rule = _NATURAL_RULES[family]
    counts = {"checked": 0, "skipped-central": 0}
    failures = []
    for idx in itertools.count():
        if idx >= samples and counts["checked"]:
            break
        tokens = _sample_epsilon_tokens(datum, rng)
        s = torus_from_epsilon(datum, tokens, label=f"sample{idx}")
        if is_central(s):
            counts["skipped-central"] += 1
            continue
        counts["checked"] += 1
        reg = is_regular(s)
        sp = spectrum_of_multiset(s, nat)
        exempt = {ValueGroupElement(t, (0,) * s.free_rank) for t in exempt_torsions}
        if reg != all(m <= (2 if v in exempt else 1) for v, m in sp.entries):
            failures.append((idx, rule, s))
        if family == "D" and not is_almost_simple(sp):
            sp2 = spectrum_of_multiset(s, adj2)
            if is_almost_simple(sp2):
                failures.append((idx, "non-almost-simple on w1 forces same on w2", s))
        if reg:
            exceptional = family == "D" and all(sp.multiplicity(v) == 2 for v in exempt)
            if is_almost_simple(sp) == exceptional:
                failures.append((idx, "regular almost-simple dichotomy", s))
    rec.check(
        f"{datum.name}: {counts['checked']} non-central samples, "
        f"{counts['skipped-central']} central skipped",
        counts["checked"] > 0,
    )
    rec.check(
        f"{datum.name}: biconditional violations",
        not failures,
        expected="0 violations",
        actual=f"{len(failures)} violations"
        + (f" (first: sample {failures[0][0]}, {failures[0][1]})" if failures else ""),
    )
    return rec.report()


def run_check(check, *, family=None, rank=None, dim_bound=40, depth=2, seed=0, samples=200):
    """Dispatch a named check.  The options are keyword-only, so an unknown
    one raises TypeError; every check but ``witnesses`` needs family and
    rank, and a missing one raises ValueError naming it."""
    if check == "witnesses":
        return verify_witness_elements()
    if check not in CHECK_IDS:
        raise ValueError(f"unknown check {check!r}; valid checks: {', '.join(CHECK_IDS)}")
    for name, value in (("family", family), ("rank", rank)):
        if value is None:
            raise ValueError(f"check {check!r} needs the option {name!r}")
    if check == "level-table":
        return verify_level_table(family, rank)
    if check == "natural":
        return verify_natural_module_regularity(family, rank, samples, seed)
    datum = build_root_datum(family, rank)
    if check == "c99":
        return verify_classification_sweep(datum, dim_bound, depth, seed)
    return verify_multiplicity_bounds(datum, dim_bound, seed, depth)
