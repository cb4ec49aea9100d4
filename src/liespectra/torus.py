"""Symbolic semisimple torus elements.

Values live in the abstract group (Q/Z) + Z^k: the torsion part models a
root of unity (written additively mod 1), the free part the exponents of k
multiplicatively independent generic generators.  This realizes any finitely
generated subgroup of the multiplicative group of an algebraically closed
field of characteristic 0 and supports exact equality tests.  In
characteristic p the same model is valid as long as the torsion orders used
avoid p; reports carry the standing validity note from the mult module.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul

from .exceptions import DatumMismatchError, ResourceLimitError, UnsupportedRootSystemError
from .linalg import hermite_normal_form, smith_normal_form
from .rootdata import FrozenRecord, RootDatum, Weight

# Stratum elements are decorated with roots of unity of order at most this.
MAX_TORSION_ORDER = 4
DEFAULT_TORSION_ORDERS = tuple(range(1, MAX_TORSION_ORDER + 1))
# Most root generator sets canonical_root_strata will search: every type of
# rank <= 8 is within it (E8 has 7,260 at depth 2), the rank-32 classical
# types are not (A32 has 139,656).
MAX_GENERATOR_SETS = 10_000


class ValueGroupElement(FrozenRecord):
    """Element of (Q/Z) + Z^k; torsion is a Fraction reduced into [0, 1)."""

    __slots__ = _fields = ("torsion", "free")

    def __init__(self, torsion: Fraction, free: tuple):
        _set_torsion(self, torsion)
        _set_free(self, free)

    @staticmethod
    def make(torsion, free):
        t = Fraction(torsion) % 1
        free = tuple(free)
        exponents = tuple(int(x) for x in free)
        if exponents != free:
            raise ValueError(f"free exponents must be integers, got {list(free)}")
        return ValueGroupElement(t, exponents)

    @staticmethod
    def identity(k):
        return ValueGroupElement(Fraction(0), (0,) * k)

    def __add__(self, other):
        if len(self.free) != len(other.free):
            raise ValueError("value-group elements from different ambient contexts")
        return ValueGroupElement(
            (self.torsion + other.torsion) % 1,
            tuple(a + b for a, b in zip(self.free, other.free)),
        )

    def __neg__(self):
        return ValueGroupElement((-self.torsion) % 1, tuple(-a for a in self.free))

    def __sub__(self, other):
        return self + (-other)

    def sort_key(self):
        return (self.torsion, self.free)

    def to_json(self):
        return {"torsion": str(self.torsion), "free": list(self.free)}

    def render(self, names=None, denoms=None):
        """Human-readable monomial, e.g. '-a^2*b' for torsion 1/2, free (2,1)."""
        k = len(self.free)
        if names is None:
            names = default_generator_names(k)
        if denoms is None:
            denoms = (1,) * k
        parts = []
        for x, name, den in zip(self.free, names, denoms):
            if x == 0:
                continue
            e = Fraction(x, den)
            if e == 1:
                parts.append(name)
            else:
                parts.append(f"{name}^{e}" if e.denominator == 1 else f"{name}^({e})")
        prefix = ""
        if self.torsion == Fraction(1, 2):
            prefix = "-"
        elif self.torsion != 0:
            prefix = f"u({self.torsion})" + ("*" if parts else "")
        body = "*".join(parts)
        if not body:
            return prefix + "1" if prefix in ("-", "") else f"u({self.torsion})"
        return prefix + body


_set_torsion = ValueGroupElement.torsion.__set__
_set_free = ValueGroupElement.free.__set__


@lru_cache(maxsize=4096)
def _fraction(t, d):
    """Fraction(t, d), normalised once per (t, d) pair in use."""
    return Fraction(t, d)


def default_generator_names(k):
    letters = "abcdefghijklmnopqrstuvwxyz"
    return tuple(letters[i] if i < len(letters) else f"g{i}" for i in range(k))


class TorusElement(FrozenRecord):
    """Homomorphism from the weight lattice into the value group, given by
    one value per fundamental weight.

    Every character question is answered in integers, on residues.  With
    D the least common denominator of the torsions, omega_i has torsion
    t_i / D (0 <= t_i < D) and free part f_i.  With k free generators,
    omega_i is packed as P_i = t_i B^k + sum_j f_ij B^(k-1-j): the torsion
    is the top digit and the free exponents are balanced base-B digits
    below it, f_i0 highest.  The character c gives x = sum c_i P_i =
    T B^k + L, with T = sum c_i t_i and L = sum_j F_j B^(k-1-j),
    F_j = sum_i c_i f_ij.  If every |F_j| is below B/2 (``residues`` proves
    it), L lies in [-H, B^k - H) with H = sum_j (B/2) B^j, and the residue
    r = x mod M, M = D B^k, carries exactly the value of c:

    * r = (T mod D) B^k + L (mod M), and (T mod D) B^k + L lies in
      [-H, M - H), a window of M consecutive integers, so
      y = (r + H) mod M equals (T mod D) B^k + L + H;
    * y's top digit (y >> bk) is T mod D, and its k digits below, read in
      plain base B, are F_j + B/2;
    * so r determines (T mod D, F), and (T mod D, F) determines L and
      then r;
    * every digit of y lies in [0, B), so y orders as its digit tuple
      (T mod D, F_0 + B/2, ..., F_(k-1) + B/2) does, lexicographically: the
      integer order of the shifted residues is the canonical value order
      (T mod D, then F; t / D orders as t does).

    So two characters have the same value iff their packed sums have the
    same residue, a residue is 0 exactly when the character is trivial at
    s, and the values of many residues are put in order by sorting
    integers (``decode``).  Regularity and centrality read the residues of
    the datum's root columns, whose coordinate bound c (3 for G2, else 2)
    is ``RootDatum.root_coordinate_bound``; spectra take c from the
    module's weights."""

    _fields = ("datum", "assignments", "label", "gen_names", "gen_denoms")
    __slots__ = _fields + ("_denom", "_tcol", "_fcols", "_digit_bound")

    def __init__(self, datum: RootDatum, assignments: tuple, label: str = "",
                 gen_names: tuple = None, gen_denoms: tuple = None):
        # assignments: one ValueGroupElement per fundamental weight
        if len(assignments) != datum.rank:
            raise ValueError(
                f"need {datum.rank} assignments for {datum.name}, "
                f"got {len(assignments)}"
            )
        ks = {len(v.free) for v in assignments}
        if len(ks) > 1:
            raise ValueError("assignments use free vectors of different lengths")
        k = ks.pop() if ks else 0
        _set_datum(self, datum)
        _set_assignments(self, assignments)
        _set_label(self, label)
        _set_gen_names(self, default_generator_names(k) if gen_names is None else gen_names)
        _set_gen_denoms(self, (1,) * k if gen_denoms is None else gen_denoms)
        denom = lcm(*(v.torsion.denominator for v in assignments))
        _set_denom(self, denom)
        _set_tcol(self, tuple(
            v.torsion.numerator * (denom // v.torsion.denominator) % denom
            for v in assignments
        ))
        _set_fcols(self, tuple(zip(*(v.free for v in assignments))))
        # |F_j| <= c sum_i |f_ij| for coordinates in [-c, c].
        _set_digit_bound(self, max((sum(map(abs, col)) for col in self._fcols), default=0))

    @property
    def free_rank(self):
        return len(self._fcols)

    def residues(self, c, columns):
        """(b, residues): an iterator over the residues x mod M of the packed
        sums x = sum_i c_i P_i in base B = 2^b, one per character of the
        omega-coordinate columns (columns[i][w] is coordinate i of
        character w, each in [-c, c]), in column order; 0 means the
        character is trivial.  The iterator is one lazy chain of C-level
        maps: a residue that is never read is never computed.

        Each free digit has |F_j| <= c sum_i |f_ij| < h, with
        h = c max_j sum_i |f_ij| + 1, and B > 2h holds it as a balanced
        digit in [-B/2, B/2); the torsion digit is reduced mod D by the
        residue mod M = D B^k.  P is built once per call, by Horner's rule.
        """
        b = (2 * (c * self._digit_bound + 1)).bit_length()
        base = 1 << b
        packed = self._tcol
        for column in self._fcols:
            packed = map(add, map(base.__mul__, packed), column)
        first, *rest = packed
        xs = map(first.__mul__, columns[0])
        for p, column in zip(rest, columns[1:]):
            xs = map(add, xs, map(p.__mul__, column))
        return b, map((self._denom << (b * len(self._fcols))).__rmod__, xs)

    def decode(self, counts, b):
        """[(value, m), ...] in canonical value order, for counts {r: m}
        keyed by residues r = x mod M of packed sums x = sum c_i P_i
        (``residues`` with base 2^b).  Each r is shifted to y = (r + H) mod M,
        and the (y, m) pairs are sorted by y as integers (the canonical
        order, see the class docstring).  Each y is decoded once: its top
        digit is the torsion numerator over D, and its free digits are read
        one pass over the list per digit."""
        k = len(self._fcols)
        bk = b * k
        mask, half = (1 << b) - 1, 1 << (b - 1)
        offset = half * ((1 << bk) - 1) // mask  # H = sum_j (B/2) B^j
        modulus = self._denom << bk
        items = sorted([((r + offset) % modulus, m) for r, m in counts.items()])
        free = [[((y >> (b * j)) & mask) - half for y, _ in items] for j in reversed(range(k))]
        denom = self._denom
        return [
            (ValueGroupElement(_fraction(y >> bk, denom), f), m)
            for (y, m), f in zip(items, zip(*free) if free else itertools.repeat(()))
        ]

    def render_value(self, v):
        return v.render(self.gen_names, self.gen_denoms)

    def to_json(self):
        return {"omega_values": [v.to_json() for v in self.assignments]}


_set_datum = TorusElement.datum.__set__
_set_assignments = TorusElement.assignments.__set__
_set_label = TorusElement.label.__set__
_set_gen_names = TorusElement.gen_names.__set__
_set_gen_denoms = TorusElement.gen_denoms.__set__
_set_denom = TorusElement._denom.__set__
_set_tcol = TorusElement._tcol.__set__
_set_fcols = TorusElement._fcols.__set__
_set_digit_bound = TorusElement._digit_bound.__set__


def torus_element(datum: RootDatum, assignments, label="", gen_names=None, gen_denoms=None):
    vals = tuple(
        v if isinstance(v, ValueGroupElement) else ValueGroupElement.make(*v)
        for v in assignments
    )
    return TorusElement(datum, vals, label, gen_names, gen_denoms)


def _weight_residues(s: TorusElement, weights):
    """(b, residues) of a collection of weights at s; a weight bound to
    another datum raises DatumMismatchError."""
    if any(w.datum is not s.datum for w in weights):
        raise DatumMismatchError("weight bound to a different datum than the torus element")
    columns = tuple(zip(*(w.coords for w in weights))) or ((),) * s.datum.rank
    return s.residues(max(map(abs, itertools.chain(*columns)), default=0), columns)


def evaluate(s: TorusElement, mu: Weight) -> ValueGroupElement:
    """Value of the character mu at s (Z-linear in mu): its residue,
    decoded."""
    b, residues = _weight_residues(s, (mu,))
    return s.decode(dict.fromkeys(residues, 1), b)[0][0]


def is_regular(s: TorusElement) -> bool:
    """True iff no root is trivial at s: no positive-root residue is 0."""
    _, residues = s.residues(s.datum.root_coordinate_bound, s.datum.positive_root_columns)
    return 0 not in residues


def is_central(s: TorusElement) -> bool:
    """True iff every simple root is trivial at s: every residue is 0.  Row i
    of the Cartan matrix holds coordinate i of every simple root."""
    _, residues = s.residues(s.datum.root_coordinate_bound, s.datum.cartan)
    return not any(residues)


def separates_weights(s: TorusElement, weight_set) -> bool:
    """True iff evaluation at s is injective on the given set of weights:
    their residues are distinct."""
    weights = set(weight_set)
    return len(set(_weight_residues(s, weights)[1])) == len(weights)


# -- strata -------------------------------------------------------------------


class StratumSpec(FrozenRecord):
    """A subfamily of torus elements cut by forcing the given characters to
    evaluate to the identity, with optional roots of unity on the torsion
    generators of the quotient lattice.  Unhashable: torsion_choices is a
    dict (None gives a new empty one).

    The Smith form (d, v) of the kernel (``smith_normal_form``) describes
    the quotient; it is computed once here and kept in two slots outside
    the fields, so equality, repr, copy and pickle see only the fields."""

    _fields = ("datum", "kernel_weights", "torsion_choices")
    __slots__ = _fields + ("_d", "_v")

    def __init__(self, datum: RootDatum, kernel_weights: tuple, torsion_choices: dict = None):
        kernel_weights = tuple(kernel_weights)
        for w in kernel_weights:
            if w.datum is not datum:
                raise DatumMismatchError("kernel weight bound to a different datum")
        _set_spec_datum(self, datum)
        _set_spec_kernel_weights(self, kernel_weights)
        _set_spec_torsion_choices(self, {} if torsion_choices is None else torsion_choices)
        # An empty kernel is given as one zero row, so v is still n x n.
        d, v = smith_normal_form([w.coords for w in kernel_weights] or [(0,) * datum.rank])
        if len(d) == datum.rank and all(x == 1 for x in d):
            raise ValueError(
                "kernel weights generate the full character lattice; only the identity survives"
            )
        _set_spec_d(self, d)
        _set_spec_v(self, v)


_set_spec_datum = StratumSpec.datum.__set__
_set_spec_kernel_weights = StratumSpec.kernel_weights.__set__
_set_spec_torsion_choices = StratumSpec.torsion_choices.__set__
_set_spec_d = StratumSpec._d.__set__
_set_spec_v = StratumSpec._v.__set__


def generic_stratum_element(spec: StratumSpec, seed: int = 0) -> TorusElement:
    """Generic element of the stratum, read off the spec's Smith rows: row i
    of v holds omega_i's quotient coordinates, so omega_i's free part is its
    free coordinates v[i][r:] (one generic generator per free quotient
    generator) and its torsion is sum_slot v[i][slot] t_slot mod 1 over the
    torsion slots.  t_slot is the requested root of unity; a random.Random,
    seeded from (seed, kernel), is built only for a slot without one.  The
    label is ``ker(w1,...)`` (``ker(generic)`` for an empty kernel), then
    ``[t{slot}=value;...]`` when the quotient has torsion.  Evaluation
    collisions are exactly those forced by the kernel and torsion values.
    """
    d, v = spec._d, spec._v
    r = len(d)
    if r == spec.datum.rank:
        raise ValueError("stratum is central/finite: kernel has full rank")
    rng = None
    torsion_values = []  # (slot, t_slot)
    for slot, order in enumerate(d):
        if order == 1:
            continue
        if slot in spec.torsion_choices:
            t = Fraction(spec.torsion_choices[slot]) % 1
            if (t * order).denominator != 1:
                raise ValueError(
                    f"torsion choice {t} is invalid for a quotient generator of order {order}"
                )
        else:
            rng = rng or random.Random(repr((seed, tuple(w.coords for w in spec.kernel_weights))))
            m = rng.choice([m for m in DEFAULT_TORSION_ORDERS if order % m == 0])
            t = Fraction(rng.randrange(m), m)
        torsion_values.append((slot, t))
    assignments = tuple(
        ValueGroupElement(sum((row[slot] * t for slot, t in torsion_values), Fraction(0)) % 1,
                          tuple(row[r:])) for row in v)
    label = f"ker({','.join(map(str, spec.kernel_weights)) or 'generic'})"
    if torsion_values:
        label += f"[{';'.join(f't{slot}={t}' for slot, t in torsion_values)}]"
    return TorusElement(spec.datum, assignments, label=label)


def generic_regular_element(datum: RootDatum) -> TorusElement:
    """Generic element of the whole torus (empty kernel): assignments are
    independent generators, so evaluation is injective on the lattice."""
    return generic_stratum_element(StratumSpec(datum, ()), seed=0)


def stratum_torsion_decorations(spec: StratumSpec):
    """All torsion-choice maps for the stratum's torsion quotient generators
    with values of multiplicative order <= MAX_TORSION_ORDER (the trivial
    map first)."""
    orders = {slot: order for slot, order in enumerate(spec._d) if order > 1}
    per_slot = [[t for t in (Fraction(num, order) for num in range(order))
                 if t.denominator <= MAX_TORSION_ORDER] for order in orders.values()]
    return [dict(zip(orders, combo)) for combo in itertools.product(*per_slot)]


def check_stratum_depth(depth: int):
    """Raise ValueError for a stratum depth other than 1 or 2."""
    if depth not in (1, 2):
        raise ValueError(f"stratum depth must be 1 or 2, got {depth}")


def canonical_root_strata(datum: RootDatum, depth: int):
    """Canonical root-kernel strata up to Weyl conjugacy.

    Depth 1 yields the kernels generated by a single root (one per root
    length); depth 2 adds kernels generated by pairs of roots; any other
    depth raises ValueError.  Kernels of full rank (possible only when the
    pair count reaches the rank) are omitted since they carry no generic
    element.  Each stratum is keyed by
    the least Hermite normal form in its W-orbit; every orbit is enumerated
    once, and generator sets whose lattice lies in a finished orbit are
    skipped.  The strata are memoized on the datum per depth, as a tuple.

    The p positive roots give p generator sets at depth 1 and p + p(p-1)/2
    at depth 2; more than MAX_GENERATOR_SETS raises ResourceLimitError
    before any is searched.
    """
    check_stratum_depth(depth)
    strata = datum._strata.get(depth)
    if strata is None:
        p = len(datum.positive_root_coords)
        sets = p + (p * (p - 1) // 2 if depth == 2 else 0)
        if sets > MAX_GENERATOR_SETS:
            raise ResourceLimitError(
                f"{datum.name} has {sets} root generator sets at stratum depth {depth}, "
                f"exceeding the bound {MAX_GENERATOR_SETS}"
            )
        strata = datum._strata[depth] = _root_strata(datum, depth)
    return strata


def _root_strata(datum, depth):
    n = datum.rank
    alpha = datum.simple_root_coords
    pos = datum.positive_root_coords

    def w_orbit(start):
        seen = {start}
        frontier = [start]
        while frontier:
            new = []
            for key in frontier:
                for i in range(n):
                    refl = []
                    for row in key:
                        ci = row[i]
                        refl.append(tuple(c - ci * a for c, a in zip(row, alpha[i])))
                    nk = hermite_normal_form(refl)
                    if nk not in seen:
                        seen.add(nk)
                        new.append(nk)
            frontier = new
        return seen

    generators = [[r] for r in pos]
    if depth == 2:
        generators.extend(itertools.combinations(pos, 2))
    done = set()
    canon = []
    for gens in generators:
        key = hermite_normal_form(gens)
        if len(key) >= n or key in done:
            continue  # full-rank kernel (no generic element), or orbit already found
        orbit = w_orbit(key)
        done |= orbit
        canon.append(min(orbit))
    return tuple(tuple(Weight(row, datum) for row in key) for key in sorted(canon))


# -- epsilon shorthand ---------------------------------------------------------


class EpsilonToken:
    """One epsilon value: a root-of-unity offset plus a monomial in named
    generic symbols."""

    __slots__ = ("torsion", "powers")

    def __init__(self, torsion, powers):
        self.torsion = Fraction(torsion) % 1
        self.powers = dict(powers)


def parse_epsilon_shorthand(text: str):
    """Parse a comma-separated epsilon tuple such as 'a,a,-1/a,-1/a'.

    Grammar per entry: optional sign, then '1', 'i', a symbol, '1/SYM',
    'SYM^K' or '1/SYM^K'.  '-' contributes torsion 1/2 and 'i' torsion 1/4.
    """
    tokens = []
    for pos, raw in enumerate(text.split(",")):
        item = raw.strip()
        if not item:
            raise ValueError(f"empty epsilon entry at position {pos + 1}")
        torsion = Fraction(0)
        if item.startswith("-"):
            torsion += Fraction(1, 2)
            item = item[1:].strip()
        elif item.startswith("+"):
            item = item[1:].strip()
        invert = False
        if item.startswith("1/"):
            invert = True
            item = item[2:].strip()
        if item == "1" and not invert:
            tokens.append(EpsilonToken(torsion, {}))
            continue
        if item == "i" and not invert:
            tokens.append(EpsilonToken(torsion + Fraction(1, 4), {}))
            continue
        name, exp = item, 1
        if "^" in item:
            name, _, etext = item.partition("^")
            name = name.strip()
            try:
                exp = int(etext.strip())
            except ValueError:
                raise ValueError(f"bad exponent in epsilon entry {raw.strip()!r}") from None
        if not name or not name[0].isalpha() or not name.replace("_", "").isalnum() or name == "i":
            raise ValueError(f"bad epsilon entry {raw.strip()!r} at position {pos + 1}")
        if invert:
            exp = -exp
        tokens.append(EpsilonToken(torsion, {name: exp}))
    return tokens


def torus_from_epsilon(datum: RootDatum, tokens, label="") -> TorusElement:
    """Compile epsilon values (EpsilonToken list) into a torus element, for
    the classical families.

    omega_i is read off its integer row h_i omega_i = sum_j c_ij e_j
    (``RootDatum.epsilon_rows``): torsion (sum_j c_ij t_j mod 1) / h_i and
    free part (sum_j c_ij f_j) / h_i.  Family A needs product 1 (determinant
    one), and its rows are e_1 + ... + e_i, not the trace-zero ones, which
    scale the torsion by i/(n+1): a root of unity has no unique (n+1)-th
    root, and on A1 '-1,-1' is -I, so omega_1 must take -1, not 1.

    The B and D spin weights are half-sums (h_i = 2): each named symbol is
    modelled as the square of an internal generator (shown with fractional
    exponents), so free sums halve, and each half torsion takes its branch
    in [0, 1/2).  On B the branch changes no root value.  On D the two spin
    branches are taken apart and can disagree with e_1 + ... + e_(n-1);
    then e_(n-1) and e_n both change sign ('a,b,c,-d' on D4 gives -c, d).
    """
    rows = datum.epsilon_rows
    if rows is None:
        raise UnsupportedRootSystemError(
            f"epsilon shorthand applies to families A-D only, not {datum.name}"
        )
    expect = len(rows[0][1])
    if len(tokens) != expect:
        raise ValueError(f"{datum.name} needs {expect} epsilon values, got {len(tokens)}")
    names = list(dict.fromkeys(name for tok in tokens for name in tok.powers))
    scale = 2 if datum.family in "BD" else 1
    free_columns = [[tok.powers.get(name, 0) * scale for tok in tokens] for name in names]
    # Torsions as numerators over their least common denominator.
    denom = lcm(*(tok.torsion.denominator for tok in tokens))
    torsions = [tok.torsion.numerator * (denom // tok.torsion.denominator) for tok in tokens]
    if datum.family == "A" and (sum(torsions) % denom or any(map(sum, free_columns))):
        raise ValueError("epsilon values for family A must have product 1 (determinant one)")
    assignments = tuple(
        ValueGroupElement(_fraction(sum(map(mul, row, torsions)) % denom, denom * h),
                          tuple(sum(map(mul, row, column)) // h for column in free_columns))
        for h, row in rows
    )
    return TorusElement(datum, assignments, label=label,
                        gen_names=tuple(names), gen_denoms=(scale,) * len(names))


def torus_from_epsilon_text(datum: RootDatum, text: str, label="") -> TorusElement:
    return torus_from_epsilon(datum, parse_epsilon_shorthand(text), label=label or text)


def torus_from_json(datum: RootDatum, payload, label="") -> TorusElement:
    """Build a torus element from the JSON wire format
    {"omega_values": [{"torsion": "1/2", "free": [1, 0]}, ...]}."""
    try:
        vals = []
        for item in payload["omega_values"]:
            if not isinstance(item, dict):
                raise TypeError(f"omega value {item!r} is not an object")
            vals.append(
                ValueGroupElement.make(Fraction(item.get("torsion", "0")), item.get("free", []))
            )
    except (KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad torus element JSON: {exc}") from None
    k = max((len(v.free) for v in vals), default=0)
    vals = [ValueGroupElement(v.torsion, v.free + (0,) * (k - len(v.free))) for v in vals]
    return TorusElement(datum, tuple(vals), label=label)
