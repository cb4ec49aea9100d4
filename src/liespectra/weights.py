"""Lattice combinatorics on weights: dominance order, Weyl orbits,
subdominant enumeration, radical/minuscule tests and level stratification."""

from __future__ import annotations

import enum
import math
from operator import add, sub

from .exceptions import DatumMismatchError, ResourceLimitError
from .rootdata import FrozenRecord, RootDatum, Weight
from . import kernels
from .kernels import DEFAULT_ORBIT_BOUND

# Most dominant weights enumerate_dominant_by_sum will list.
DOMINANT_ENUMERATION_BOUND = 1_000_000


class Dominance(enum.Enum):
    EQUAL = "equal"
    FIRST_SUCCEEDS = "first-succeeds"
    SECOND_SUCCEEDS = "second-succeeds"
    INCOMPARABLE = "incomparable"


class LevelAssignment(FrozenRecord):
    __slots__ = _fields = ("weight", "level")

    def __init__(self, weight: Weight, level: int):
        _set_weight(self, weight)
        _set_level(self, level)


_set_weight = LevelAssignment.weight.__set__
_set_level = LevelAssignment.level.__set__


def _same_datum(lam, mu):
    if lam.datum is not mu.datum:
        raise DatumMismatchError("weights bound to different root data")
    return lam.datum


def dominance_compare(lam: Weight, mu: Weight) -> Dominance:
    """Compare two weights in the dominance order (difference a nonzero
    nonnegative integer combination of simple roots)."""
    datum = _same_datum(lam, mu)
    if lam.coords == mu.coords:
        return Dominance.EQUAL
    diff = tuple(a - b for a, b in zip(lam.coords, mu.coords))
    coeffs = datum.root_coefficients(diff)
    if coeffs is None:
        return Dominance.INCOMPARABLE
    if all(c >= 0 for c in coeffs):
        return Dominance.FIRST_SUCCEEDS
    if all(c <= 0 for c in coeffs):
        return Dominance.SECOND_SUCCEEDS
    return Dominance.INCOMPARABLE


def dominates(lam: Weight, mu: Weight) -> bool:
    """lam >= mu in the dominance order."""
    return dominance_compare(lam, mu) in (Dominance.EQUAL, Dominance.FIRST_SUCCEEDS)


def is_radical(mu: Weight) -> bool:
    """True iff mu lies in the root lattice."""
    return mu.datum.root_coefficients(mu.coords) is not None


def dominant_representative(mu: Weight):
    """The dominant weight in the Weyl orbit of mu, with a reflection word.

    Applying the simple reflections in list order to mu yields the
    representative: rep = s_{w[-1]}(... s_{w[0]}(mu) ...).
    """
    datum = mu.datum
    rep, word = kernels.dominant_rep(datum, mu.coords)
    return Weight(rep, datum), word


def orbit_size(mu: Weight) -> int:
    """Exact Weyl orbit size from the stabilizer of the dominant
    representative (a parabolic subgroup)."""
    datum = mu.datum
    rep, _ = kernels.dominant_rep(datum, mu.coords)
    support = [i for i, c in enumerate(rep) if c == 0]
    return datum.weyl_order() // datum.weyl_order(support)


def weyl_orbit(mu: Weight, bound: int = DEFAULT_ORBIT_BOUND):
    """Full Weyl orbit of mu as a sorted tuple of Weights.

    The exact orbit size is computed first; orbits larger than the safety
    bound are rejected before any enumeration is attempted.
    """
    size = orbit_size(mu)
    if size > bound:
        raise ResourceLimitError(
            f"Weyl orbit of {mu} has {size} elements, exceeding the orbit bound {bound}"
        )
    datum = mu.datum
    coords = kernels.weyl_orbit(datum, mu.coords)
    assert len(coords) == size
    return tuple(Weight._bulk(coords, datum))


def subdominant_weights(lam: Weight):
    """All dominant mu with mu <= lam (including lam itself)."""
    if not lam.is_dominant:
        raise ValueError(f"subdominant enumeration needs a dominant weight, got {lam}")
    datum = lam.datum
    coords = kernels.dominant_subdominants(datum, lam.coords)
    return tuple(Weight._bulk(coords, datum))


def minimal_nonzero_subdominant(lam: Weight):
    """The set of minimal nonzero dominant weights subdominant to lam.

    Returned as a tuple (the minimal antichain); it is a singleton in the
    common cases but uniqueness is not guaranteed in general, so callers
    select explicitly.  Returns () when lam is minuscule.
    """
    if not lam.is_dominant or lam.is_zero:
        raise ValueError("minimal nonzero subdominant needs a nonzero dominant weight")
    candidates = [m for m in subdominant_weights(lam) if not m.is_zero and m != lam]
    minimal = []
    for m in candidates:
        if not any(
            dominance_compare(m, other) is Dominance.FIRST_SUCCEEDS for other in candidates
        ):
            minimal.append(m)
    return tuple(sorted(minimal, key=lambda w: w.coords))


def _level_steps(datum):
    """(roots, blocked, above, every): bitmasks over the positive roots
    (omega-coordinates ``roots``) that list the steps of ``weight_level``.

    A dominant c may subtract exactly the roots outside the union of
    blocked[i][c_i] over the i with c_i < len(blocked[i]), where
    blocked[i][v] has bit j set iff root j has coordinate i above v.
    above[j] has the bits of the roots above root j in the root order
    (their difference a nonzero sum of simple roots).  Built once per
    datum."""
    steps = datum._level_steps
    if steps is None:
        roots = datum.positive_root_coords
        blocked = tuple(
            tuple(sum(1 << j for j, r in enumerate(roots) if r[i] > v)
                  for v in range(max(r[i] for r in roots)))
            for i in range(datum.rank)
        )
        # The roots above beta are the beta + alpha_i that are roots and
        # the roots above those; roots are listed in order of height.
        index = {r: j for j, r in enumerate(roots)}
        above = [0] * len(roots)
        for j in reversed(range(len(roots))):
            for a in datum.simple_root_coords:
                k = index.get(tuple(map(add, roots[j], a)))
                if k is not None:
                    above[j] |= (1 << k) | above[k]
        steps = datum._level_steps = (roots, blocked, tuple(above), (1 << len(roots)) - 1)
    return steps


def weight_level(lam: Weight) -> int:
    """Level of a dominant weight: 1 + the longest chain of dominant weights
    strictly below it in the dominance order.

    Chains between dominant weights refine into single positive-root steps
    through dominant weights, so the longest chain satisfies the local
    recursion over the dominant lam - beta for positive roots beta.  Only
    the minimal such beta in the root order are needed: if beta' < beta,
    then lam - beta' > lam - beta, so lam - beta' has the higher level.
    ``_level_steps`` lists them.  The recursion is unrolled onto an
    explicit stack, so long chains cannot exhaust the interpreter's
    recursion limit.  Levels are memoized on the datum.
    """
    if not lam.is_dominant:
        raise ValueError(f"weight level needs a dominant weight, got {lam}")
    datum = lam.datum
    cache = datum._levels
    roots, blocked, above, every = _level_steps(datum)
    below = {}  # coords -> dominant coords one minimal step lower
    stack = [lam.coords]
    while stack:
        coords = stack[-1]
        if coords in cache:
            stack.pop()
            continue
        lower = below.get(coords)
        if lower is None:
            out = 0
            for c, masks in zip(coords, blocked):
                if c < len(masks):
                    out |= masks[c]
            allowed = rest = every & ~out
            while rest:
                bit = rest & -rest
                allowed &= ~above[bit.bit_length() - 1]
                rest ^= bit
            lower = below[coords] = []
            while allowed:
                bit = allowed & -allowed
                lower.append(tuple(map(sub, coords, roots[bit.bit_length() - 1])))
                allowed ^= bit
            missing = [c for c in lower if c not in cache]
            if missing:
                stack.extend(missing)
                continue
        cache[coords] = 1 + max((cache[c] for c in lower), default=0)
        stack.pop()
    return cache[lam.coords]


def is_minuscule(lam: Weight) -> bool:
    """True iff lam is nonzero and of level 1 (single Weyl orbit module)."""
    if not lam.is_dominant:
        raise ValueError(f"minuscule test needs a dominant weight, got {lam}")
    return not lam.is_zero and weight_level(lam) == 1


def enumerate_dominant_by_sum(datum: RootDatum, height_bound: int):
    """Dominant weights with coordinate sum <= height_bound, sorted.

    There are C(height_bound + n, n) of them; more than
    DOMINANT_ENUMERATION_BOUND is rejected before any is listed, and a
    negative bound raises ValueError.
    """
    if height_bound < 0:
        raise ValueError(f"coordinate-sum bound must be >= 0, got {height_bound}")
    n = datum.rank
    count = math.comb(height_bound + n, n)
    if count > DOMINANT_ENUMERATION_BOUND:
        raise ResourceLimitError(
            f"{datum.name} has {count} dominant weights with coordinate sum <= "
            f"{height_bound}, exceeding the enumeration bound {DOMINANT_ENUMERATION_BOUND}"
        )
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(Weight(tuple(prefix), datum))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], height_bound)
    out.sort(key=lambda w: (sum(w.coords), w.coords))
    return tuple(out)


def level_sets(datum: RootDatum, max_level: int, height_bound: int):
    """Level assignments for all dominant weights within the coordinate-sum
    bound, restricted to levels <= max_level.

    A weight's level never depends on the bound; the bound only controls
    which weights are enumerated.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    out = []
    for w in enumerate_dominant_by_sum(datum, height_bound):
        lvl = weight_level(w)
        if lvl <= max_level:
            out.append(LevelAssignment(w, lvl))
    return tuple(out)
