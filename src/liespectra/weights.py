"""Lattice combinatorics on weights: dominance order, Weyl orbits,
subdominant enumeration, radical/minuscule tests and level stratification."""

from __future__ import annotations

import enum
import itertools
import math
from operator import add, mul, sub

from .exceptions import ResourceLimitError
from .rootdata import FrozenRecord, RootDatum, Weight
from . import kernels
from .kernels import DEFAULT_ORBIT_BOUND

# Most dominant weights level_sets and verify.enumerate_modules accept.
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


def dominance_compare(lam: Weight, mu: Weight) -> Dominance:
    """Compare two weights in the dominance order (difference a nonzero
    nonnegative integer combination of simple roots)."""
    lam._check(mu)
    if lam.coords == mu.coords:
        return Dominance.EQUAL
    diff = tuple(a - b for a, b in zip(lam.coords, mu.coords))
    coeffs = lam.datum.root_coefficients(diff)
    if coeffs is None:
        return Dominance.INCOMPARABLE
    if all(c >= 0 for c in coeffs):
        return Dominance.FIRST_SUCCEEDS
    if all(c <= 0 for c in coeffs):
        return Dominance.SECOND_SUCCEEDS
    return Dominance.INCOMPARABLE


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
    return tuple([Weight(c, datum) for c in coords])


def subdominant_weights(lam: Weight):
    """All dominant mu with mu <= lam (including lam itself)."""
    if not lam.is_dominant:
        raise ValueError(f"subdominant enumeration needs a dominant weight, got {lam}")
    datum = lam.datum
    coords, _ = kernels.dominant_subdominants(datum, lam.coords)
    return tuple([Weight(c, datum) for c in coords])


def minimal_nonzero_subdominant(lam: Weight):
    """The set of minimal nonzero dominant weights subdominant to lam.

    Returned as a tuple (the minimal antichain); it is a singleton in the
    common cases but uniqueness is not guaranteed in general, so callers
    select explicitly.  Returns () when lam is minuscule.

    A nonzero dominant mu < lam is minimal iff every step of ``_steps_mask``
    (a positive root beta with mu - beta dominant) lands on 0: a chain of
    dominant weights from mu down to a nonzero nu refines into such steps,
    and the first lands at or above nu, so not on 0, as no nonzero dominant
    weight lies below 0.
    """
    if not lam.is_dominant or lam.is_zero:
        raise ValueError("minimal nonzero subdominant needs a nonzero dominant weight")
    steps = _level_steps(lam.datum)
    minimal = []
    for m in subdominant_weights(lam):
        allowed = _steps_mask(m.coords, steps)
        if not (m.is_zero or m == lam) and all(
            r == m.coords for j, r in enumerate(steps[0]) if allowed >> j & 1
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


def _steps_mask(coords, steps):
    """Bits of the positive roots that leave the dominant coords dominant."""
    _, blocked, _, every = steps
    out = 0
    for c, masks in zip(coords, blocked):
        if c < len(masks):
            out |= masks[c]
    return every & ~out


def _capped_level(steps, known, top, cap):
    """min(weight_level, cap) of the dominant coordinates top, for an
    integer cap >= 1 or math.inf (the exact level).

    min(level(c), k) is 1 for k = 1, and otherwise 1 + the largest
    min(level(c'), k - 1) over the minimal steps c' (1 if there is none), so
    the search stops k - 1 steps below top, and at k = 2 it only asks
    whether any step exists.  known maps coordinates to (value, exact): a
    value below its cap is the exact level, one at its cap only a lower
    bound, searched again under a larger cap.  Under cap math.inf every
    value stored is exact.  The search runs on an explicit stack, so long
    chains cannot exhaust the interpreter's recursion limit.
    """
    roots, _, above, _ = steps

    def value(coords, k):
        """min(level, k) if it is known or k <= 2, else None."""
        if k == 1:
            return 1
        v, exact = known.get(coords, (0, False))
        if exact or v >= k:
            return min(v, k)
        if k == 2:
            v = 2 if _steps_mask(coords, steps) else 1
            known[coords] = (v, v == 1)
            return v
        return None

    below = {}  # coords -> dominant coords one minimal step lower
    stack = [(top, cap)]
    while stack:
        coords, k = stack[-1]
        if value(coords, k) is not None:
            stack.pop()
            continue
        lower = below.get(coords)
        if lower is None:
            # The minimal steps: allowed roots with no allowed root below them.
            allowed = rest = _steps_mask(coords, steps)
            while rest:
                bit = rest & -rest
                allowed &= ~above[bit.bit_length() - 1]
                rest ^= bit
            lower = below[coords] = []
            while allowed:
                bit = allowed & -allowed
                lower.append(tuple(map(sub, coords, roots[bit.bit_length() - 1])))
                allowed ^= bit
        vals = [value(c, k - 1) for c in lower]
        if None in vals:
            stack.extend((c, k - 1) for c, v in zip(lower, vals) if v is None)
            continue
        v = 1 + max(vals, default=0)
        known[coords] = (v, v < k)
        stack.pop()
    return value(top, cap)


def weight_level(lam: Weight) -> int:
    """Level of a dominant weight: 1 + the longest chain of dominant weights
    strictly below it in the dominance order.

    Chains between dominant weights refine into single positive-root steps
    through dominant weights, so the longest chain satisfies the local
    recursion over the dominant lam - beta for positive roots beta.  Only
    the minimal such beta in the root order are needed: if beta' < beta,
    then lam - beta' > lam - beta, so lam - beta' has the higher level.
    ``_level_steps`` lists them, and ``_capped_level`` runs the recursion
    with no cap.  Levels are memoized on the datum.
    """
    if not lam.is_dominant:
        raise ValueError(f"weight level needs a dominant weight, got {lam}")
    datum = lam.datum
    return _capped_level(_level_steps(datum), datum._levels, lam.coords, math.inf)


def is_minuscule(lam: Weight) -> bool:
    """True iff lam is nonzero and of level 1 (single Weyl orbit module).

    A nonzero dominant lam is minuscule iff <lam, theta^vee> <= 1 for the
    highest coroot theta^vee, the unique coroot of greatest height: every
    positive coroot lies below it, so <lam, alpha^vee> lies in
    [0, <lam, theta^vee>] (Humphreys, Lie Algebras, exercises to 13).  No
    level is computed or memoized.
    """
    if not lam.is_dominant:
        raise ValueError(f"minuscule test needs a dominant weight, got {lam}")
    theta = max(lam.datum.coroot_pairings, key=sum)
    return not lam.is_zero and sum(map(mul, lam.coords, theta)) <= 1


def level_sets(datum: RootDatum, max_level: int, height_bound: int):
    """Level assignments for the dominant weights of coordinate sum <=
    height_bound and level <= max_level, in (sum, coordinates) order.

    Only sums up to 1 + c (max_level - 1) are listed (by stars and bars), c
    the largest coordinate sum of a positive root (2 on every supported
    type): a weight of level L lies L - 1 minimal steps, each a positive
    root, above a weight of level 1, which is 0 or minuscule, so 0 or a
    fundamental weight.  C(height_bound + n, n) above
    DOMINANT_ENUMERATION_BOUND is still rejected before any listing (a count
    of the cut listing would accept A32 at max level 3, bound 6: 435,897
    weights), and a negative bound raises ValueError.  Each level is
    searched only up to max_level + 1 (``_capped_level``), which decides
    whether it is listed; those capped values are kept for this call only,
    never in the datum's exact memo.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    if height_bound < 0:
        raise ValueError(f"coordinate-sum bound must be >= 0, got {height_bound}")
    n = datum.rank
    count = math.comb(height_bound + n, n)
    if count > DOMINANT_ENUMERATION_BOUND:
        raise ResourceLimitError(
            f"{datum.name} has {count} dominant weights with coordinate sum <= "
            f"{height_bound}, exceeding the enumeration bound {DOMINANT_ENUMERATION_BOUND}"
        )
    top = min(height_bound, 1 + max(map(sum, datum.positive_root_coords)) * (max_level - 1))
    # Stars and bars: bar i after b_i of the s stars.  The prefix sums b run
    # in lexicographic order, so the coordinates b_i - b_(i-1) do too.
    listed = [tuple(map(sub, (*bars, s), (0, *bars)))
              for s in range(top + 1)
              for bars in itertools.combinations_with_replacement(range(s + 1), n - 1)]
    # Lowest first by height (det times the sum of the simple-root
    # coefficients, which every step lowers), so a listed weight is searched
    # under the full cap before a listed weight above it reads it.
    steps, known, levels, heights = _level_steps(datum), {}, {}, datum.height_row
    for c in sorted(listed, key=lambda c: sum(map(mul, c, heights))):
        levels[c] = _capped_level(steps, known, c, max_level + 1)
    return tuple(LevelAssignment(Weight(c, datum), levels[c]) for c in listed
                 if levels[c] <= max_level)
