"""Saturated weight sets and characteristic-0 weight multiplicities.

Multiplicities come from the Freudenthal recursion evaluated on dominant
representatives only and propagated by Weyl invariance.  Weight sets carry a
validity note: the set description is valid for p = 0 or p > e(G) with a
p-restricted highest weight; the multiplicities themselves are the
characteristic-0 values.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from operator import mul

from .exceptions import DatumMismatchError, ResourceLimitError
from .rootdata import FrozenRecord, RootDatum, Weight, e_constant
from . import kernels
from .kernels import DEFAULT_DIM_BOUND, DEFAULT_ORBIT_BOUND


def validity_note(datum: RootDatum) -> str:
    return (
        f"weight set valid for p=0 or p>e(G)={e_constant(datum)}; "
        "multiplicities are characteristic-0 values"
    )


class WeightMultiset(FrozenRecord):
    """Weights of an irreducible module with their multiplicities: ``counts``
    maps each weight's coordinate tuple to its multiplicity (``support()``
    is the frozenset of those tuples), and ``highest`` holds the datum once.
    ``entries`` (the same keyed by ``Weight``) and ``layout`` (the
    coordinate columns of all weights, heaviest multiplicity first, that
    spectrum evaluation reads as one residue chain) are built on first
    read, so ``counts`` must not change after it is read."""

    _fields = ("highest", "counts", "validity")
    __slots__ = _fields + ("__dict__",)  # __dict__ holds the cached properties

    def __init__(self, highest: Weight, counts: dict, validity: str):
        _set_highest(self, highest)
        _set_counts(self, counts)
        _set_validity(self, validity)

    @cached_property
    def entries(self) -> dict:
        datum = self.highest.datum
        return {Weight(c, datum): m for c, m in self.counts.items()}

    @cached_property
    def layout(self):
        """(columns, groups): the omega-coordinate columns of all weights,
        heaviest multiplicity first (columns[i][w] is coordinate i of the
        w-th weight), and ((m, count), ...) in that order: the weights come
        in runs of ``count`` weights of multiplicity m."""
        groups = {}
        for c, m in self.counts.items():
            groups.setdefault(m, []).append(c)
        ms = sorted(groups, reverse=True)
        columns = tuple(zip(*chain.from_iterable(groups[m] for m in ms)))
        return columns, tuple((m, len(groups[m])) for m in ms)

    @cached_property
    def max_abs_coordinate(self) -> int:
        return max(map(abs, chain.from_iterable(self.counts)), default=0)

    @cached_property
    def label(self) -> str:
        return str(self.highest)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def multiplicity(self, w: Weight) -> int:
        if w.datum is not self.highest.datum:
            raise DatumMismatchError("weight bound to a different datum than the highest weight")
        return self.counts.get(w.coords, 0)

    def support(self):
        return frozenset(self.counts)

    def sorted_entries(self):
        """(coords, multiplicity) pairs sorted by height deficit below the
        highest weight, then lexicographically (the CLI's report order)."""
        datum, top = self.highest.datum, self.highest.coords

        def key(item):
            coeffs = datum.root_coefficients(tuple(a - b for a, b in zip(top, item[0])))
            return (sum(coeffs), item[0])

        return sorted(self.counts.items(), key=key)


_set_highest = WeightMultiset.highest.__set__
_set_counts = WeightMultiset.counts.__set__
_set_validity = WeightMultiset.validity.__set__


def weyl_dimension(lam: Weight) -> int:
    """Dimension of the irreducible module with highest weight lam, by the
    Weyl product formula prod <lam+rho, b^vee> / prod <rho, b^vee> over the
    positive roots b, in integers."""
    if not lam.is_dominant:
        raise ValueError(f"Weyl dimension needs a dominant weight, got {lam}")
    return weyl_dimension_of(lam.datum, lam.coords)


def weyl_dimension_of(datum: RootDatum, coords) -> int:
    """``weyl_dimension`` of the dominant omega-coordinates coords, without
    building a Weight or checking dominance."""
    num = 1
    lam_rho = [c + 1 for c in coords]
    for pv in datum.coroot_pairings:
        num *= sum(map(mul, lam_rho, pv))
    return weyl_quotient(datum, coords, num)


def weyl_quotient(datum: RootDatum, coords, num) -> int:
    """num / prod <rho, b^vee>, the Weyl dimension of coords when num is the
    product of its factors <coords + rho, b^vee> over the positive roots b.
    A remainder raises ArithmeticError."""
    dim, rem = divmod(num, datum.rho_coroot_product)
    if rem:
        raise ArithmeticError(
            f"Weyl product for {coords} on {datum.name} is not divisible by "
            f"prod <rho, b^vee> = {datum.rho_coroot_product}"
        )
    return dim


def premet_weight_set(lam: Weight, orbit_bound: int = DEFAULT_ORBIT_BOUND):
    """The saturated weight set of the module with highest weight lam: the
    union of the Weyl orbits of all dominant weights subdominant to lam, as a
    frozenset of coordinate tuples.

    Valid as the exact weight set for p = 0 or p > e(G) with lam
    p-restricted (see validity_note).  The orbit of a dominant mu has
    |W| / |W_J| weights, J the zero coordinates of mu, so the set's size is
    checked against orbit_bound before any orbit is walked.  The closure and
    the walk are the module's `kernels.module_walk`, so right after
    freudenthal_multiplicities(lam) neither runs again.
    """
    if not lam.is_dominant:
        raise ValueError(f"weight set enumeration needs a dominant weight, got {lam}")
    datum = lam.datum
    walk = kernels.module_walk(datum, lam.coords)
    order = datum.weyl_order()
    supports = Counter(map(tuple, map(map, repeat(bool), walk.doms)))
    total = sum(
        count * (order // datum.weyl_order(i for i, c in enumerate(nonzero) if not c))
        for nonzero, count in supports.items()
    )
    if total > orbit_bound:
        raise ResourceLimitError(
            f"weight set of {lam} has {total} elements, exceeding the orbit bound {orbit_bound}"
        )
    return frozenset(walk.index)


def check_dim_ceiling(dim_bound: int):
    """Raise ResourceLimitError for a dimension bound above DEFAULT_DIM_BOUND,
    the largest module the multiplicities are computed for."""
    if dim_bound > DEFAULT_DIM_BOUND:
        raise ResourceLimitError(
            f"dimension bound {dim_bound} exceeds the largest module dimension "
            f"{DEFAULT_DIM_BOUND} the multiplicities are computed for"
        )


def freudenthal_multiplicities(lam: Weight, dim_bound: int = DEFAULT_DIM_BOUND) -> WeightMultiset:
    """Characteristic-0 weight multiplicities of the irreducible module with
    highest weight lam.  The dimension is checked against dim_bound, and
    dim_bound against its ceiling DEFAULT_DIM_BOUND, before any kernel runs;
    the kernel's closure and orbit walk are kept for the next question about
    the same module (see `kernels.module_walk`), so premet_weight_set(lam)
    after this call walks nothing."""
    if dim_bound < 0:
        raise ValueError(f"dimension bound must be >= 0, got {dim_bound}")
    check_dim_ceiling(dim_bound)
    if not lam.is_dominant:
        raise ValueError(f"multiplicities need a dominant weight, got {lam}")
    datum = lam.datum
    dim = weyl_dimension(lam)
    if dim > dim_bound:
        raise ResourceLimitError(
            f"module {lam} has dimension {dim}, exceeding the dimension bound {dim_bound}"
        )
    _, mults, index = kernels.freudenthal(datum, lam.coords)
    counts = dict(zip(index, map(mults.__getitem__, index.values())))
    return WeightMultiset(highest=lam, counts=counts, validity=validity_note(datum))


def zero_weight_multiplicity(lam: Weight, dim_bound: int = DEFAULT_DIM_BOUND) -> int:
    """Multiplicity of the zero weight (0 whenever lam is not radical)."""
    datum = lam.datum
    if datum.root_coefficients(lam.coords) is None:
        return 0
    return freudenthal_multiplicities(lam, dim_bound).multiplicity(datum.zero())
