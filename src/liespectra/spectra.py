"""Eigenvalue spectra of torus elements on irreducible modules, their
classification, and the Kronecker-product calculus."""

from __future__ import annotations

import enum
from collections import Counter
from itertools import compress, islice
from math import lcm
from operator import add, itemgetter

from .exceptions import DatumMismatchError
from .mult import DEFAULT_DIM_BOUND, WeightMultiset, freudenthal_multiplicities
from .rootdata import FrozenRecord, Weight
from .torus import TorusElement, ValueGroupElement, _fraction


class SpectrumKind(enum.Enum):
    SIMPLE = "simple"
    ALMOST_SIMPLE = "almost-simple"
    NOT_ALMOST_SIMPLE = "not-almost-simple"


class Spectrum(FrozenRecord):
    """Multiset of value-group elements with multiplicities.

    Entries are stored in the canonical value order (torsion as a reduced
    fraction, then the free part lexicographically) so renderings are
    byte-stable across runs.
    """

    __slots__ = _fields = ("entries", "source", "validity")

    def __init__(self, entries: tuple, source: tuple = ("", ""), validity: str = ""):
        # entries: ((ValueGroupElement, int), ...) canonically sorted
        _set_entries(self, entries)
        _set_source(self, source)
        _set_validity(self, validity)

    @staticmethod
    def from_dict(d, source=("", ""), validity=""):
        items = tuple(sorted(d.items(), key=lambda kv: kv[0].sort_key()))
        return Spectrum(items, source, validity)

    @property
    def total(self):
        return sum(m for _, m in self.entries)

    def as_dict(self):
        return dict(self.entries)

    def multiplicity(self, value):
        for v, m in self.entries:
            if v == value:
                return m
        return 0

    def inversion_symmetric(self):
        d = self.as_dict()
        return all(d.get(-v, 0) == m for v, m in d.items())


_set_entries = Spectrum.entries.__set__
_set_source = Spectrum.source.__set__
_set_validity = Spectrum.validity.__set__


class SpectrumClass(FrozenRecord):
    __slots__ = _fields = ("kind", "heavy_value", "max_multiplicity")

    def __init__(self, kind: SpectrumKind, heavy_value: ValueGroupElement | None,
                 max_multiplicity: int):
        _set_kind(self, kind)
        _set_heavy_value(self, heavy_value)
        _set_max_multiplicity(self, max_multiplicity)


_set_kind = SpectrumClass.kind.__set__
_set_heavy_value = SpectrumClass.heavy_value.__set__
_set_max_multiplicity = SpectrumClass.max_multiplicity.__set__


def spectrum(s: TorusElement, lam: Weight, dim_bound: int = DEFAULT_DIM_BOUND) -> Spectrum:
    """Spectrum of s on the irreducible module with highest weight lam:
    weight multiplicities summed over the evaluation fibers."""
    multiset = freudenthal_multiplicities(lam, dim_bound)
    return spectrum_of_multiset(s, multiset)


def residue_counts(s: TorusElement, multiset: WeightMultiset):
    """(b, counts): counts maps each residue r = x mod M of a packed sum
    x = sum c_i P_i (``TorusElement.residues`` with base 2^b) to the total
    multiplicity of the weights c that give it.

    By the residue layout of ``TorusElement``, two weights have the same
    value at s iff their residues are equal, so counts is the spectrum with
    undecoded keys.  The base is proven from the multiset's largest
    |coordinate|, and each multiplicity group is one batch of columns; the
    weights of multiplicity 1 are counted by ``Counter``, the others add
    their multiplicity.
    """
    if multiset.highest.datum is not s.datum:
        raise DatumMismatchError("weight bound to a different datum than the torus element")
    groups = multiset.columns_by_multiplicity
    b, batches = s.residues(multiset.max_abs_coordinate, *(columns for _, columns in groups))
    counts = Counter()
    for (m, _), residues in zip(groups, batches):
        if m == 1:
            counts.update(residues)
        else:
            get = counts.get
            for r in residues:
                counts[r] = get(r, 0) + m
    return b, counts


def spectrum_of_multiset(s: TorusElement, multiset: WeightMultiset) -> Spectrum:
    """Spectrum of s on the weights of the multiset.

    The values are counted on residues (``residue_counts``), and
    ``TorusElement.decode`` sorts the residues as integers and decodes each
    distinct one once.  The result equals ``Spectrum.from_dict`` of the sum
    of ``evaluate`` over the weights.
    """
    b, counts = residue_counts(s, multiset)
    return Spectrum(tuple(s.decode(counts, b)), (s.label, multiset.label), multiset.validity)


def _spectrum_class(heavy, max_mult) -> SpectrumClass:
    """The heavy-value rule, given the values of multiplicity above 1 (the
    first two suffice): simple if there is none, almost simple if there is
    exactly one (the heavy value), not almost simple otherwise."""
    if not heavy:
        return SpectrumClass(SpectrumKind.SIMPLE, None, max_mult)
    if len(heavy) == 1:
        return SpectrumClass(SpectrumKind.ALMOST_SIMPLE, heavy[0], max_mult)
    return SpectrumClass(SpectrumKind.NOT_ALMOST_SIMPLE, None, max_mult)


def classify(sp: Spectrum) -> SpectrumClass:
    """Simple if all multiplicities are 1; almost simple if exactly one value
    has multiplicity above 1; not almost simple otherwise."""
    entries = sp.entries
    return _spectrum_class([v for v, m in entries if m > 1],
                           max(map(itemgetter(1), entries), default=0))


def almost_simple_class(s: TorusElement, multiset: WeightMultiset) -> SpectrumClass | None:
    """``classify(spectrum_of_multiset(s, multiset))`` for a simple or almost
    simple spectrum, and None for one that is not almost simple.

    The multiplicity groups are counted on residues (as in
    ``residue_counts``) heaviest first.  While only groups of multiplicity
    above 1 have been counted, every counted residue is a heavy value, so
    once the counts hold two residues the spectrum is not almost simple and
    the lighter batches, lazy iterators, are never evaluated.  Otherwise the
    first two heavy residues are found in C-level passes, and only a single
    heavy residue is decoded."""
    if multiset.highest.datum is not s.datum:
        raise DatumMismatchError("weight bound to a different datum than the torus element")
    groups = multiset.columns_by_multiplicity[::-1]
    b, batches = s.residues(multiset.max_abs_coordinate, *(columns for _, columns in groups))
    counts = Counter()
    get = counts.get
    for (m, _), residues in zip(groups, batches):
        if len(counts) > 1:
            return None
        if m == 1:
            counts.update(residues)
        else:
            for r in residues:
                counts[r] = get(r, 0) + m
    heavy = list(islice(compress(counts, map((1).__lt__, counts.values())), 2))
    if len(heavy) > 1:
        return None
    return _spectrum_class([s.decode({r: counts[r]}, b)[0][0] for r in heavy],
                           max(counts.values(), default=0))


def classify_multiset(s: TorusElement, multiset: WeightMultiset) -> SpectrumClass:
    """``classify(spectrum_of_multiset(s, multiset))``: ``almost_simple_class``,
    or the full spectrum's class where that is None."""
    return almost_simple_class(s, multiset) or classify(spectrum_of_multiset(s, multiset))


def is_almost_simple(sp: Spectrum) -> bool:
    """At most one value of multiplicity above 1 (simple spectra included)."""
    return classify(sp).kind is not SpectrumKind.NOT_ALMOST_SIMPLE


def tensor_spectrum(sp1: Spectrum, sp2: Spectrum) -> Spectrum:
    """Spectrum of a Kronecker product: convolution of the two value
    multisets (values add in the value group, multiplicities multiply).

    Both spectra are put over the least common denominator D of their
    torsions, and the integer keys (t mod D, free) of the sums are
    convolved in a dict.  The keys sort in the canonical value order (t / D
    orders as t does), and each distinct sum becomes a value once.  Values
    of different free ranks raise ValueError, as their sum does.
    """
    e1, e2 = sp1.entries, sp2.entries
    values = [v for v, _ in e1 + e2]
    if e1 and e2 and len({len(v.free) for v in values}) > 1:
        raise ValueError("value-group elements from different ambient contexts")
    denom = lcm(*{v.torsion.denominator for v in values})
    keys1, keys2 = [[(v.torsion.numerator * (denom // v.torsion.denominator), v.free, m)
                     for v, m in entries] for entries in (e1, e2)]
    acc = {}
    get = acc.get
    for t1, f1, m1 in keys1:
        for t2, f2, m2 in keys2:
            key = ((t1 + t2) % denom, tuple(map(add, f1, f2)))
            acc[key] = get(key, 0) + m1 * m2
    entries = tuple([(ValueGroupElement(_fraction(t, denom), free), acc[t, free])
                     for t, free in sorted(acc)])
    label = f"({sp1.source[0]})x({sp2.source[0]})"
    weightpart = f"{sp1.source[1]}x{sp2.source[1]}"
    validity = sp1.validity or sp2.validity
    return Spectrum(entries, (label, weightpart), validity)
