"""Eigenvalue spectra of torus elements on irreducible modules, their
classification, and the Kronecker-product calculus."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from operator import mul

from .exceptions import DatumMismatchError
from .mult import DEFAULT_DIM_BOUND, WeightMultiset, freudenthal_multiplicities
from .rootdata import Weight
from .torus import TorusElement, ValueGroupElement


class SpectrumKind(enum.Enum):
    SIMPLE = "simple"
    ALMOST_SIMPLE = "almost-simple"
    NOT_ALMOST_SIMPLE = "not-almost-simple"


@dataclass(frozen=True)
class Spectrum:
    """Multiset of value-group elements with multiplicities.

    Entries are stored in the canonical value order (torsion as a reduced
    fraction, then the free part lexicographically) so renderings are
    byte-stable across runs.
    """

    entries: tuple  # ((ValueGroupElement, int), ...) canonically sorted
    source: tuple = ("", "")
    validity: str = ""

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


@dataclass(frozen=True)
class SpectrumClass:
    kind: SpectrumKind
    heavy_value: ValueGroupElement | None
    max_multiplicity: int


def spectrum(s: TorusElement, lam: Weight, dim_bound: int = DEFAULT_DIM_BOUND) -> Spectrum:
    """Spectrum of s on the irreducible module with highest weight lam:
    weight multiplicities summed over the evaluation fibers."""
    multiset = freudenthal_multiplicities(lam, dim_bound)
    return spectrum_of_multiset(s, multiset)


def spectrum_of_multiset(s: TorusElement, multiset: WeightMultiset) -> Spectrum:
    """Spectrum of s on the weights of the multiset.

    Each weight is evaluated by one integer dot product with the packed
    vector of s (``TorusElement.packing``), whose base is proven from the
    largest |coordinate| c among the weights.  Multiplicities are summed on
    the packed values; only the distinct ones are unpacked, their torsion
    reduced mod D, and keys that then coincide are merged.  The result
    equals ``Spectrum.from_dict`` of the sum of ``evaluate`` over the
    weights.
    """
    datum = s.datum
    entries = multiset.entries
    coords = [w.coords for w in entries if w.datum is datum]
    if len(coords) != len(entries):
        raise DatumMismatchError("weight bound to a different datum than the torus element")
    values = {}
    if coords:
        b, packed = s.packing(max(map(abs, chain.from_iterable(coords))))
        acc = {}
        get = acc.get
        for x, m in zip([sum(map(mul, w, packed)) for w in coords], entries.values()):
            acc[x] = get(x, 0) + m
        get = values.get
        for key, m in zip(s.unpack(acc, b), acc.values()):
            values[key] = get(key, 0) + m
    # The keys sort in the canonical value order.  The list is built first
    # because tuple() over a generator grows by reallocation, which left the
    # heap measurably larger over many calls.
    out = tuple([(s.key_value(key), m) for key, m in sorted(values.items())])
    return Spectrum(out, (s.label, str(multiset.highest)), multiset.validity)


def classify(sp: Spectrum) -> SpectrumClass:
    """Simple if all multiplicities are 1; almost simple if exactly one value
    has multiplicity above 1; not almost simple otherwise."""
    heavy = [(v, m) for v, m in sp.entries if m > 1]
    max_mult = max((m for _, m in sp.entries), default=0)
    if not heavy:
        return SpectrumClass(SpectrumKind.SIMPLE, None, max_mult)
    if len(heavy) == 1:
        return SpectrumClass(SpectrumKind.ALMOST_SIMPLE, heavy[0][0], max_mult)
    return SpectrumClass(SpectrumKind.NOT_ALMOST_SIMPLE, None, max_mult)


def is_almost_simple(sp: Spectrum) -> bool:
    """At most one value of multiplicity above 1 (simple spectra included)."""
    return classify(sp).kind is not SpectrumKind.NOT_ALMOST_SIMPLE


def tensor_spectrum(sp1: Spectrum, sp2: Spectrum) -> Spectrum:
    """Spectrum of a Kronecker product: convolution of the two value
    multisets (values add in the value group, multiplicities multiply)."""
    acc = {}
    for v1, m1 in sp1.entries:
        for v2, m2 in sp2.entries:
            v = v1 + v2
            acc[v] = acc.get(v, 0) + m1 * m2
    label = f"({sp1.source[0]})x({sp2.source[0]})"
    weightpart = f"{sp1.source[1]}x{sp2.source[1]}"
    validity = sp1.validity or sp2.validity
    return Spectrum.from_dict(acc, source=(label, weightpart), validity=validity)
