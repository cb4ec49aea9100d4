import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracle_helpers as oh
from liespectra import (
    DatumMismatchError,
    Spectrum,
    StratumSpec,
    ValueGroupElement,
    Weight,
    build_root_datum,
    classify,
    freudenthal_multiplicities,
    generic_regular_element,
    generic_stratum_element,
    is_almost_simple,
    is_regular,
    minimal_nonzero_subdominant,
    parse_group,
    premet_weight_set,
    separates_weights,
    spectrum,
    spectrum_of_multiset,
    tensor_spectrum,
    torus_element,
    torus_from_epsilon_text,
    zero_weight_multiplicity,
)
from liespectra.mult import WeightMultiset, weyl_dimension
from liespectra.spectra import SpectrumKind, almost_simple_class
from liespectra.torus import TorusElement
from liespectra.verify import enumerate_modules, sweep_elements
from liespectra.weights import is_radical


def val(torsion, free):
    return ValueGroupElement.make(Fraction(torsion), free)


def by_coords(sp, s):
    return {s.render_value(v): m for v, m in sp.entries}


def test_spectrum_examples():
    a3 = build_root_datum("A", 3)
    s = torus_from_epsilon_text(a3, "a,a,1/a,1/a")
    sp = spectrum(s, a3.fundamental_weight(2))
    assert by_coords(sp, s) == {"a^2": 1, "1": 4, "a^-2": 1}

    c2 = build_root_datum("C", 2)
    s = torus_from_epsilon_text(c2, "a,a")
    sp = spectrum(s, c2.fundamental_weight(2))
    assert by_coords(sp, s) == {"a^2": 1, "1": 3, "a^-2": 1}

    a2 = build_root_datum("A", 2)
    s = torus_from_epsilon_text(a2, "a,a,1/a^2")
    sp = spectrum(s, a2.weight((1, 1)))
    assert by_coords(sp, s) == {"1": 4, "a^3": 2, "a^-3": 2}
    assert classify(sp).kind is SpectrumKind.NOT_ALMOST_SIMPLE


def _spectrum_by_evaluate(s, multiset):
    acc = {}
    for w, m in multiset.entries.items():
        v = oh.evaluate_oracle(s, w)
        acc[v] = acc.get(v, 0) + m
    return Spectrum.from_dict(acc, (s.label, str(multiset.highest)), multiset.validity)


def _equivalence_cases():
    a3 = build_root_datum("A", 3)
    mixed = torus_element(
        a3, [(Fraction(1, 2), (1, 0)), (Fraction(1, 3), (0, 1)), (Fraction(1, 4), (1, -1))]
    )
    torsion_only = torus_element(a3, [(Fraction(1, 2), ()), (Fraction(2, 3), ()), (Fraction(3, 4), ())])
    g2 = build_root_datum("G", 2)
    g2_torsion_only = torus_element(g2, [(Fraction(1, 3), ()), (Fraction(1, 2), ())])
    b3 = torus_from_epsilon_text(build_root_datum("B", 3), "-1,a,1/a^3")
    d4 = torus_from_epsilon_text(build_root_datum("D", 4), "i,-a,b,-1/b")
    return [
        pytest.param(mixed, [(1, 1, 0), (2, 0, 1), (0, 2, 0)], id="mixed-denominators"),
        pytest.param(torsion_only, [(1, 0, 0), (1, 1, 0), (0, 2, 1)], id="free-rank-0"),
        pytest.param(g2_torsion_only, [(1, 0), (0, 1), (2, 1)], id="free-rank-0-G2"),
        pytest.param(b3, [(1, 0, 0), (0, 0, 1), (0, 1, 1)], id="B3-epsilon"),
        pytest.param(d4, [(1, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 0)], id="D4-epsilon"),
    ]


@pytest.mark.parametrize("s,modules", _equivalence_cases())
def test_spectrum_of_multiset_equals_per_weight_evaluation(s, modules):
    for coords in modules:
        multiset = freudenthal_multiplicities(s.datum.weight(coords))
        got = spectrum_of_multiset(s, multiset)
        assert got == _spectrum_by_evaluate(s, multiset), coords
        assert all(type(v.torsion) is Fraction and 0 <= v.torsion < 1 for v, _ in got.entries)


# Modules whose weights have large coordinates (up to 1501 on A1), or many
# weights of rank 2 and 3, for the packing bound of spectrum_of_multiset.
PACKING_MODULES = [("A1", (1000,)), ("A1", (1501,)), ("G2", (3, 2)), ("G2", (0, 7)),
                   ("B3", (2, 1, 1)), ("B3", (0, 0, 5))]


@lru_cache(maxsize=None)
def _packing_multiset(name, coords):
    return freudenthal_multiplicities(parse_group(name).weight(coords))


@st.composite
def packing_cases(draw):
    """A torus element with torsion denominators up to 997 and free exponents
    up to 10^6 in size (small ones too, so values collide), on a module of
    PACKING_MODULES."""
    multiset = _packing_multiset(*draw(st.sampled_from(PACKING_MODULES)))
    datum = multiset.highest.datum
    k = draw(st.integers(0, 3))
    exponent = st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6))
    assignments = []
    for _ in range(datum.rank):
        den = draw(st.one_of(st.integers(1, 4), st.integers(1, 997)))
        torsion = Fraction(draw(st.integers(0, den - 1)), den)
        assignments.append((torsion, tuple(draw(exponent) for _ in range(k))))
    return torus_element(datum, assignments), multiset


def _assert_early_exit_agrees(s, multiset, sp):
    """almost_simple_class reads the same class (kind, heavy value, maximum
    multiplicity) off the residue counts as classify does off the full
    spectrum sp, or None exactly when that class is not almost simple;
    returns it."""
    cls, got = classify(sp), almost_simple_class(s, multiset)
    assert got == (None if cls.kind is SpectrumKind.NOT_ALMOST_SIMPLE else cls)
    return got


@settings(max_examples=60, deadline=None)
@given(packing_cases())
def test_packed_spectrum_matches_the_per_weight_oracle(case):
    s, multiset = case
    assert spectrum_of_multiset(s, multiset) == _spectrum_by_evaluate(s, multiset)


@pytest.mark.parametrize("name,bound", [("A3", 45), ("B3", 30), ("C3", 30), ("D4", 60)])
def test_classify_multiset_matches_classify_on_sweep_elements(name, bound):
    # The class of a module's spectrum as the sweep reads it, off the
    # residue counts.  Stratum elements are non-regular, so almost-simple
    # outcomes (with a heavy value to decode) occur on these modules.
    datum = parse_group(name)
    kinds = set()
    for lam in oh.enumerate_dominant_by_sum(datum, 3):
        if weyl_dimension(lam) > bound:
            continue
        multiset = freudenthal_multiplicities(lam)
        for s in sweep_elements(datum, 2):
            sp = spectrum_of_multiset(s, multiset)
            _assert_early_exit_agrees(s, multiset, sp)
            kinds.add(classify(sp).kind)
    assert SpectrumKind.ALMOST_SIMPLE in kinds and SpectrumKind.NOT_ALMOST_SIMPLE in kinds


@settings(max_examples=60, deadline=None)
@given(packing_cases())
def test_almost_simple_class_matches_classify_of_the_spectrum(case):
    s, multiset = case
    _assert_early_exit_agrees(s, multiset, _spectrum_by_evaluate(s, multiset))


@pytest.mark.parametrize("name,bound", [("A3", 45), ("B3", 30), ("C3", 30), ("D4", 60)])
def test_almost_simple_class_matches_classify_on_sweep_elements(name, bound):
    # A regular element separates the weights, so on a module whose only
    # heavy weight is 0 (the adjoint module) it has exactly one heavy value.
    datum = parse_group(name)
    elements = (*sweep_elements(datum, 2), generic_regular_element(datum))
    heavy = set()
    for lam in oh.enumerate_dominant_by_sum(datum, 3):
        if weyl_dimension(lam) > bound:
            continue
        multiset = freudenthal_multiplicities(lam)
        for s in elements:
            cls = _assert_early_exit_agrees(s, multiset, spectrum_of_multiset(s, multiset))
            heavy.add(None if cls is None else cls.max_multiplicity > 1)
    assert heavy == {None, True, False}


def test_almost_simple_class_never_evaluates_the_multiplicity_one_batch(monkeypatch):
    # B3 L(2 w2) has weights of multiplicity 8, 4, 2 and 1.  At every sweep
    # element the heavy weights already take two values, so the spectrum is
    # not almost simple before any weight of multiplicity 1 is read.
    datum = parse_group("B3")
    multiset = freudenthal_multiplicities(datum.weight((0, 2, 0)))
    columns, groups = multiset.layout
    assert [m for m, _ in groups] == [8, 4, 2, 1]
    assert sum(count for _, count in groups) == len(columns[0]) == len(multiset.counts)
    heavy_weights = sum(count for m, count in groups if m > 1)
    residues, read = TorusElement.residues, []

    def recording(it):
        for r in it:
            read.append(r)
            yield r

    def recording_residues(self, c, columns):
        b, it = residues(self, c, columns)
        return b, recording(it)

    monkeypatch.setattr(TorusElement, "residues", recording_residues)
    for s in sweep_elements(datum, 2):
        read.clear()
        assert almost_simple_class(s, multiset) is None
        assert 1 < len(read) <= heavy_weights


def test_almost_simple_class_compares_heavy_weights_across_multiplicity_groups():
    # At the torsion 1/2 element of A1 every odd weight has value -1 and
    # every even weight value 1.  The multiplicity-3 weights agree on -1 and
    # the multiplicity-2 weights on 1, so each group alone has one heavy
    # value, and the spectrum (-1 twelve times, 1 six times) is not almost
    # simple.
    datum = parse_group("A1")
    s = torus_element(datum, [(Fraction(1, 2), ())])
    multiset = WeightMultiset(datum.weight((3,)), {(3,): 3, (1,): 3, (-1,): 3, (-3,): 3,
                                                   (2,): 2, (0,): 2, (-2,): 2}, "")
    assert [m for m, _ in multiset.layout[1]] == [3, 2]
    sp = _spectrum_by_evaluate(s, multiset)
    assert by_coords(sp, s) == {"1": 6, "-1": 12}
    assert almost_simple_class(s, multiset) is None
    _assert_early_exit_agrees(s, multiset, sp)


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_spectrum_at_the_digit_bound(sign):
    # On A1 [1000] the weights +-1000 reach the free digits' bound
    # n * c * max |f| = 10^9 exactly (free +-10^6), with torsion 996/997 on top.
    multiset = _packing_multiset("A1", (1000,))
    s = torus_element(multiset.highest.datum,
                      [(Fraction(996, 997), (sign * 10**6, -sign * 10**6, 10**6 - 1))])
    sp = spectrum_of_multiset(s, multiset)
    assert sp == _spectrum_by_evaluate(s, multiset)
    _assert_early_exit_agrees(s, multiset, sp)


def test_spectrum_of_multiset_merges_torsion_keys_mod_d():
    # Torsion only: the 1001 weights of A1 [1000] fall onto 997 torsion
    # values, so packed sums that differ by multiples of D must merge.
    multiset = _packing_multiset("A1", (1000,))
    s = torus_element(multiset.highest.datum, [(Fraction(1, 997), ())])
    sp = spectrum_of_multiset(s, multiset)
    assert sp == _spectrum_by_evaluate(s, multiset)
    assert len(sp.entries) == 997 and sp.total == 1001
    _assert_early_exit_agrees(s, multiset, sp)
    assert almost_simple_class(s, multiset) is None


@pytest.mark.parametrize("free", [(), (0,), (0, 0)])
def test_classify_multiset_decodes_a_merged_heavy_torsion_value(free):
    # Torsion 1/2000 on A1 [1000]: only the weights +-1000 meet, on the
    # value -1 (torsion 1/2), and zero free exponents keep them together.
    multiset = _packing_multiset("A1", (1000,))
    s = torus_element(multiset.highest.datum, [(Fraction(1, 2000), free)])
    cls = almost_simple_class(s, multiset)
    assert cls.kind is SpectrumKind.ALMOST_SIMPLE and cls.max_multiplicity == 2
    assert cls.heavy_value == val(Fraction(1, 2), free)
    _assert_early_exit_agrees(s, multiset, _spectrum_by_evaluate(s, multiset))


def test_spectrum_of_multiset_rejects_a_multiset_of_another_datum():
    s = torus_from_epsilon_text(build_root_datum("A", 3), "a,b,1/a,1/b")
    foreign = freudenthal_multiplicities(build_root_datum("B", 3).fundamental_weight(1))
    with pytest.raises(DatumMismatchError):
        spectrum_of_multiset(s, foreign)


def test_the_module_path_builds_no_weight_per_weight(monkeypatch):
    # Inside a module, weights are coordinate tuples: building the multiset
    # and the weight set and reading spectra off them constructs no Weight
    # per weight, so E6 L(w1+w6), with 49 times the weights of A2 L(w1+w2),
    # makes as few.
    cases = []
    for name, coords in (("A2", (1, 1)), ("E6", (1, 0, 0, 0, 0, 1))):
        datum = parse_group(name)
        spec = StratumSpec(datum, (datum.highest_root,))
        cases.append((datum.weight(coords),
                      (generic_regular_element(datum), generic_stratum_element(spec, seed=1))))
    init, made = Weight.__init__, []

    def counting_init(self, coords, datum):
        made[-1] += 1
        init(self, coords, datum)

    monkeypatch.setattr(Weight, "__init__", counting_init)
    sizes = []
    for lam, elements in cases:
        made.append(0)
        ms = freudenthal_multiplicities(lam)
        assert premet_weight_set(lam) == ms.support()
        for s in elements:
            assert spectrum_of_multiset(s, ms).total == ms.total
            almost_simple_class(s, ms)
        sizes.append(len(ms.counts))
    assert sizes == [7, 343]
    assert made[0] == made[1] <= 2


def test_spectrum_arithmetic_builds_each_output_value_once(monkeypatch):
    # Values are decoded from integer keys: spectrum_of_multiset builds one
    # ValueGroupElement per entry, almost_simple_class one for its heavy value,
    # and tensor_spectrum one per distinct sum, not one per pair, with no
    # Fraction arithmetic.  Torsion 1/2000 on A1 [1000] merges the weights
    # +-1000 only, so 1001 weights give 1000 values.
    multiset = _packing_multiset("A1", (1000,))
    s = torus_element(multiset.highest.datum, [(Fraction(1, 2000), (0,))])
    one = Spectrum.from_dict({val(0, (1,)): 1, val(0, (-1,)): 1, val("1/2", (0,)): 2})
    expected = oh.tensor_spectrum_oracle(one, one)
    init, made = ValueGroupElement.__init__, [0]

    def counting_init(self, torsion, free):
        made[0] += 1
        init(self, torsion, free)

    def no_fraction_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in tensor_spectrum")

    monkeypatch.setattr(ValueGroupElement, "__init__", counting_init)
    sp = spectrum_of_multiset(s, multiset)
    assert made[0] == len(sp.entries) == 1000
    made[0] = 0
    assert almost_simple_class(s, multiset).kind is SpectrumKind.ALMOST_SIMPLE
    assert made[0] == 1
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mod__"):
        monkeypatch.setattr(Fraction, name, no_fraction_arithmetic)
    made[0] = 0
    t = tensor_spectrum(one, one)
    assert t.entries == expected.entries
    assert made[0] == len(t.entries) == 5 and len(one.entries) ** 2 == 9


def test_spectrum_total_is_module_dimension():
    b3 = build_root_datum("B", 3)
    s = torus_from_epsilon_text(b3, "a,a,b")
    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        lam = b3.weight(coords)
        assert spectrum(s, lam).total == weyl_dimension(lam)


def test_classify_cases():
    simple = Spectrum.from_dict({val(0, (1,)): 1, val(0, (2,)): 1})
    assert classify(simple).kind is SpectrumKind.SIMPLE
    assert is_almost_simple(simple)

    almost = Spectrum.from_dict({val(0, (2,)): 1, val(0, (0,)): 4, val(0, (-2,)): 1})
    cls = classify(almost)
    assert cls.kind is SpectrumKind.ALMOST_SIMPLE
    assert cls.heavy_value == val(0, (0,))
    assert cls.max_multiplicity == 4
    assert is_almost_simple(almost)

    bad = Spectrum.from_dict({val(0, (0,)): 4, val(0, (3,)): 2, val(0, (-3,)): 2})
    assert classify(bad).kind is SpectrumKind.NOT_ALMOST_SIMPLE
    assert not is_almost_simple(bad)


def test_tensor_spectrum_examples():
    sp = Spectrum.from_dict({val(0, (1, 0)): 2, val("1/2", (0, 1)): 1})
    shift = Spectrum.from_dict({val(0, (1, 1)): 1})
    shifted = tensor_spectrum(sp, shift)
    assert dict(shifted.entries) == {val(0, (2, 1)): 2, val("1/2", (1, 2)): 1}

    s1 = Spectrum.from_dict({val(0, (1, 0)): 1, val(0, (-1, 0)): 1})
    s2 = Spectrum.from_dict({val(0, (0, 1)): 1, val(0, (0, -1)): 1})
    t = tensor_spectrum(s1, s2)
    assert classify(t).kind is SpectrumKind.SIMPLE
    assert t.total == 4

    s1 = Spectrum.from_dict({val(0, (1, 0, 0, 0)): 2, val(0, (0, 1, 0, 0)): 1})
    s2 = Spectrum.from_dict({val(0, (0, 0, 1, 0)): 1, val(0, (0, 0, 0, 1)): 1})
    t = tensor_spectrum(s1, s2)
    assert classify(t).kind is SpectrumKind.NOT_ALMOST_SIMPLE


@st.composite
def value_spectra(draw, k):
    """Up to 5 values of free rank k (0 values: the empty spectrum), with
    torsion denominators 1-12 or 997 and multiplicities 1-3."""
    values = {}
    for _ in range(draw(st.integers(0, 5))):
        den = draw(st.one_of(st.integers(1, 12), st.just(997)))
        v = ValueGroupElement(Fraction(draw(st.integers(0, den - 1)), den),
                              tuple(draw(st.integers(-3, 3)) for _ in range(k)))
        values[v] = draw(st.integers(1, 3))
    return Spectrum.from_dict(values)


@settings(max_examples=60, deadline=None)
@given(value_spectra(2), value_spectra(2), value_spectra(2))
def test_tensor_spectrum_is_commutative_and_associative(a, b, c):
    assert tensor_spectrum(a, b).entries == tensor_spectrum(b, a).entries
    left = tensor_spectrum(tensor_spectrum(a, b), c)
    assert left.entries == tensor_spectrum(a, tensor_spectrum(b, c)).entries
    assert left.total == a.total * b.total * c.total


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(value_spectra(k), value_spectra(k))))
def test_tensor_spectrum_matches_the_pairwise_oracle(pair):
    a, b = pair
    got = tensor_spectrum(a, b)
    assert got.entries == oh.tensor_spectrum_oracle(a, b).entries
    assert all(type(v.torsion) is Fraction and 0 <= v.torsion < 1 for v, _ in got.entries)


@lru_cache(maxsize=None)
def _tensor_factors(name):
    """The nonzero modules of dimension at most 60, or of the smallest
    fundamental dimension where that is larger (E8's 248)."""
    datum = parse_group(name)
    smallest = min(weyl_dimension(datum.fundamental_weight(i)) for i in range(1, datum.rank + 1))
    return tuple(enumerate_modules(datum, max(60, smallest)))


@st.composite
def tensor_cases(draw):
    """(s, lam, mu): two modules of ``_tensor_factors`` on one of the 32 types
    of rank <= 8 and a battery element s drawn from a seeded rng."""
    factors = _tensor_factors(draw(st.sampled_from(oh.RANK_AT_MOST_8)))
    lam, mu = draw(st.sampled_from(factors)), draw(st.sampled_from(factors))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return oh.sample_torus_element(lam.datum, rng), lam, mu


@settings(max_examples=60, deadline=None)
@given(tensor_cases())
def test_tensor_spectrum_of_two_modules_is_the_spectrum_of_their_decomposition(case):
    # Brauer-Klimyk: L(lam) x L(mu) = sum N_nu L(nu), so at any s the
    # Kronecker product of the two spectra is the N_nu-weighted sum of the
    # spectra on the L(nu).  This ties Freudenthal, the orbit index, the
    # residue packing and the convolution to each other.
    s, lam, mu = case
    decomposition = oh.brauer_klimyk_oracle(lam, mu)
    assert all(n > 0 for n in decomposition.values())
    datum = lam.datum
    assert sum(n * weyl_dimension(datum.weight(nu)) for nu, n in decomposition.items()) == (
        weyl_dimension(lam) * weyl_dimension(mu))
    expected = {}
    for nu, n in decomposition.items():
        for v, m in spectrum(s, datum.weight(nu)).entries:
            expected[v] = expected.get(v, 0) + n * m
    assert dict(tensor_spectrum(spectrum(s, lam), spectrum(s, mu)).entries) == expected


@pytest.mark.parametrize("free1,free2", [((1,), (1, 0)), ((), (1,)), ((1, 0, 0), (0, 1))])
def test_tensor_spectrum_rejects_values_of_different_free_ranks(free1, free2):
    # A convolution that zips free tuples would truncate the longer one.
    one, two = Spectrum.from_dict({val(0, free1): 1}), Spectrum.from_dict({val(0, free2): 1})
    with pytest.raises(ValueError, match="different ambient contexts"):
        tensor_spectrum(one, two)
    with pytest.raises(ValueError, match="different ambient contexts"):
        tensor_spectrum(two, one)
    # Within one spectrum too, whatever the other holds.
    mixed = Spectrum.from_dict({val(0, free1): 1, val("1/2", free2): 2})
    with pytest.raises(ValueError, match="different ambient contexts"):
        tensor_spectrum(mixed, one)
    # The empty spectrum has no values, so it pairs with any free rank.
    assert tensor_spectrum(Spectrum.from_dict({}), mixed).entries == ()


def _random_spectrum(rng, symmetric=False):
    k = 2
    values = set()
    while len(values) < rng.randrange(2, 5):
        torsion = Fraction(rng.randrange(4), 4) if rng.random() < 0.3 else Fraction(0)
        free = tuple(rng.randrange(-2, 3) for _ in range(k))
        values.add(ValueGroupElement(torsion, free))
    d = {}
    for v in values:
        m = 1 if rng.random() < 0.8 else rng.randrange(2, 4)
        d[v] = m
        if symmetric:
            d[-v] = m
    if symmetric and len(d) < 2:
        d[val(0, (1, 0))] = 1
        d[val(0, (-1, 0))] = 1
    return Spectrum.from_dict(d)


def test_kronecker_product_battery():
    rng = random.Random(123)
    triggered_plain = triggered_symmetric = 0
    for _ in range(300):
        s1, s2 = _random_spectrum(rng), _random_spectrum(rng)
        t = tensor_spectrum(s1, s2)
        if is_almost_simple(t):
            triggered_plain += 1
            assert classify(s1).kind is SpectrumKind.SIMPLE
            assert classify(s2).kind is SpectrumKind.SIMPLE
        s1 = _random_spectrum(rng, symmetric=True)
        s2 = _random_spectrum(rng, symmetric=True)
        assert oh.inversion_symmetric(s1) and oh.inversion_symmetric(s2)
        t = tensor_spectrum(s1, s2)
        if is_almost_simple(t):
            triggered_symmetric += 1
            assert classify(t).max_multiplicity <= 2
    assert triggered_plain > 10 and triggered_symmetric > 10


def test_entries_are_byte_stable():
    rng = random.Random(0)
    pairs = [(val(Fraction(n, 4), (n % 3 - 1, -n)), n + 1) for n in range(6)]
    for _ in range(5):
        rng.shuffle(pairs)
        sp = Spectrum.from_dict(dict(pairs))
        assert json.dumps([(str(v.torsion), v.free, m) for v, m in sp.entries]) == json.dumps(
            [(str(v.torsion), v.free, m) for v, m in Spectrum.from_dict(dict(reversed(pairs))).entries]
        )


def test_almost_simple_forces_multiplicity_free_nonzero_weights():
    # Sampled non-regular non-central elements: an almost simple spectrum
    # only occurs on modules whose nonzero weights all have multiplicity 1,
    # and each such module has an almost simple generic regular spectrum.
    for name, bound in [("A2", 20), ("C2", 30)]:
        datum = build_root_datum(name[0], int(name[1]))
        elements = sweep_elements(datum, 2)
        modules = [
            lam for lam in oh.enumerate_dominant_by_sum(datum, 4)
            if not lam.is_zero and weyl_dimension(lam) <= bound
        ]
        for lam in modules:
            ms = freudenthal_multiplicities(lam)
            free_nonzero = oh.nonzero_multiplicities_all_one(ms)
            for s in elements:
                if is_almost_simple(spectrum_of_multiset(s, ms)):
                    assert free_nonzero
            # A separating regular element is almost simple exactly when the
            # nonzero weights are multiplicity free (a heavy nonzero weight
            # drags its whole orbit along).
            generic = spectrum_of_multiset(generic_regular_element(datum), ms)
            assert is_almost_simple(generic) == free_nonzero


def test_tensor_route_separation():
    # If the weight set of V_lam is the sum of two weight sets and some
    # non-central element is almost simple on V_lam, that element separates
    # both summands.
    c2 = build_root_datum("C", 2)
    s = torus_from_epsilon_text(c2, "a,a")
    lam = c2.weight((0, 2))
    mu = nu = c2.fundamental_weight(2)
    sums = {
        tuple(x + y for x, y in zip(a, b))
        for a in premet_weight_set(mu)
        for b in premet_weight_set(nu)
    }
    assert premet_weight_set(lam) == sums
    sp = spectrum(s, lam)
    if is_almost_simple(sp):
        assert separates_weights(s, [c2.weight(c) for c in premet_weight_set(mu)])
        assert separates_weights(s, [c2.weight(c) for c in premet_weight_set(nu)])
    # The almost-simple witness on the 5-dimensional module does separate
    # the natural module's weights.
    assert is_almost_simple(spectrum(s, c2.fundamental_weight(2)))


def test_descent_implications_for_non_almost_simple_spectra():
    # For sampled non-regular non-central elements: if the spectrum is not
    # almost simple on the minimal nonzero subdominant module (with the
    # stated radical/zero-multiplicity side conditions) it is not almost
    # simple on the module above it.
    for name in ["A2", "C2", "B3"]:
        datum = build_root_datum(name[0], int(name[1]))
        elements = sweep_elements(datum, 2)
        omega_a = datum.highest_root
        sp_cache = {}

        def sp_of(s, lam):
            key = (id(s), lam.coords)
            if key not in sp_cache:
                sp_cache[key] = spectrum_of_multiset(s, freudenthal_multiplicities(lam))
            return sp_cache[key]

        for lam in oh.enumerate_dominant_by_sum(datum, 3):
            if lam.is_zero or weyl_dimension(lam) > 120:
                continue
            minimal = minimal_nonzero_subdominant(lam) if not lam.is_zero else ()
            for s in elements:
                for mm in minimal:
                    if mm == lam:
                        continue
                    if is_almost_simple(sp_of(s, mm)):
                        continue
                    radical = is_radical(lam)
                    if not radical:
                        assert not is_almost_simple(sp_of(s, lam))
                    elif zero_weight_multiplicity(mm) <= 1:
                        assert not is_almost_simple(sp_of(s, lam))
                    elif zero_weight_multiplicity(lam) > 1:
                        assert not is_almost_simple(sp_of(s, lam))
                    if is_radical(mm):
                        # non-regular case of the same descent
                        assert not is_almost_simple(sp_of(s, lam))
                if lam != omega_a and oh.leq_oracle(datum, omega_a.coords, lam.coords):
                    if not is_almost_simple(sp_of(s, omega_a)):
                        assert not is_almost_simple(sp_of(s, lam))


def test_regular_elements_on_natural_modules():
    # Regular elements have almost simple natural spectra except the stated
    # even-orthogonal coincidence.
    b3 = build_root_datum("B", 3)
    s = torus_from_epsilon_text(b3, "-1,a,b")
    assert is_regular(s)
    assert is_almost_simple(spectrum(s, b3.fundamental_weight(1)))

    d4 = build_root_datum("D", 4)
    s = torus_from_epsilon_text(d4, "1,-1,a,b")
    assert is_regular(s)
    assert not is_almost_simple(spectrum(s, d4.fundamental_weight(1)))

    c3 = build_root_datum("C", 3)
    s = torus_from_epsilon_text(c3, "a,b,c")
    assert is_regular(s)
    assert classify(spectrum(s, c3.fundamental_weight(1))).kind is SpectrumKind.SIMPLE
