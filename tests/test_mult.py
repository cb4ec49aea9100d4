import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle_helpers as oh
from liespectra import (
    DatumMismatchError,
    ResourceLimitError,
    Weight,
    build_root_datum,
    dominance_compare,
    dominant_representative,
    freudenthal_multiplicities,
    parse_group,
    premet_weight_set,
    subdominant_weights,
    weyl_dimension,
    weyl_orbit,
    zero_weight_multiplicity,
)
from liespectra import kernels
from liespectra.weights import Dominance


def coords_set(weights):
    return {w.coords for w in weights}


def test_sl2_string():
    a1 = build_root_datum("A", 1)
    ms = freudenthal_multiplicities(a1.weight((2,)))
    assert {w.coords: m for w, m in ms.entries.items()} == {(2,): 1, (0,): 1, (-2,): 1}


def test_a2_adjoint_multiplicities():
    a2 = build_root_datum("A", 2)
    lam = a2.weight((1, 1))
    ms = freudenthal_multiplicities(lam)
    assert ms.total == 8 == weyl_dimension(lam)
    assert ms.multiplicity(a2.zero()) == 2
    for root in a2.positive_roots:
        assert ms.multiplicity(root) == 1
        assert ms.multiplicity(-root) == 1


def test_multiplicity_rejects_a_weight_of_another_datum():
    # counts is keyed by coordinates alone, so a weight of another datum with
    # a weight's coordinates must be refused, not looked up.
    a3 = build_root_datum("A", 3)
    ms = freudenthal_multiplicities(a3.fundamental_weight(1))
    assert ms.counts == {(1, 0, 0): 1, (-1, 1, 0): 1, (0, -1, 1): 1, (0, 0, -1): 1}
    assert ms.multiplicity(a3.weight((1, 0, 0))) == 1
    assert ms.multiplicity(a3.weight((0, 1, 0))) == 0
    for other in (build_root_datum("B", 3), build_root_datum("C", 3)):
        for coords in ((1, 0, 0), (0, 1, 0)):
            with pytest.raises(DatumMismatchError):
                ms.multiplicity(other.weight(coords))
    with pytest.raises(DatumMismatchError):
        ms.multiplicity(build_root_datum("A", 2).zero())


def test_entries_are_the_counts_keyed_by_weights():
    b2 = build_root_datum("B", 2)
    ms = freudenthal_multiplicities(b2.weight((1, 1)))
    assert ms.entries == {b2.weight(c): m for c, m in ms.counts.items()}
    assert all(type(w) is Weight and w.datum is b2 for w in ms.entries)
    assert ms.entries is ms.entries
    assert ms.support() == frozenset(ms.counts) == premet_weight_set(ms.highest)


def test_c2_five_dimensional_module():
    c2 = build_root_datum("C", 2)
    ms = freudenthal_multiplicities(c2.fundamental_weight(2))
    assert ms.total == 5
    assert ms.multiplicity(c2.zero()) == 1
    assert all(m == 1 for m in ms.entries.values())


def test_weyl_dimension_examples():
    assert weyl_dimension(build_root_datum("B", 3).fundamental_weight(1)) == 7
    assert weyl_dimension(build_root_datum("A", 3).fundamental_weight(2)) == 6
    assert weyl_dimension(build_root_datum("D", 4).fundamental_weight(4)) == 8
    g2 = build_root_datum("G", 2)
    assert weyl_dimension(g2.fundamental_weight(1)) == 7
    assert weyl_dimension(g2.fundamental_weight(2)) == 14
    f4 = build_root_datum("F", 4)
    assert [weyl_dimension(f4.fundamental_weight(i)) for i in (1, 2, 3, 4)] == [52, 1274, 273, 26]
    e8 = build_root_datum("E", 8)
    assert weyl_dimension(e8.fundamental_weight(8)) == 248
    a2 = build_root_datum("A", 2)
    assert weyl_dimension(a2.weight((1, 1))) == 8


def test_zero_weight_multiplicity():
    b3 = build_root_datum("B", 3)
    assert zero_weight_multiplicity(b3.fundamental_weight(3)) == 0  # non-radical
    a2 = build_root_datum("A", 2)
    assert zero_weight_multiplicity(a2.weight((1, 1))) == 2
    assert zero_weight_multiplicity(b3.fundamental_weight(2)) == 3
    assert weyl_dimension(b3.fundamental_weight(2)) == 21


def test_premet_set_examples():
    a2 = build_root_datum("A", 2)
    got = premet_weight_set(a2.weight((1, 1)))
    want = {r.coords for r in a2.positive_roots}
    want |= {(-a, -b) for a, b in want}
    want.add((0, 0))
    assert got == want and len(got) == 7

    b3 = build_root_datum("B", 3)
    spin = b3.fundamental_weight(3)
    assert premet_weight_set(spin) == coords_set(weyl_orbit(spin))
    assert premet_weight_set(b3.zero()) == {(0, 0, 0)}


@pytest.mark.parametrize(
    "name,coords",
    [
        ("A2", (2, 1)),
        ("A2", (3, 0)),
        ("A2", (2, 2)),
        ("A3", (1, 0, 1)),
        ("B2", (1, 2)),
        ("C2", (2, 0)),
        ("B3", (0, 1, 0)),
        ("G2", (1, 0)),
        ("G2", (0, 1)),
        ("G2", (1, 1)),
        # Multiplicities up to 27, with alpha-strings that step onto a dominant
        # weight (finished by its stored string sum) and strings that walk
        # several non-dominant weights before leaving the weight set.
        ("A2", (4, 2)),
        ("B2", (3, 2)),
        ("G2", (2, 1)),
        ("B3", (1, 1, 1)),
        ("C3", (2, 1, 1)),
    ],
)
def test_multiplicities_match_kostant_oracle(name, coords):
    datum = parse_group(name)
    lam = datum.weight(coords)
    ms = freudenthal_multiplicities(lam)
    for mu in subdominant_weights(lam):
        assert ms.multiplicity(mu) == oh.kostant_multiplicity(datum, coords, mu.coords)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_support_equals_premet_set_and_total_is_weyl_dimension(name):
    datum = parse_group(name)
    for lam in oh.enumerate_dominant_by_sum(datum, 2):
        ms = freudenthal_multiplicities(lam)
        assert ms.support() == premet_weight_set(lam)
        assert ms.total == weyl_dimension(lam)
        assert ms.multiplicity(lam) == 1


def test_weyl_invariance_on_orbit_members():
    b3 = build_root_datum("B", 3)
    ms = freudenthal_multiplicities(b3.weight((1, 1, 0)))
    rng = random.Random(2)
    support = list(ms.entries)
    for w in rng.sample(support, 12):
        rep, _ = dominant_representative(w)
        assert ms.multiplicity(w) == ms.multiplicity(rep)


PROPERTY_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]
PROPERTY_DIM_LIMIT = 10_000


@st.composite
def small_dominant_weights(draw, datum):
    """Coordinates in 0..4, the largest lowered by one at a time until the
    module has dimension at most PROPERTY_DIM_LIMIT."""
    coords = draw(st.lists(st.integers(0, 4), min_size=datum.rank, max_size=datum.rank))
    while weyl_dimension(datum.weight(coords)) > PROPERTY_DIM_LIMIT:
        coords[coords.index(max(coords))] -= 1
    return datum.weight(coords)


@pytest.mark.parametrize("name", PROPERTY_TYPES)
def test_total_is_weyl_dimension_and_multiplicities_are_w_invariant(name):
    datum = parse_group(name)

    @settings(max_examples=10, deadline=None)
    @given(small_dominant_weights(datum))
    def check(lam):
        ms = freudenthal_multiplicities(lam)
        assert ms.total == weyl_dimension(lam)
        for w, m in ms.entries.items():
            assert m == ms.multiplicity(dominant_representative(w)[0])

    check()


def _alpha_strings(ms, root, pairing):
    """Each alpha-string of the module's weights, bottom first, as
    (bottom weight's coordinates, list of multiplicities), and the pairing
    <bottom, alpha^vee>."""
    mult = {w.coords: m for w, m in ms.entries.items()}
    for mu in mult:
        if tuple(a - b for a, b in zip(mu, root)) in mult:
            continue
        string, nu = [], mu
        while nu in mult:
            string.append(mult[nu])
            nu = tuple(a + b for a, b in zip(nu, root))
        yield mu, string, sum(a * b for a, b in zip(mu, pairing))


@pytest.mark.parametrize("name", PROPERTY_TYPES)
def test_alpha_strings_are_palindromic_and_unimodal(name):
    datum = parse_group(name)

    @settings(max_examples=10, deadline=None)
    @given(small_dominant_weights(datum))
    def check(lam):
        ms = freudenthal_multiplicities(lam)
        for root, pairing in zip(datum.positive_root_coords, datum.coroot_pairings):
            for bottom, string, p in _alpha_strings(ms, root, pairing):
                # s_alpha maps the bottom mu to the top mu - <mu, alpha^vee> alpha.
                assert len(string) == 1 - p, (lam, root, bottom)
                assert string == string[::-1], (lam, root, bottom)
                half = string[: (len(string) + 1) // 2]
                assert half == sorted(half), (lam, root, bottom)

    check()


# Every simple type of rank <= 8.
RANK_8_TYPES = (
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", RANK_8_TYPES)
def test_weyl_dimension_matches_the_fraction_oracle(name):
    datum = parse_group(name)
    n = datum.rank
    rng = random.Random(name)
    weights = [datum.zero(), datum.rho, datum.highest_root, datum.highest_short_root]
    weights += [datum.fundamental_weight(i) for i in range(1, n + 1)]
    weights += [datum.weight([rng.randrange(6) for _ in range(n)]) for _ in range(4)]
    for lam in weights:
        assert weyl_dimension(lam) == oh.weyl_dimension_oracle(datum, lam.coords), lam


def test_weight_set_monotone_under_dominance():
    # mu < lam implies the weight set of V_mu sits inside that of V_lam.
    for name, bound in [("A3", 2), ("C3", 2), ("B3", 2)]:
        datum = parse_group(name)
        doms = oh.enumerate_dominant_by_sum(datum, bound)
        for lam in doms:
            plam = premet_weight_set(lam)
            for mu in doms:
                if dominance_compare(lam, mu) is Dominance.FIRST_SUCCEEDS:
                    assert premet_weight_set(mu) <= plam


@pytest.mark.parametrize("name", ["A2", "C2", "B3"])
def test_weight_set_of_a_sum_is_the_sum_of_weight_sets(name):
    datum = parse_group(name)
    rng = random.Random(8)
    doms = [w for w in oh.enumerate_dominant_by_sum(datum, 2) if not w.is_zero]
    for _ in range(4):
        lam, mu = rng.choice(doms), rng.choice(doms)
        sums = {
            tuple(a + b for a, b in zip(x, y))
            for x in premet_weight_set(lam)
            for y in premet_weight_set(mu)
        }
        assert premet_weight_set(lam + mu) == sums


def test_dimension_bound_rejection():
    a2 = build_root_datum("A", 2)
    with pytest.raises(ResourceLimitError) as err:
        freudenthal_multiplicities(a2.weight((2, 2)), dim_bound=10)
    assert "27" in str(err.value)


def test_dimension_bound_above_the_ceiling_rejected_before_any_kernel():
    lam = build_root_datum("E", 8).rho  # dimension 2^120
    before = kernels.module_walk.cache_info()
    with pytest.raises(ResourceLimitError, match="exceeds the largest module dimension"):
        freudenthal_multiplicities(lam, dim_bound=kernels.DEFAULT_DIM_BOUND + 1)
    assert kernels.module_walk.cache_info() == before


def test_premet_orbit_bound_rejection():
    e7 = build_root_datum("E", 7)
    with pytest.raises(ResourceLimitError):
        premet_weight_set(e7.rho, orbit_bound=1000)


@pytest.mark.parametrize(
    "name,coords", [("A3", (2, 0, 1)), ("B3", (0, 1, 0)), ("G2", (1, 0)), ("A2", (2, 2))]
)
def test_premet_orbit_bound_is_exact(name, coords):
    # Zero coordinates give the dominant weights stabilizers, so the bound
    # counts |W| / |W_J| per dominant weight; the set's own size must pass.
    # In A2 (2, 2) the dominant weights (2, 2) and (1, 1) share a support.
    datum = parse_group(name)
    lam = datum.weight(coords)
    expected = oh.weight_set_oracle(datum, coords)
    size = len(expected)
    assert premet_weight_set(lam, orbit_bound=size) == expected
    with pytest.raises(ResourceLimitError):
        premet_weight_set(lam, orbit_bound=size - 1)


def test_validity_note_is_attached():
    c2 = build_root_datum("C", 2)
    ms = freudenthal_multiplicities(c2.fundamental_weight(1))
    assert "p=0 or p>e(G)=2" in ms.validity
    assert "characteristic-0" in ms.validity


# The multiplicities and the weight set of one module share its closure and
# orbit index through kernels.module_walk, a memo of one module.


@pytest.fixture
def cold_walk():
    kernels.module_walk.cache_clear()
    yield
    kernels.module_walk.cache_clear()


def record_calls(monkeypatch, name):
    """The second argument of every later call to kernels.<name>, checking
    at each call that the memo holds at most one module."""
    calls, fn = [], getattr(kernels, name)

    def recording(datum, arg):
        calls.append(arg)
        assert kernels.module_walk.cache_info().currsize <= 1
        return fn(datum, arg)

    monkeypatch.setattr(kernels, name, recording)
    return calls


def test_multiplicities_then_weight_set_walk_the_module_once(monkeypatch, cold_walk):
    walks = record_calls(monkeypatch, "orbit_expand")
    b2 = build_root_datum("B", 2)
    lam, other = b2.weight((1, 1)), parse_group("G2").weight((1, 0))
    ms = freudenthal_multiplicities(lam)
    assert premet_weight_set(lam) == ms.support()
    assert [doms[0] for doms in walks] == [(1, 1)]
    # Another module in between takes the one slot, so lam is walked again.
    freudenthal_multiplicities(other)
    assert premet_weight_set(lam) == ms.support()
    assert [doms[0] for doms in walks] == [(1, 1), (1, 0), (1, 1)]
    assert kernels.module_walk.cache_info().currsize == 1


def test_a_warm_weight_set_runs_no_second_closure(monkeypatch, cold_walk):
    closures = record_calls(monkeypatch, "dominant_subdominants")
    lam = build_root_datum("C", 3).weight((2, 1, 1))
    freudenthal_multiplicities(lam)
    premet_weight_set(lam)
    assert closures == [(2, 1, 1)]


@pytest.mark.parametrize("name,coords", [("A3", (2, 0, 1)), ("B3", (0, 1, 0)), ("G2", (1, 1))])
def test_answers_and_rejections_do_not_depend_on_call_history(name, coords, cold_walk):
    datum = parse_group(name)
    lam = datum.weight(coords)
    cold_set = premet_weight_set(lam)
    kernels.module_walk.cache_clear()
    cold_counts = freudenthal_multiplicities(lam).counts
    assert premet_weight_set(lam) == cold_set == frozenset(cold_counts)
    # A warm memo skips the walk, not the bounds checked before it.
    with pytest.raises(ResourceLimitError):
        premet_weight_set(lam, orbit_bound=len(cold_set) - 1)
    premet_weight_set(lam)
    with pytest.raises(ResourceLimitError):
        freudenthal_multiplicities(lam, dim_bound=weyl_dimension(lam) - 1)
    assert freudenthal_multiplicities(lam).counts == cold_counts
