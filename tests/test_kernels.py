"""The kernels in `liespectra.kernels`, each checked against an independent
oracle in `oracle_helpers`: Kostant's multiplicity formula, the dominant part
of the saturated weight set, and a breadth-first orbit search.  The
`*_backends_agree` tests compare a kernel with its oracle on fixed cases; the
Hypothesis properties compare the orbit walk with the breadth-first search on
drawn weights, and one expansion over several dominant starts with the union
of their orbits.  The per-support orbit templates are checked on every type
of rank <= 8: their coroot classes on every support, their expansions
against the breadth-first orbits of small modules and small supports, and
the slot-major fill against one expansion per weight.  The norms the closure
carries are checked against Fractions in the epsilon-realization."""

import subprocess
import sys
from fractions import Fraction
from itertools import compress, product

import pytest
from hypothesis import given, settings, strategies as st

import oracle_helpers as oh
from liespectra import build_root_datum, parse_group
from liespectra import kernels
from liespectra.rootdata import RootDatum
from liespectra.verify import enumerate_modules
from liespectra.weights import orbit_size

CASES = [
    ("A1", (5,)),
    ("A2", (3, 2)),
    ("A3", (1, 1, 1)),
    ("B3", (2, 0, 1)),
    ("C4", (1, 0, 1, 0)),
    ("D4", (0, 1, 0, 1)),
    ("G2", (2, 1)),
    ("F4", (1, 0, 0, 0)),
]


def oracle_index(datum, doms):
    """{weight: k} over the breadth-first orbits of the dominant doms[k]."""
    return {w: k for k, d in enumerate(doms) for w in oh.weyl_orbit_oracle(datum, d)}


@pytest.mark.parametrize("name,lam", CASES)
def test_freudenthal_backends_agree(name, lam):
    datum = parse_group(name)
    doms, mults, _ = kernels.freudenthal(datum, lam)
    assert mults == [oh.kostant_multiplicity(datum, lam, mu) for mu in doms]


@pytest.mark.parametrize("name,lam", CASES)
def test_orbit_backends_agree(name, lam):
    datum = parse_group(name)
    for start in (lam, tuple(-x for x in lam)):
        assert kernels.weyl_orbit(datum, start) == oh.weyl_orbit_oracle(datum, start)


@pytest.mark.parametrize("name,lam", CASES)
def test_orbit_expand_backends_agree(name, lam):
    datum = parse_group(name)
    doms, _, index = kernels.freudenthal(datum, lam)
    expected = oracle_index(datum, doms)
    assert kernels.orbit_expand(datum, doms) == expected
    assert index == expected


@pytest.mark.parametrize("name,lam", CASES)
def test_subdominant_backends_agree(name, lam):
    # The kernel's order: height deficit below lam, then lexicographic.
    datum = parse_group(name)
    got, _ = kernels.dominant_subdominants(datum, lam)

    def deficit(mu):
        return sum(oh.root_coefficients_oracle(datum, [a - b for a, b in zip(lam, mu)]))

    assert got == sorted(oh.subdominant_oracle(datum, lam), key=lambda mu: (deficit(mu), mu))


def test_freudenthal_refuses_a_dominant_weight_of_multiplicity_zero(monkeypatch):
    # Every dominant weight below lam has multiplicity >= 1 in characteristic
    # 0.  Slip (1,), which is not a weight of the A1 module L(2), into the
    # closure, with its true norm |(1) + rho|^2 = 2, or 4 in form_scaled
    # units: its recursion sums to 0, and the kernel must not report it.
    a1 = build_root_datum("A", 1)
    closure = kernels.dominant_subdominants

    def slipped(datum, lam):
        doms, norms = closure(datum, lam)
        return doms + [(1,)], norms + [4]

    monkeypatch.setattr(kernels, "dominant_subdominants", slipped)
    kernels.module_walk.cache_clear()
    try:
        with pytest.raises(AssertionError, match="not a positive integer"):
            kernels.freudenthal(a1, (2,))
    finally:
        kernels.module_walk.cache_clear()


def test_a1_6000_has_3001_dominant_weights_all_of_multiplicity_one():
    a1 = build_root_datum("A", 1)
    doms, mults, _ = kernels.freudenthal(a1, (6000,))
    assert len(doms) == 3001
    assert set(mults) == {1}


def test_backend_name_is_reported():
    assert kernels.BACKEND == "pure"


ORBIT_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C2", "C3", "C4",
    "C5", "D4", "D5", "D6", "E6", "E7", "F4", "G2",
]
ORBIT_LIMIT = 50_000


@st.composite
def small_orbit_weights(draw, datum):
    """Coordinates in -3..3, zeroed from the last one down until the orbit
    has at most ORBIT_LIMIT weights."""
    coords = draw(st.lists(st.integers(-3, 3), min_size=datum.rank, max_size=datum.rank))
    k = datum.rank
    while orbit_size(datum.weight(coords)) > ORBIT_LIMIT:
        k -= 1
        coords[k] = 0
    return tuple(coords)


@pytest.mark.parametrize("name", ORBIT_TYPES)
def test_orbit_walk_matches_the_breadth_first_oracle(name):
    datum = parse_group(name)

    @settings(max_examples=10, deadline=None)
    @given(small_orbit_weights(datum))
    def check(coords):
        orbit = kernels.weyl_orbit(datum, coords)
        expected = oh.weyl_orbit_oracle(datum, coords)
        # The oracle lists each weight once, so a repeat in the walk fails here.
        assert orbit == expected
        assert len(orbit) == orbit_size(datum.weight(coords))
        zero = (0,) * datum.rank
        dom = kernels.dominant_rep(datum, coords)[0]
        doms = (dom, zero) if any(dom) else (zero,)
        expanded = kernels.orbit_expand(datum, doms)
        assert expanded == {**dict.fromkeys(expected, 0), zero: len(doms) - 1}

    check()


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_regular_orbit_lists_every_element_once(name):
    # rho has a trivial stabilizer, so every child rule of the walk is used:
    # a duplicate or a missed element changes the count or the set.
    datum = parse_group(name)
    rho = (1,) * datum.rank
    orbit = kernels.weyl_orbit(datum, rho)
    assert len(orbit) == datum.weyl_order()
    assert orbit == oh.weyl_orbit_oracle(datum, rho)


ORBITS_LIMIT = 5_000


@st.composite
def dominant_starts(draw, datum):
    """One to four distinct dominant weights with coordinates in 0..2, each
    zeroed from the last coordinate down until its orbit has at most
    ORBITS_LIMIT weights."""
    starts = []
    for _ in range(draw(st.integers(1, 4))):
        coords = draw(st.lists(st.integers(0, 2), min_size=datum.rank, max_size=datum.rank))
        k = datum.rank
        while orbit_size(datum.weight(coords)) > ORBITS_LIMIT:
            k -= 1
            coords[k] = 0
        starts.append(tuple(coords))
    return tuple(dict.fromkeys(starts))


@pytest.mark.parametrize("name", ORBIT_TYPES)
def test_one_walk_lists_the_union_of_the_orbits(name):
    # One orbit_expand call over several starts, some of one support, so one
    # template fills in several orbits.
    datum = parse_group(name)

    @settings(max_examples=5, deadline=None)
    @given(dominant_starts(datum))
    def check(doms):
        assert kernels.orbit_expand(datum, doms) == oracle_index(datum, doms)

    check()


@pytest.mark.parametrize("doms", [((1, -1),), ((0, 0), (-1, 0)), ((1, 0), (1, 0))])
def test_orbit_walk_rejects_a_non_dominant_or_repeated_start(doms):
    # The walk keeps no seen-set: from a non-dominant root it lists a wrong
    # set of weights, and a repeated root lists its orbit twice.  Neither is
    # expanded, and no template is built for it.
    a2 = RootDatum("A", 2)
    with pytest.raises(ValueError):
        kernels.orbit_expand(a2, doms)
    assert a2._orbit_templates == {}


def test_walk_orbit_rejects_a_non_dominant_start():
    with pytest.raises(ValueError):
        kernels.walk_orbit(parse_group("A2"), (1, -1))


def fresh_datum(name):
    """A datum outside build_root_datum's cache, so it has no templates yet."""
    return RootDatum(name[0], int(name[1:]))


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_generic_weight_names_every_coroot_class(name):
    # For every support, the pairing of the generic weight with a positive
    # coroot is 0 iff the coroot's coefficients on the support are, and
    # otherwise names those coefficients.  E8 (largest coefficient 6) and G2
    # (3) need the widest digits.
    datum = parse_group(name)
    for support in product((False, True), repeat=datum.rank):
        g, classes = kernels._coroot_classes(datum, support)
        assert all(g[i] > 0 for i in range(datum.rank) if support[i])
        assert not any(g[i] for i in range(datum.rank) if not support[i])
        projections = set()
        for pv in datum.coroot_pairings:
            v = sum(a * b for a, b in zip(g, pv))
            proj = tuple(compress(pv, support))
            if any(proj):
                assert tuple(compress(classes[v], support)) == proj
                projections.add(proj)
            else:
                assert v == 0
        assert len(classes) == len(projections)
        # Slots 0..2c fit in the template's byte columns.
        assert 2 * len(classes) < 256


MODULE_DIM_BOUND = 400


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_orbit_templates_match_the_oracle_on_small_modules(name):
    # Every module of dimension <= MODULE_DIM_BOUND (and E8's 3875), on a
    # datum whose templates are built here: the index of its dominant
    # weights is the union of their breadth-first orbits.
    datum = fresh_datum(name)
    bound = 3875 if name == "E8" else MODULE_DIM_BOUND
    supports = set()
    for lam in (datum.zero(), *enumerate_modules(datum, bound)):
        doms, _ = kernels.dominant_subdominants(datum, lam.coords)
        expected = oracle_index(datum, doms)
        assert kernels.orbit_expand(datum, doms) == expected
        supports.update(tuple(map(bool, d)) for d in doms)
    assert set(datum._orbit_templates) == supports


SUPPORT_ORBIT_LIMIT = 1_000


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_orbit_templates_match_the_oracle_on_every_small_support(name):
    # Every support whose orbits have at most SUPPORT_ORBIT_LIMIT weights,
    # with two dominant weights of different values on it in one call.
    datum = fresh_datum(name)
    n = datum.rank
    for support in product((False, True), repeat=n):
        if not any(support):
            continue
        lo = tuple(1 + i % 3 if s else 0 for i, s in enumerate(support))
        if orbit_size(datum.weight(lo)) > SUPPORT_ORBIT_LIMIT:
            continue
        hi = tuple(c and c + 1 for c in lo)
        doms = (lo, (0,) * n, hi)
        expected = oracle_index(datum, doms)
        assert kernels.orbit_expand(datum, doms) == expected


TEMPLATE_SLOT_LIMIT = 60


# E8's smallest orbit has 240 weights, so it has no support this small.
@pytest.mark.parametrize("name", [name for name in oh.RANK_AT_MOST_8 if name != "E8"])
def test_slot_and_weight_fills_agree_item_for_item(name):
    # A group of more dominant weights of one support than its template has
    # slots is filled slot by slot; a single weight is filled weight by
    # weight.  For every support whose template has at most
    # TEMPLATE_SLOT_LIMIT slots, size + 1 multiples of one dominant weight
    # run the slot fill: its index must hold the breadth-first orbits, and
    # list them in the order of one expansion per weight, dominant-major.
    datum = parse_group(name)
    for support in product((False, True), repeat=datum.rank):
        if not any(support):
            continue
        lo = tuple(1 + i % 3 if s else 0 for i, s in enumerate(support))
        size = orbit_size(datum.weight(lo))
        if size > TEMPLATE_SLOT_LIMIT:
            continue
        doms = [tuple(c * x for x in lo) for c in range(1, size + 2)]
        index = kernels.orbit_expand(datum, doms)
        assert index == oracle_index(datum, doms)
        singles = [(w, k) for k, mu in enumerate(doms) for w in kernels.orbit_expand(datum, [mu])]
        assert list(index.items()) == singles


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_closure_carries_the_norms_of_the_shifted_weights(name):
    # The closure carries |mu + rho|^2 (in form_scaled units) down from lam,
    # one coroot pairing per step, and the Freudenthal denominators are read
    # off it.  On the modules of the template test above, every dominant
    # weight's norm must equal a Fraction computed in the epsilon-realization.
    datum = parse_group(name)
    bound = 3875 if name == "E8" else MODULE_DIM_BOUND
    for lam in (datum.zero(), *enumerate_modules(datum, bound)):
        doms, norms = kernels.dominant_subdominants(datum, lam.coords)
        assert len(norms) == len(doms)
        for mu, q in zip(doms, norms):
            assert Fraction(q, datum.form_denominator) == oh.rho_shifted_norm_oracle(datum, mu)


def test_a_rebuilt_datum_starts_with_no_templates():
    # The templates live on the datum, so emptying the datum cache (as the
    # benchmark's in-process CLI runs do) leaves a rebuilt datum none: no
    # memo keyed by datum identity can hand it a stale template.  A child
    # process, so the suite's cached data stay as they are.
    script = (
        "from liespectra import build_root_datum, kernels\n"
        "g2 = build_root_datum('G', 2)\n"
        "first = kernels.orbit_expand(g2, [(1, 0), (0, 1), (2, 0)])\n"
        "assert set(g2._orbit_templates) == {(True, False), (False, True)}\n"
        "build_root_datum.cache_clear()\n"
        "fresh = build_root_datum('G', 2)\n"
        "assert fresh is not g2 and fresh._orbit_templates == {}\n"
        "assert kernels.orbit_expand(fresh, [(1, 0), (0, 1), (2, 0)]) == first\n"
        "assert set(fresh._orbit_templates) == set(g2._orbit_templates)\n"
    )
    subprocess.run([sys.executable, "-c", script], timeout=60, check=True)


def test_a_module_with_seen_supports_walks_no_orbit(monkeypatch):
    datum = fresh_datum("B3")
    walks, walk = [], kernels.walk_orbit

    def recording(datum, start):
        walks.append(start)
        return walk(datum, start)

    monkeypatch.setattr(kernels, "walk_orbit", recording)
    first, _ = kernels.dominant_subdominants(datum, (0, 0, 2))
    kernels.orbit_expand(datum, first)
    supports = {tuple(map(bool, d)) for d in first}
    assert len(walks) == len(supports)
    second, _ = kernels.dominant_subdominants(datum, (2, 0, 0))
    assert {tuple(map(bool, d)) for d in second} <= supports
    expected = oracle_index(datum, second)
    assert kernels.orbit_expand(datum, second) == expected
    assert len(walks) == len(supports)
