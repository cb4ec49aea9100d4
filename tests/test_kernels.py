"""The kernels in `liespectra.kernels`, each checked against an independent
oracle in `oracle_helpers`: Kostant's multiplicity formula, the dominant part
of the saturated weight set, and a breadth-first orbit search.  The
`*_backends_agree` tests compare a kernel with its oracle on fixed cases; the
Hypothesis properties compare the orbit walk with the breadth-first search on
drawn weights, and one walk over several dominant starts with the union of
their orbits."""

import pytest
from hypothesis import given, settings, strategies as st

import oracle_helpers as oh
from liespectra import build_root_datum, parse_group
from liespectra import kernels
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
    expected = {w: k for k, d in enumerate(doms) for w in oh.weyl_orbit_oracle(datum, d)}
    assert kernels.orbit_expand(datum, doms) == expected
    assert index == expected


@pytest.mark.parametrize("name,lam", CASES)
def test_subdominant_backends_agree(name, lam):
    # The kernel's order: height deficit below lam, then lexicographic.
    datum = parse_group(name)
    got = kernels.dominant_subdominants(datum, lam)

    def deficit(mu):
        return sum(oh.root_coefficients_oracle(datum, [a - b for a, b in zip(lam, mu)]))

    assert got == sorted(oh.subdominant_oracle(datum, lam), key=lambda mu: (deficit(mu), mu))


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
    datum = parse_group(name)

    @settings(max_examples=5, deadline=None)
    @given(dominant_starts(datum))
    def check(doms):
        weights, owner = kernels.orbits(datum, doms)
        assert len(owner) == len(weights) == len(set(weights))
        assert set(weights) == {w for d in doms for w in oh.weyl_orbit_oracle(datum, d)}
        for w, k in zip(weights, owner):
            assert doms[k] == kernels.dominant_rep(datum, w)[0]

    check()


@pytest.mark.parametrize("doms", [((1, -1),), ((0, 0), (-1, 0)), ((1, 0), (1, 0))])
def test_orbit_walk_rejects_a_non_dominant_or_repeated_start(doms):
    # The walk keeps no seen-set: from a non-dominant root it lists a wrong
    # set of weights, and a repeated root lists its orbit twice.
    a2 = parse_group("A2")
    with pytest.raises(ValueError):
        kernels.orbits(a2, doms)
