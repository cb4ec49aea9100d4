"""Kernel agreement: each kernel in `liespectra.kernels` is checked against an
independent second implementation in `oracle_helpers` (Kostant's
multiplicity formula, the dominant part of the saturated weight set, and a
breadth-first orbit search).  The `*_backends_agree` tests compare the two on
fixed cases; the Hypothesis property compares the orbit walk with the
breadth-first search on drawn weights."""

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


def _args(datum, lam):
    return (
        datum.rank,
        datum.simple_root_coords,
        tuple(r.coords for r in datum.positive_roots),
        datum.coroot_pairings,
        datum.root_half_lengths,
        datum.cartan_t_adj,
        datum.cartan_det,
        datum.form_scaled,
        datum.form_denominator,
        lam,
    )


@pytest.mark.parametrize("name,lam", CASES)
def test_freudenthal_backends_agree(name, lam):
    datum = parse_group(name)
    doms, mults = kernels.freudenthal(*_args(datum, lam))
    assert mults == [oh.kostant_multiplicity(datum, lam, mu) for mu in doms]


@pytest.mark.parametrize("name,lam", CASES)
def test_orbit_backends_agree(name, lam):
    datum = parse_group(name)
    n, alpha = datum.rank, datum.simple_root_coords
    for start in (lam, tuple(-x for x in lam)):
        assert kernels.weyl_orbit(n, alpha, start) == oh.weyl_orbit_oracle(n, alpha, start)


@pytest.mark.parametrize("name,lam", CASES)
def test_orbit_expand_backends_agree(name, lam):
    datum = parse_group(name)
    n, alpha = datum.rank, datum.simple_root_coords
    doms, mults = kernels.freudenthal(*_args(datum, lam))
    expected = {w: m for d, m in zip(doms, mults) for w in oh.weyl_orbit_oracle(n, alpha, d)}
    assert kernels.orbit_expand(n, alpha, doms, mults) == expected


@pytest.mark.parametrize("name,lam", CASES[:4])
def test_subdominant_backends_agree(name, lam):
    # The kernel's order: height deficit below lam, then lexicographic.
    datum = parse_group(name)
    got = kernels.dominant_subdominants(
        datum.rank, datum.simple_root_coords,
        tuple(r.coords for r in datum.positive_roots),
        datum.cartan_t_adj, datum.cartan_det, lam,
    )

    def deficit(mu):
        return sum(oh.root_coefficients_oracle(datum, [a - b for a, b in zip(lam, mu)]))

    assert got == sorted(oh.subdominant_oracle(datum, lam), key=lambda mu: (deficit(mu), mu))


def test_oversized_inputs_route_to_the_pure_backend():
    a1 = build_root_datum("A", 1)
    doms, mults = kernels.freudenthal(*_args(a1, (6000,)))
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
    n, alpha = datum.rank, datum.simple_root_coords

    @settings(max_examples=10, deadline=None)
    @given(small_orbit_weights(datum))
    def check(coords):
        orbit = kernels.weyl_orbit(n, alpha, coords)
        expected = oh.weyl_orbit_oracle(n, alpha, coords)
        assert orbit == expected
        assert len(set(kernels._orbit(n, alpha, coords))) == len(orbit)
        assert len(orbit) == orbit_size(datum.weight(coords))
        zero = (0,) * n
        expanded = kernels.orbit_expand(n, alpha, (coords, zero), (2, 1))
        assert expanded == {**dict.fromkeys(expected, 2), zero: 1}

    check()


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_regular_orbit_lists_every_element_once(name):
    # rho has a trivial stabilizer, so every child rule of the walk is used:
    # a duplicate or a missed element changes the count or the set.
    datum = parse_group(name)
    n, alpha = datum.rank, datum.simple_root_coords
    orbit = kernels._orbit(n, alpha, (1,) * n)
    assert len(orbit) == datum.weyl_order()
    assert sorted(orbit) == oh.weyl_orbit_oracle(n, alpha, (1,) * n)
