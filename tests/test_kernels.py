"""Backend agreement: the compiled kernels must reproduce the pure-Python
twin bit for bit, and the pure orbit walk must reproduce the breadth-first
oracle."""

import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig

import pytest
from hypothesis import given, settings, strategies as st

import oracle_helpers as oh
from liespectra import build_root_datum, parse_group
from liespectra import _kernels_py as pure
from liespectra import kernels
from liespectra.weights import orbit_size

SOURCE = os.path.join(os.path.dirname(pure.__file__), "_kernels_c.c")


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled twin, built from the committed C source into a temp dir
    with the system C compiler and loaded without touching kernels.BACKEND.

    Skips when there is no compiler or no Python.h; a failed compile is an
    error."""
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    include = sysconfig.get_paths()["include"]
    if cc is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or no Python.h to build the compiled kernels")
    name = "liespectra._kernels_c"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    path = str(tmp_path_factory.mktemp("kernels") / f"_kernels_c{suffix}")
    build = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", f"-I{include}", SOURCE, "-o", path],
        capture_output=True, text=True,
    )
    if build.returncode:
        raise RuntimeError(f"compiling {SOURCE} failed:\n{build.stderr}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


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
def test_freudenthal_backends_agree(compiled, name, lam):
    datum = parse_group(name)
    doms_p, mults_p = pure.freudenthal(*_args(datum, lam))
    doms_c, mults_c = compiled.freudenthal(*_args(datum, lam))
    assert [tuple(d) for d in doms_p] == [tuple(d) for d in doms_c]
    assert list(mults_p) == list(mults_c)


@pytest.mark.parametrize("name,lam", CASES)
def test_orbit_backends_agree(compiled, name, lam):
    datum = parse_group(name)
    for start in (lam, tuple(-x for x in lam)):
        got_p = pure.weyl_orbit(datum.rank, datum.simple_root_coords, start)
        got_c = compiled.weyl_orbit(datum.rank, datum.simple_root_coords, start)
        assert [tuple(t) for t in got_p] == [tuple(t) for t in got_c]


@pytest.mark.parametrize("name,lam", CASES)
def test_orbit_expand_backends_agree(compiled, name, lam):
    datum = parse_group(name)
    doms, mults = pure.freudenthal(*_args(datum, lam))
    got_p = pure.orbit_expand(datum.rank, datum.simple_root_coords, doms, mults)
    got_c = compiled.orbit_expand(datum.rank, datum.simple_root_coords, doms, mults)
    assert {tuple(w): m for w, m in got_c.items()} == got_p


@pytest.mark.parametrize("name,lam", CASES[:4])
def test_subdominant_backends_agree(compiled, name, lam):
    datum = parse_group(name)
    a = pure.dominant_subdominants(
        datum.rank, datum.simple_root_coords,
        tuple(r.coords for r in datum.positive_roots),
        datum.cartan_t_adj, datum.cartan_det, lam,
    )
    b = compiled.dominant_subdominants(
        datum.rank, datum.simple_root_coords,
        tuple(r.coords for r in datum.positive_roots),
        datum.cartan_t_adj, datum.cartan_det, lam,
    )
    assert [tuple(t) for t in a] == [tuple(t) for t in b]


def test_oversized_inputs_route_to_the_pure_backend():
    a1 = build_root_datum("A", 1)
    big = (6000,)
    assert not kernels._fits_compiled(big, 1)
    # The dispatcher must still produce a correct answer.
    doms, mults = kernels.freudenthal(*_args(a1, big))
    assert len(doms) == 3001
    assert set(mults) == {1}


def test_backend_name_is_reported():
    assert kernels.BACKEND in ("compiled", "pure")


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
        assert len(set(pure._orbit(n, alpha, coords))) == len(orbit)
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
    orbit = pure._orbit(n, alpha, (1,) * n)
    assert len(orbit) == datum.weyl_order()
    assert sorted(orbit) == oh.weyl_orbit_oracle(n, alpha, (1,) * n)
