import math
import random

import pytest

import oracle_helpers as oh
import liespectra.weights as weights_module
from liespectra import (
    DatumMismatchError,
    ResourceLimitError,
    build_root_datum,
    dominance_compare,
    dominant_representative,
    is_minuscule,
    is_radical,
    level_sets,
    minimal_nonzero_subdominant,
    parse_group,
    subdominant_weights,
    weight_level,
    weyl_orbit,
)
from liespectra.weights import Dominance, orbit_size
from liespectra.mult import premet_weight_set
from liespectra.rootdata import SUPPORTED_RANGES, RootDatum


def coords_set(weights):
    return {w.coords for w in weights}


def test_dominance_examples():
    a2 = build_root_datum("A", 2)
    two_w1 = a2.weight((2, 0))
    w2 = a2.fundamental_weight(2)
    assert dominance_compare(two_w1, w2) is Dominance.FIRST_SUCCEEDS  # diff = alpha_1
    assert dominance_compare(w2, two_w1) is Dominance.SECOND_SUCCEEDS
    assert dominance_compare(w2, w2) is Dominance.EQUAL
    assert dominance_compare(a2.fundamental_weight(1), w2) is Dominance.INCOMPARABLE


def test_dominance_rejects_mixed_data():
    a2, a3 = build_root_datum("A", 2), build_root_datum("A", 3)
    with pytest.raises(DatumMismatchError):
        dominance_compare(a2.rho, a3.fundamental_weight(1))


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_dominance_is_a_strict_partial_order(name):
    datum = parse_group(name)
    rng = random.Random(11)
    pool = [
        datum.weight(tuple(rng.randrange(-3, 4) for _ in range(datum.rank)))
        for _ in range(30)
    ]
    for w in pool:
        assert dominance_compare(w, w) is Dominance.EQUAL
    for _ in range(150):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ab = dominance_compare(a, b)
        # Antisymmetry against the oracle.
        if ab is Dominance.FIRST_SUCCEEDS:
            assert oh.leq_oracle(datum, b.coords, a.coords) and a != b
            assert dominance_compare(b, a) is Dominance.SECOND_SUCCEEDS
        # Transitivity.
        if (
            ab is Dominance.FIRST_SUCCEEDS
            and dominance_compare(b, c) is Dominance.FIRST_SUCCEEDS
        ):
            assert dominance_compare(a, c) is Dominance.FIRST_SUCCEEDS


def test_is_radical():
    b3 = build_root_datum("B", 3)
    assert is_radical(b3.fundamental_weight(2))
    assert not is_radical(b3.fundamental_weight(3))
    assert is_radical(b3.zero())


def test_dominant_representative_examples():
    a2 = build_root_datum("A", 2)
    w1 = a2.fundamental_weight(1)
    rep, word = dominant_representative(w1)
    assert rep == w1 and word == ()

    mu = a2.weight((-1, 1))  # s_1(omega_1)
    rep, word = dominant_representative(mu)
    assert rep.coords == oh.dominant_rep_oracle(a2, mu.coords)
    # Applying the word reproduces the representative.
    cur = mu.coords
    for i in word:
        cur = oh.reflect(a2, cur, i)
    assert cur == rep.coords

    b2 = build_root_datum("B", 2)
    mu = b2.weight((0, -1))
    rep, _ = dominant_representative(mu)
    assert rep.coords == oh.dominant_rep_oracle(b2, mu.coords)


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "D4", "G2"])
def test_dominant_representative_random(name):
    datum = parse_group(name)
    rng = random.Random(5)
    for _ in range(20):
        mu = datum.weight(tuple(rng.randrange(-3, 4) for _ in range(datum.rank)))
        rep, word = dominant_representative(mu)
        assert rep.coords == oh.dominant_rep_oracle(datum, mu.coords)
        cur = mu.coords
        for i in word:
            assert cur[i] < 0 and all(c >= 0 for c in cur[:i])  # first negative coordinate
            cur = oh.reflect(datum, cur, i)
        assert cur == rep.coords


def test_weyl_orbit_examples():
    a2 = build_root_datum("A", 2)
    assert coords_set(weyl_orbit(a2.fundamental_weight(1))) == {(1, 0), (-1, 1), (0, -1)}
    assert coords_set(weyl_orbit(a2.zero())) == {(0, 0)}

    b3 = build_root_datum("B", 3)
    orbit = weyl_orbit(b3.fundamental_weight(3))
    assert len(orbit) == 8
    from fractions import Fraction
    from liespectra import epsilon_values

    eps = {epsilon_values(b3, w) for w in orbit}
    half = Fraction(1, 2)
    assert eps == {
        (sx * half, sy * half, sz * half)
        for sx in (1, -1)
        for sy in (1, -1)
        for sz in (1, -1)
    }


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_orbits_partition_and_have_one_dominant_member(name):
    datum = parse_group(name)
    rng = random.Random(3)
    for _ in range(10):
        mu = datum.weight(tuple(rng.randrange(-2, 3) for _ in range(datum.rank)))
        nu = datum.weight(tuple(rng.randrange(-2, 3) for _ in range(datum.rank)))
        o1, o2 = coords_set(weyl_orbit(mu)), coords_set(weyl_orbit(nu))
        assert o1 == o2 or not (o1 & o2)
        assert sum(1 for c in o1 if all(x >= 0 for x in c)) == 1
        assert datum.weyl_order() % len(o1) == 0
        assert o1 == oh.orbit_oracle(datum, mu.coords)


def test_orbit_safety_bound():
    b3 = build_root_datum("B", 3)
    with pytest.raises(ResourceLimitError) as err:
        weyl_orbit(b3.fundamental_weight(3), bound=3)
    assert "3" in str(err.value)
    # A regular E8 orbit is rejected from the size formula, without enumeration.
    e8 = build_root_datum("E", 8)
    assert orbit_size(e8.rho) == 696729600
    with pytest.raises(ResourceLimitError):
        weyl_orbit(e8.rho)


def test_subdominant_examples():
    a2 = build_root_datum("A", 2)
    assert coords_set(subdominant_weights(a2.weight((1, 1)))) == {(1, 1), (0, 0)}
    c2 = build_root_datum("C", 2)
    assert coords_set(subdominant_weights(c2.fundamental_weight(2))) == {(0, 1), (0, 0)}
    d5 = build_root_datum("D", 5)
    w5 = d5.fundamental_weight(5)  # minuscule
    assert coords_set(subdominant_weights(w5)) == {w5.coords}
    with pytest.raises(ValueError):
        subdominant_weights(a2.weight((-1, 0)))


@pytest.mark.parametrize(
    "name,coords",
    [
        ("A2", (2, 2)),
        ("A3", (1, 1, 1)),
        ("B2", (1, 1)),
        ("B3", (0, 1, 1)),
        ("C3", (2, 0, 1)),
        ("D4", (1, 0, 1, 1)),
        ("G2", (1, 1)),
        ("F4", (1, 0, 0, 1)),
    ],
)
def test_subdominants_match_the_simple_root_closure_oracle(name, coords):
    datum = parse_group(name)
    lam = datum.weight(coords)
    assert coords_set(subdominant_weights(lam)) == oh.subdominant_oracle(datum, coords)


def test_minimal_nonzero_subdominant():
    b3 = build_root_datum("B", 3)
    assert coords_set(minimal_nonzero_subdominant(b3.fundamental_weight(2))) == {(1, 0, 0)}
    c2 = build_root_datum("C", 2)
    assert coords_set(minimal_nonzero_subdominant(c2.weight((2, 0)))) == {(0, 1)}
    d5 = build_root_datum("D", 5)
    assert minimal_nonzero_subdominant(d5.fundamental_weight(5)) == ()
    with pytest.raises(ValueError):
        minimal_nonzero_subdominant(c2.zero())


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_minimal_nonzero_subdominant_matches_the_definition(name):
    # Every nonzero dominant weight of coordinate sum <= 3 (<= 4 at rank <= 3).
    datum = parse_group(name)
    top = 4 if datum.rank <= 3 else 3
    for lam in oh.enumerate_dominant_by_sum(datum, top)[1:]:
        expected = oh.minimal_nonzero_subdominant_oracle(
            datum, lam.coords, coords_set(subdominant_weights(lam)))
        assert [m.coords for m in minimal_nonzero_subdominant(lam)] == expected, lam


def test_weight_level_examples():
    c4 = build_root_datum("C", 4)
    assert weight_level(c4.fundamental_weight(1)) == 1
    assert weight_level(c4.fundamental_weight(2)) == 2
    assert weight_level(c4.fundamental_weight(4)) == 3
    b3 = build_root_datum("B", 3)
    assert weight_level(b3.fundamental_weight(1)) == 2
    assert weight_level(b3.zero()) == 1
    a1 = build_root_datum("A", 1)
    assert weight_level(a1.weight((2,))) == 2
    assert weight_level(a1.weight((3,))) == 2


def test_weight_level_of_long_chains_matches_the_closed_form():
    # A1:[k] lies above k-2, k-4, ..., k mod 2: level floor(k/2) + 1.  The
    # top weight goes first, so its chain of 1500 levels is walked in one call.
    a1 = build_root_datum("A", 1)
    assert weight_level(a1.weight((3000,))) == 1501
    for k in range(3001):
        assert weight_level(a1.weight((k,))) == k // 2 + 1


@pytest.mark.parametrize("name,bound", [("A2", 4), ("B2", 4), ("B3", 2), ("C3", 2), ("G2", 3), ("D4", 2)])
def test_weight_level_matches_chain_oracle(name, bound):
    datum = parse_group(name)
    for lam in oh.enumerate_dominant_by_sum(datum, bound):
        assert weight_level(lam) == oh.level_oracle(datum, lam.coords)


def test_is_minuscule():
    d5 = build_root_datum("D", 5)
    assert is_minuscule(d5.fundamental_weight(4))
    assert is_minuscule(d5.fundamental_weight(5))
    b3 = build_root_datum("B", 3)
    assert not is_minuscule(b3.fundamental_weight(1))
    assert not is_minuscule(b3.zero())
    # Minuscule means the orbit is the whole weight set.
    w5 = d5.fundamental_weight(5)
    assert {w.coords for w in weyl_orbit(w5)} == premet_weight_set(w5)


MINUSCULE_GROUPS = ([f"A{r}" for r in range(1, 7)] + [f"B{r}" for r in range(2, 7)]
                    + [f"C{r}" for r in range(3, 7)] + ["D4", "D5", "D6", "E6", "F4", "G2"])


@pytest.mark.parametrize("name", MINUSCULE_GROUPS)
def test_is_minuscule_agrees_with_level_one(name):
    datum = parse_group(name)
    for lam in oh.enumerate_dominant_by_sum(datum, 3):
        assert is_minuscule(lam) == (not lam.is_zero and weight_level(lam) == 1), lam


def test_is_minuscule_computes_no_level(monkeypatch):
    def fail(lam):
        raise AssertionError("weight_level was called")

    monkeypatch.setattr(weights_module, "weight_level", fail)
    e8 = RootDatum("E", 8)
    assert not is_minuscule(e8.weight((1,) * 8))
    assert is_minuscule(parse_group("E7").fundamental_weight(7))
    assert not e8._levels
    # The highest coroot decides, so the level layer's step table stays unbuilt.
    assert e8._level_steps is None
    d32 = RootDatum("D", 32)
    assert [is_minuscule(d32.fundamental_weight(i)) for i in (1, 2, 31, 32)] == [
        True, False, True, True]
    assert d32._level_steps is None


def test_level_sets_examples():
    a3 = build_root_datum("A", 3)
    got = {1: set(), 2: set()}
    for a in level_sets(a3, 2, 6):
        got[a.level].add(a.weight.coords)
    assert got[1] == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert got[2] == {(2, 0, 0), (0, 0, 2), (1, 0, 1), (1, 1, 0), (0, 1, 1)}

    c2 = build_root_datum("C", 2)
    got = {1: set(), 2: set()}
    for a in level_sets(c2, 2, 6):
        got[a.level].add(a.weight.coords)
    assert got[1] == {(0, 0), (1, 0)}
    assert got[2] == {(0, 1), (1, 1)}

    d4 = build_root_datum("D", 4)
    got2 = {
        a.weight.coords for a in level_sets(d4, 2, 6) if a.level == 2
    }
    assert got2 == {(0, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)}


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_level_sets_list_the_exact_levels_up_to_the_maximum(name):
    # level_sets lists only coordinate sums up to 1 + 2 (max_level - 1) and
    # searches each level only up to max_level + 1, on a fresh datum, and
    # none of those capped values enters the exact memo.  The oracle is the
    # exact level over the uncut listing, at max levels 1-5 and every bound
    # up to 8 that lists at most 20,000 weights.
    datum = RootDatum(name[0], int(name[1:]))
    n = datum.rank
    bounds = [b for b in range(9) if math.comb(b + n, n) <= 20_000]
    got = {(m, b): [(a.weight, a.level) for a in level_sets(datum, m, b)]
           for m in range(1, 6) for b in bounds}
    assert not datum._levels
    exact = [(w, weight_level(w)) for w in oh.enumerate_dominant_by_sum(datum, bounds[-1])]
    for (m, b), listed in got.items():
        assert listed == [(w, lvl) for w, lvl in exact if lvl <= m and sum(w.coords) <= b], (m, b)
    # One memo under caps 1-5 in a shuffled order, so lower bounds found
    # under one cap are read under others.
    rng = random.Random(name)
    queries = [(w, lvl, rng.randint(1, 5)) for w, lvl in exact if sum(w.coords) <= 4
               for _ in range(2)]
    rng.shuffle(queries)
    steps, known = weights_module._level_steps(datum), {}
    for w, lvl, cap in queries:
        assert weights_module._capped_level(steps, known, w.coords, cap) == min(lvl, cap), w


def test_the_level_sets_cut_holds_on_every_supported_type():
    # The cut 1 + c (max_level - 1) rests on two facts: every positive root
    # has coordinate sum <= c = 2, and no dominant weight of coordinate sum 2
    # has level 1 (some positive-root step leaves it dominant).  With the
    # minuscule weights being fundamental weights, level 1 holds only sums
    # <= 1.
    types = [(family, rank) for family, (lo, hi) in SUPPORTED_RANGES.items()
             for rank in range(lo, hi + 1)]
    assert len(types) == 128
    for family, rank in types:
        datum = build_root_datum(family, rank)
        assert max(map(sum, datum.positive_root_coords)) == 2, datum.name
        steps = weights_module._level_steps(datum)
        for w in oh.enumerate_dominant_by_sum(datum, 2):
            if sum(w.coords) == 2:
                assert weights_module._steps_mask(w.coords, steps), w


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4"])
def test_every_level_below_is_represented_in_the_weight_set(name):
    # A module of level i has subdominant weights of every level j < i.
    datum = parse_group(name)
    for lam in oh.enumerate_dominant_by_sum(datum, 3):
        lvl = weight_level(lam)
        levels_below = {weight_level(m) for m in subdominant_weights(lam)}
        assert set(range(1, lvl + 1)) == levels_below


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_radical_and_nonradical_structure(name):
    datum = parse_group(name)
    for lam in oh.enumerate_dominant_by_sum(datum, 3):
        if lam.is_zero:
            continue
        subs = subdominant_weights(lam)
        if is_radical(lam):
            # The highest short root appears among the subdominant weights.
            assert datum.highest_short_root in subs
        else:
            assert any(is_minuscule(m) for m in subs)
