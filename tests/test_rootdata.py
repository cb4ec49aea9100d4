import copy
import itertools
import random
from fractions import Fraction

import pytest

import oracle_helpers as oh
import liespectra.rootdata as rootdata
from liespectra import (
    DatumMismatchError,
    UnsupportedRootSystemError,
    Weight,
    build_root_datum,
    dominance_compare,
    e_constant,
    epsilon_values,
    parse_group,
    weight_from_epsilon,
)
from liespectra.weights import Dominance

POSITIVE_COUNTS = [
    ("A", 1, 1),
    ("A", 2, 3),
    ("A", 5, 15),
    ("B", 2, 4),
    ("B", 4, 16),
    ("C", 3, 9),
    ("D", 4, 12),
    ("D", 6, 30),
    ("E", 6, 36),
    ("E", 7, 63),
    ("E", 8, 120),
    ("F", 4, 24),
    ("G", 2, 6),
]


@pytest.mark.parametrize("family,rank,count", POSITIVE_COUNTS)
def test_positive_root_counts(family, rank, count):
    datum = build_root_datum(family, rank)
    assert len(datum.positive_roots) == count


def test_a1_is_the_rank_one_case():
    a1 = build_root_datum("A", 1)
    assert a1.cartan == ((2,),)
    assert len(a1.positive_roots) == 1
    assert a1.positive_roots[0].coords == (2,)  # alpha_1 = 2*omega_1


def test_g2_highest_roots():
    g2 = build_root_datum("G", 2)
    assert g2.highest_root == g2.fundamental_weight(2)
    assert g2.highest_short_root == g2.fundamental_weight(1)


def test_c3_highest_root_is_twice_omega1():
    c3 = build_root_datum("C", 3)
    assert c3.highest_root.coords == (2, 0, 0)
    assert epsilon_values(c3, c3.highest_root) == (2, 0, 0)


def test_cartan_matrix_conventions():
    # cartan[i][j] = <alpha_j, alpha_i^vee>; alpha_j is column j.
    b2 = build_root_datum("B", 2)
    assert b2.cartan == ((2, -1), (-2, 2))
    c2 = build_root_datum("C", 2)
    assert c2.cartan == ((2, -2), (-1, 2))
    for datum in (b2, c2, build_root_datum("G", 2), build_root_datum("F", 4)):
        for j, alpha in enumerate(datum.simple_roots):
            assert alpha.coords == tuple(datum.cartan[i][j] for i in range(datum.rank))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_form_normalization_and_cartan_recovery(name):
    datum = parse_group(name)
    half_lengths = set()
    for root in datum.positive_roots:
        half_lengths.add(datum.form(root, root))
    assert min(half_lengths) == 2  # short roots have squared length 2
    # Cartan integers recomputed from the form agree with the stored matrix.
    for i, ai in enumerate(datum.simple_roots):
        for j, aj in enumerate(datum.simple_roots):
            val = 2 * datum.form(aj, ai) / datum.form(ai, ai)
            assert val == datum.cartan[i][j]


ORACLE_ATTRIBUTES = ("cartan", "_d", "form_scaled", "form_denominator",
                     "cartan_det", "cartan_t_adj", "epsilon_rows")


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8 + [f"A{n}" for n in range(9, 13)])
def test_datum_matches_the_epsilon_realization_oracle(name):
    # The datum comes from the Dynkin diagram and one integer adjugate; the
    # oracle from the epsilon-realization and a Fraction Gram inverse.
    datum = parse_group(name)
    oracle = oh.root_datum_oracle(datum.family, datum.rank)
    for attr in ORACLE_ATTRIBUTES:
        assert getattr(datum, attr) == getattr(oracle, attr), attr


@pytest.mark.parametrize("name", [n for n in oh.RANK_AT_MOST_8 if n[0] in "ABCD"]
                         + [f"A{n}" for n in range(9, 13)])
def test_epsilon_values_match_the_oracle_realization(name):
    # epsilon_values reads the integer rows; the oracle has the fundamental
    # weights from a Fraction Gram inverse (trace-zero for A).  Checked on
    # every omega_i and on one random integer combination of them.
    datum = parse_group(name)
    fundamental = oh.root_datum_oracle(datum.family, datum.rank).fundamental_epsilon
    for i, x in enumerate(fundamental, 1):
        assert epsilon_values(datum, datum.fundamental_weight(i)) == x, i
    rng = random.Random(name)
    coeffs = [rng.randint(-9, 9) for _ in range(datum.rank)]
    vals = epsilon_values(datum, datum.weight(coeffs))
    assert vals == tuple(sum(c * x[m] for c, x in zip(coeffs, fundamental))
                         for m in range(len(fundamental[0])))
    assert all(type(v) is Fraction for v in vals)


@pytest.mark.parametrize("family,lo", [("A", 1), ("B", 2), ("C", 2), ("D", 4)])
def test_epsilon_rows_are_unit_rows_over_one_or_two(family, lo):
    # On every classical type, rank 32 included: h_i omega_i = sum_j c_ij e_j
    # with h_i in {1, 2} and c_ij in {-1, 0, 1}, h_i = 2 exactly on the spin
    # weights of B and D, and the rows agree with epsilon_values of the
    # fundamental weights (A's shifted off the trace-zero hyperplane by its
    # last coordinate).
    for rank in range(lo, 33):
        datum = build_root_datum(family, rank)
        assert len(datum.epsilon_rows) == rank
        spin = {"A": 0, "B": 1, "C": 0, "D": 2}[family]
        for i, (h, row) in enumerate(datum.epsilon_rows):
            x = epsilon_values(datum, datum.fundamental_weight(i + 1))
            assert h == (2 if i >= rank - spin else 1), (datum.name, i)
            assert set(row) <= {-1, 0, 1}, (datum.name, i)
            shift = x[-1] if family == "A" else 0
            assert row == tuple(h * (c - shift) for c in x), (datum.name, i)
    assert build_root_datum("G", 2).epsilon_rows is None


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_highest_root_dominates_every_positive_root(name):
    datum = parse_group(name)
    for root in datum.positive_roots:
        assert dominance_compare(datum.highest_root, root) in (
            Dominance.EQUAL,
            Dominance.FIRST_SUCCEEDS,
        )
    # The highest short root dominates every short root.
    short = [r for r in datum.positive_roots if datum.form(r, r) == 2]
    assert datum.highest_short_root in short
    for root in short:
        assert dominance_compare(datum.highest_short_root, root) in (
            Dominance.EQUAL,
            Dominance.FIRST_SUCCEEDS,
        ), root


def test_e_constant_values():
    assert e_constant(build_root_datum("A", 5)) == 1
    assert e_constant(build_root_datum("D", 4)) == 1
    assert e_constant(build_root_datum("E", 7)) == 1
    assert e_constant(build_root_datum("B", 3)) == 2
    assert e_constant(build_root_datum("C", 2)) == 2
    assert e_constant(build_root_datum("F", 4)) == 2
    assert e_constant(build_root_datum("G", 2)) == 3


def test_epsilon_values_examples():
    c2 = build_root_datum("C", 2)
    assert epsilon_values(c2, c2.fundamental_weight(2)) == (1, 1)
    b3 = build_root_datum("B", 3)
    assert epsilon_values(b3, b3.fundamental_weight(3)) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )
    a3 = build_root_datum("A", 3)
    # Trace-zero representative of epsilon_1.
    assert epsilon_values(a3, a3.fundamental_weight(1)) == (
        Fraction(3, 4),
        Fraction(-1, 4),
        Fraction(-1, 4),
        Fraction(-1, 4),
    )


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "B2", "C2"])
def test_epsilon_roundtrip(name):
    datum = parse_group(name)
    samples = [
        datum.rho,
        datum.highest_root,
        datum.weight(tuple((i * 7 + 3) % 5 - 2 for i in range(datum.rank))),
    ]
    for mu in samples:
        assert weight_from_epsilon(datum, epsilon_values(datum, mu)) == mu


def _eps_root_patterns(datum):
    out = set()
    for root in datum.positive_roots:
        vec = epsilon_values(datum, root)
        out.add(vec)
        out.add(tuple(-x for x in vec))
    return out


def test_bourbaki_root_sets():
    a2 = build_root_datum("A", 2)
    got = _eps_root_patterns(a2)
    want = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                v = [Fraction(0)] * 3
                v[i], v[j] = Fraction(1), Fraction(-1)
                want.add(tuple(v))
    assert got == want

    b3 = build_root_datum("B", 3)
    got = _eps_root_patterns(b3)
    want = set()
    for i in range(3):
        for s in (1, -1):
            v = [0, 0, 0]
            v[i] = s
            want.add(tuple(map(Fraction, v)))
            for j in range(i + 1, 3):
                for s2 in (1, -1):
                    v = [0, 0, 0]
                    v[i], v[j] = s, s2
                    want.add(tuple(map(Fraction, v)))
    assert got == want

    c2 = build_root_datum("C", 2)
    got = _eps_root_patterns(c2)
    want = {
        (Fraction(2), Fraction(0)), (Fraction(-2), Fraction(0)),
        (Fraction(0), Fraction(2)), (Fraction(0), Fraction(-2)),
        (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(-1)),
        (Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)),
    }
    assert got == want

    d4 = build_root_datum("D", 4)
    got = _eps_root_patterns(d4)
    want = set()
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0, 0, 0, 0]
                    v[i], v[j] = si, sj
                    want.add(tuple(map(Fraction, v)))
    assert got == want


def test_epsilon_rejected_for_exceptional_families():
    g2 = build_root_datum("G", 2)
    with pytest.raises(UnsupportedRootSystemError):
        epsilon_values(g2, g2.rho)
    with pytest.raises(UnsupportedRootSystemError):
        weight_from_epsilon(g2, (1, 0, -1))
    # A vector of the wrong length is rejected before any conversion, rather
    # than raising IndexError (short) or dropping its extra entries (long).
    for name, eps, width in [("A3", (1, 0, 0), 4), ("B3", (1, 0), 3), ("D4", (1, 0, 0), 4),
                             ("A3", (1, 0, 0, 0, 5), 4), ("C3", (1, 0, 0, 7), 3)]:
        with pytest.raises(ValueError, match=f"{name} needs {width} epsilon coordinates, "
                                             f"got {len(eps)}"):
            weight_from_epsilon(parse_group(name), eps)
    # The half vector is a weight of B3 but not of C3.
    half = (Fraction(1, 2),) * 3
    assert weight_from_epsilon(parse_group("B3"), half) == parse_group("B3").fundamental_weight(3)
    with pytest.raises(ValueError, match="not in the weight lattice of C3"):
        weight_from_epsilon(parse_group("C3"), half)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 4), ("H", 2),
     ("A", 33), ("B", 33), ("C", 1000), ("D", 33)],
)
def test_unsupported_pairs_rejected(family, rank):
    with pytest.raises(UnsupportedRootSystemError) as err:
        build_root_datum(family, rank)
    assert "valid" in str(err.value)


def test_weyl_orders():
    assert build_root_datum("A", 3).weyl_order() == 24
    assert build_root_datum("B", 3).weyl_order() == 48
    assert build_root_datum("D", 4).weyl_order() == 192
    assert build_root_datum("G", 2).weyl_order() == 12
    assert build_root_datum("F", 4).weyl_order() == 1152
    assert build_root_datum("E", 7).weyl_order() == 2903040
    assert build_root_datum("E", 8).weyl_order() == 696729600


# Every type with |W| <= 51,840 (the order of W(E6)).
SMALL_WEYL_GROUPS = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


@pytest.mark.parametrize("name", SMALL_WEYL_GROUPS)
def test_parabolic_orders_match_orbit_oracle(name):
    datum = parse_group(name)
    for k in range(datum.rank + 1):
        for support in itertools.combinations(range(datum.rank), k):
            assert datum.weyl_order(support) == oh.parabolic_order_oracle(datum, support), support
    assert datum.weyl_order() == datum.weyl_order(range(datum.rank)) <= 51840


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_positive_roots_match_reflection_closure(name):
    datum = parse_group(name)
    assert tuple(r.coords for r in datum.positive_roots) == oh.positive_roots_oracle(datum)
    assert datum.positive_root_coords == tuple(r.coords for r in datum.positive_roots)


@pytest.mark.parametrize("family", "ABCD")
def test_classical_positive_roots_match_the_epsilon_description(family):
    # Every supported rank: the roots, their order, heights and lengths come
    # from Bourbaki's e_i +- e_j (and e_i, 2 e_i) alone.
    lo, hi = rootdata.SUPPORTED_RANGES[family]
    for rank in range(lo, hi + 1):
        datum = build_root_datum(family, rank)
        got = tuple(zip(datum.positive_root_heights, datum.positive_root_coords,
                        datum.root_half_lengths))
        assert got == oh.classical_positive_roots_oracle(family, rank), datum.name


@pytest.mark.parametrize("name,h", [("E6", 12), ("E7", 18), ("E8", 30), ("F4", 12), ("G2", 6)])
def test_positive_roots_match_the_coxeter_number(name, h):
    # |Phi+| = nh/2 for the Coxeter number h, and the highest root has height
    # h - 1 (Humphreys, Reflection Groups and Coxeter Groups, 3.18-3.20).
    datum = parse_group(name)
    assert 2 * len(datum.positive_root_coords) == datum.rank * h
    assert datum.positive_root_heights[-1] == h - 1 > datum.positive_root_heights[-2]
    assert datum.highest_root.coords == datum.positive_root_coords[-1]


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_root_lengths_and_coroot_pairings_match_the_form(name):
    datum = parse_group(name)
    for root, half, pairing in zip(datum.positive_roots, datum.root_half_lengths,
                                   datum.coroot_pairings):
        assert half == datum.form(root, root) / 2, root
        # <omega_i, alpha^vee> = 2 (omega_i, alpha) / (alpha, alpha)
        assert pairing == tuple(
            datum.form(datum.fundamental_weight(i), root) / half
            for i in range(1, datum.rank + 1)
        ), root


def test_weyl_order_rejects_indices_outside_the_rank():
    a2 = build_root_datum("A", 2)
    for support in ([5], [-1], [0, 2]):
        # Twice: a rejected support must not be memoized.
        for _ in range(2):
            with pytest.raises(ValueError):
                a2.weyl_order(support)
    assert a2.weyl_order([0, 1]) == 6 and a2.weyl_order([1]) == 2


def test_parabolic_orders():
    d5 = build_root_datum("D", 5)
    # Stabilizer of omega_1: the D4 subdiagram on nodes 2..5.
    assert d5.weyl_order([1, 2, 3, 4]) == 192
    f4 = build_root_datum("F", 4)
    # B3/C3 chains inside F4.
    assert f4.weyl_order([0, 1, 2]) == 48
    assert f4.weyl_order([1, 2, 3]) == 48
    e6 = build_root_datum("E", 6)
    assert e6.weyl_order(range(6)) == 51840


def test_datum_caching_and_b2_c2_distinct_maps():
    assert build_root_datum("A", 3) is build_root_datum("A", 3)
    assert build_root_datum("a", 3) is build_root_datum("A", 3)
    b2, c2 = build_root_datum("B", 2), build_root_datum("C", 2)
    assert epsilon_values(b2, b2.fundamental_weight(2)) == (Fraction(1, 2), Fraction(1, 2))
    assert epsilon_values(c2, c2.fundamental_weight(2)) == (1, 1)


def test_bool_rank_rejected_without_poisoning_the_cache():
    with pytest.raises(UnsupportedRootSystemError):
        build_root_datum("A", True)
    a1 = build_root_datum("A", 1)
    assert a1.name == "A1" and a1.rank == 1 and type(a1.rank) is int


def test_rank_above_the_range_rejected_before_the_build():
    cache_info = rootdata._cached_root_datum.cache_info
    before = cache_info()
    with pytest.raises(UnsupportedRootSystemError, match="valid ranks for A are 1..32"):
        build_root_datum("A", 33)
    assert cache_info() == before  # the cached constructor never ran
    assert build_root_datum("A", 32).rank == 32


def test_weight_is_slotted_and_immutable():
    a2 = build_root_datum("A", 2)
    w = Weight((1, -2), a2)
    assert not hasattr(w, "__dict__")
    with pytest.raises(AttributeError):
        w.coords = (0, 0)
    with pytest.raises(AttributeError):
        w.extra = 1
    with pytest.raises(AttributeError):
        del w.datum
    assert w.coords == (1, -2) and w.datum is a2
    assert repr(w) == "Weight(coords=(1, -2))"
    assert copy.copy(w) == w and copy.copy(w).datum is a2


def test_weight_constructor_checks_the_rank():
    a2 = build_root_datum("A", 2)
    with pytest.raises(ValueError, match="3 coordinates, datum rank is 2"):
        Weight((1, 0, 0), a2)


def test_weights_of_different_data_neither_compare_nor_add():
    a2, b2 = build_root_datum("A", 2), build_root_datum("B", 2)
    assert a2.weight((1, 0)) + a2.weight((-1, 1)) == Weight((0, 1), a2)
    with pytest.raises(DatumMismatchError):
        a2.weight((1, 0)) == b2.weight((1, 0))
    with pytest.raises(DatumMismatchError):
        a2.weight((1, 0)) + b2.zero()
    # A non-Weight is not compared, so it is unequal rather than an error.
    assert a2.weight((1, 0)).__eq__((1, 0)) is NotImplemented
    assert a2.weight((1, 0)) != (1, 0)
