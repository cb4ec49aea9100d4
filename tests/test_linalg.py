from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_helpers as oh

from liespectra import build_root_datum
from liespectra.linalg import hermite_normal_form, smith_normal_form
from liespectra.rootdata import det_adjugate, vec_mat


@st.composite
def integer_matrices(draw):
    """Square integer matrices of size 1-8 with small entries; some get a
    zero leading entry (forcing a row swap), some a repeated row (singular)."""
    n = draw(st.integers(1, 8))
    m = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        m[0][0] = 0
    if n > 1 and draw(st.integers(0, 3)) == 0:
        m[-1] = list(m[draw(st.integers(0, n - 2))])
    return m


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
@example([[0]])
@example([[0, 1], [1, 0]])
@example([[0, 0], [0, 1]])
@example([[0, 2, 1], [0, 1, 3], [5, 0, 0]])
def test_det_adjugate_matches_fraction_gauss_jordan(m):
    inverse, det = oh.fraction_inverse_det(m)
    got_det, adj = det_adjugate(m)
    assert got_det == det
    if det == 0:
        assert adj is None
    else:
        assert adj == [[Fraction(det) * x for x in row] for row in inverse]
        assert all(type(x) is int for row in adj for x in row)


@pytest.mark.parametrize(
    "family,rank,det",
    [("A", 1, 2), ("A", 4, 5), ("A", 12, 13), ("B", 2, 2), ("B", 7, 2), ("C", 3, 2),
     ("C", 8, 2), ("D", 4, 4), ("D", 9, 4), ("E", 6, 3), ("E", 7, 2), ("E", 8, 1),
     ("F", 4, 1), ("G", 2, 1)],
)
def test_cartan_determinants(family, rank, det):
    assert build_root_datum(family, rank).cartan_det == det


@st.composite
def small_matrices(draw):
    """Integer matrices of 1-4 rows and 1-5 columns with entries in
    [-6, 6]; rank deficiency and zero rows come up often."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    return [draw(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols))
            for _ in range(rows)]


@st.composite
def matrices_and_row_operations(draw):
    """A small matrix and a random sequence of unimodular row operations:
    swaps, negations and adding a multiple of one row to another."""
    m = draw(small_matrices())
    ops = draw(st.lists(
        st.tuples(st.sampled_from(("swap", "negate", "add")), st.integers(0, len(m) - 1),
                  st.integers(0, len(m) - 1), st.integers(-3, 3)),
        max_size=8,
    ))
    return m, ops


def apply_row_operations(m, ops):
    m = [list(row) for row in m]
    for op, i, j, f in ops:
        if op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
        elif i != j:
            m[j] = [x + f * y for x, y in zip(m[j], m[i])]
    return m


def is_hermite_form(h):
    """Echelon rows with positive pivots, each entry above a pivot in
    [0, pivot)."""
    pivots = [next((j for j, x in enumerate(row) if x), None) for row in h]
    if None in pivots or pivots != sorted(set(pivots)):
        return False
    return all(
        h[i][p] > 0 and all(0 <= h[k][p] < h[i][p] for k in range(i))
        for i, p in enumerate(pivots)
    )


@settings(max_examples=200, deadline=None)
@given(matrices_and_row_operations())
@example(([[0, 0, 0]], []))
@example(([[2, 4], [3, 6]], [("add", 0, 1, 1)]))
# Reducing row 0 by row 1 after row 2 left (1, 0, -1) above the pivot 2.
@example(([[0, 0, 2], [0, 1, 1], [1, 1, 0]], []))
def test_hermite_normal_form_is_a_canonical_echelon_form(case):
    m, ops = case
    h = hermite_normal_form(m)
    assert is_hermite_form(h)
    assert hermite_normal_form(h) == h
    assert hermite_normal_form(apply_row_operations(m, ops)) == h
    # Every input row lies in the lattice of h.
    assert hermite_normal_form(list(h) + m) == h


@settings(max_examples=200, deadline=None)
@given(small_matrices())
@example([[0, 0, 0]])
@example([[2, 0], [0, 3]])
@example([[4, 6, 0], [6, 9, 3]])
def test_smith_normal_form_diagonalizes_by_a_unimodular_column_transform(m):
    d, v = smith_normal_form(m)
    assert all(x > 0 for x in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    assert det_adjugate(v)[0] in (1, -1)
    rows, cols = len(m), len(m[0])
    diag = [[d[i] if i == j and i < len(d) else 0 for j in range(cols)] for i in range(rows)]
    assert hermite_normal_form([vec_mat(row, v) for row in m]) == hermite_normal_form(diag)
