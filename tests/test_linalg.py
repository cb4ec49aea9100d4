from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_helpers as oh

from liespectra import build_root_datum
from liespectra.linalg import det_adjugate


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
