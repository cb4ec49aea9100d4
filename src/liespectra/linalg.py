"""Small exact integer linear algebra: Hermite and Smith normal forms, for
the torus layer's lattices.  The determinant, adjugate and vector-matrix
product that a root-datum build needs live in `rootdata`, so building a
datum does not compile this module.

Everything here works on nested tuples/lists of ints; matrices are
row-major lists of rows.  Sizes stay small (rank <= 32), so the quadratic
and cubic algorithms below are plenty.
"""

from __future__ import annotations


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite_normal_form(rows):
    """Row-style HNF of an integer matrix (list of row tuples).

    Returns a tuple of nonzero rows in canonical form: row-echelon, positive
    pivots, entries above each pivot reduced into [0, pivot).  Two generator
    sets span the same row lattice iff their HNFs are equal.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    done = []
    col = 0
    while work and col < ncols:
        piv_idx = min(
            (i for i, r in enumerate(work) if r[col] != 0),
            key=lambda i: abs(work[i][col]),
            default=None,
        )
        if piv_idx is None:
            col += 1
            continue
        piv = work.pop(piv_idx)
        reduced = True
        for r in work:
            if r[col] != 0:
                q = r[col] // piv[col]
                for j in range(ncols):
                    r[j] -= q * piv[j]
                if r[col] != 0:
                    reduced = False
        if not reduced:
            work.append(piv)
            continue
        work = [r for r in work if any(r)]
        if piv[col] < 0:
            piv = [-x for x in piv]
        done.append(piv)
        col += 1
    assert not work
    # Reduce entries above pivots, top pivot first: row i changes only the
    # columns from its pivot on, so it cannot undo an earlier reduction.
    for i in range(len(done)):
        pcol = next(j for j, x in enumerate(done[i]) if x != 0)
        for k in range(i):
            q = done[k][pcol] // done[i][pcol]
            if q:
                done[k] = [x - q * y for x, y in zip(done[k], done[i])]
    return tuple(tuple(r) for r in done)


def smith_normal_form(a):
    """Smith normal form: (d, v) with u @ a @ v = diag(d) padded to the
    shape of a, for unimodular v and some unimodular u that is not built.

    d lists the nonzero diagonal entries, each positive and dividing the
    next.  Row i of v holds the coordinates of basis vector i in
    Z^ncols / (rows of a): the first len(d) mod d, the rest free.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    m = [list(row) for row in a]
    v = identity_matrix(ncols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, f):
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]

    def add_col(src, dst, f):
        for r in m:
            r[dst] += f * r[src]
        for r in v:
            r[dst] += f * r[src]

    t = 0
    while t < min(nrows, ncols):
        # Find a nonzero pivot in the remaining block.
        pos = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pos = (i, j)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            cleared = True
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        cleared = False
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        cleared = False
            if cleared:
                break
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        # Divisibility: fold any non-multiple into the pivot position.
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    # The loop stops at the first all-zero block, so t is the rank.
    return [m[i][i] for i in range(t)], v
