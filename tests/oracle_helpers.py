"""Independent brute-force oracles used to freeze expected values in tests.

These deliberately avoid the library's production code paths: dominance is
decided by Fraction-valued Gaussian elimination, weight sets by the
simple-root downward closure over all intermediate weights, multiplicities
by the alternating Kostant partition-function sum over the full Weyl group,
characters by summing Fractions over the fundamental weights, Kronecker
products by adding values pairwise in the value group, root data and the
norms |mu + rho|^2 from the Bourbaki epsilon-realizations and a Fraction Gram
inverse, tensor product
decompositions by Brauer's formula.  ``sample_torus_element`` draws the
torus elements of the property batteries.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from liespectra import kernels
from liespectra.exceptions import ResourceLimitError
from liespectra.linalg import hermite_normal_form
from liespectra.mult import freudenthal_multiplicities
from liespectra.spectra import Spectrum
from liespectra.torus import (
    StratumSpec,
    TorusElement,
    ValueGroupElement,
    canonical_root_strata,
    generic_regular_element,
    generic_stratum_element,
    stratum_torsion_decorations,
    torus_from_epsilon,
)
from liespectra.verify import _sample_epsilon_tokens
from liespectra.weights import DOMINANT_ENUMERATION_BOUND

# The 32 simple types of rank <= 8, the range every per-type oracle covers.
RANK_AT_MOST_8 = [f"{f}{r}" for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                  for r in range(lo, 9)] + ["E6", "E7", "E8", "F4", "G2"]


def root_coefficients_oracle(datum, coords):
    """Solve coords = sum c_i alpha_i by elimination; None if not integral."""
    n = datum.rank
    cols = [list(datum.simple_root_coords[i]) for i in range(n)]
    m = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(coords[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    coeffs = [m[i][n] for i in range(n)]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return tuple(int(c) for c in coeffs)


def sorted_entries_oracle(ms):
    """A multiset's (coords, multiplicity) pairs sorted by the sum of the
    simple-root coefficients of highest - w, then by coordinates."""
    datum, top = ms.highest.datum, ms.highest.coords

    def key(item):
        return (sum(datum.root_coefficients(tuple(a - b for a, b in zip(top, item[0])))),
                item[0])

    return sorted(ms.counts.items(), key=key)


def fraction_inverse_det(a):
    """(inverse, determinant) of a square integer matrix by Fraction
    Gauss-Jordan elimination with row swaps; (None, 0) if it is singular."""
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None, 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pv = m[col][col]
        det *= pv
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    assert det.denominator == 1
    return [row[n:] for row in m], int(det)


def _simple_roots_eps_oracle(family, rank):
    """Bourbaki simple roots of every type in an ambient coordinate space
    (Lie VI, Plates I-IX), plus the scale c such that (e_i, e_j) = c delta_ij
    gives short roots squared length 2."""
    n = rank
    chain = []
    for i in range(n - (family != "A")):
        v = [0] * (n + (family == "A"))
        v[i], v[i + 1] = 1, -1
        chain.append(tuple(v))
    if family == "A":
        return chain, 1
    last = [0] * n
    if family == "B":
        last[n - 1] = 1
        return chain + [tuple(last)], 2
    if family == "C":
        last[n - 1] = 2
        return chain + [tuple(last)], 1
    if family == "D":
        last[n - 2] = last[n - 1] = 1
        return chain + [tuple(last)], 1
    if family == "G":
        return [(1, -1, 0), (-2, 1, 1)], 1
    h = Fraction(1, 2)
    if family == "F":
        return [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)], 2
    assert family == "E"
    alpha = [
        (h, -h, -h, -h, -h, -h, -h, h),
        (1, 1, 0, 0, 0, 0, 0, 0),
        (-1, 1, 0, 0, 0, 0, 0, 0),
        (0, -1, 1, 0, 0, 0, 0, 0),
        (0, 0, -1, 1, 0, 0, 0, 0),
        (0, 0, 0, -1, 1, 0, 0, 0),
        (0, 0, 0, 0, -1, 1, 0, 0),
        (0, 0, 0, 0, 0, -1, 1, 0),
    ]
    return alpha[:n], 1


@lru_cache(maxsize=None)
def _fundamental_weights_eps_oracle(family, rank):
    """(eform, lengths, fw_eps) of the epsilon-realization: its form, the
    squared lengths of the simple roots, and the fundamental weights from the
    Gram inverse in Fractions."""
    eps_simple, scale = _simple_roots_eps_oracle(family, rank)
    n = rank

    def eform(x, y):
        return scale * sum(Fraction(a) * b for a, b in zip(x, y))

    lengths = [eform(a, a) for a in eps_simple]
    assert min(lengths) == 2
    gram_inv, _ = fraction_inverse_det(
        [[eform(eps_simple[i], eps_simple[j]) for j in range(n)] for i in range(n)]
    )
    # omega_i = sum_k (l_i/2) gram_inv[k][i] alpha_k, l_i = (alpha_i, alpha_i).
    fw_eps = tuple(
        tuple(
            sum(lengths[i] / 2 * gram_inv[k][i] * eps_simple[k][m] for k in range(n))
            for m in range(len(eps_simple[0]))
        )
        for i in range(n)
    )
    return eform, lengths, fw_eps


def root_datum_oracle(family, rank):
    """The integer and rational data of a root datum, derived from its
    epsilon-realization: the Cartan matrix from the Gram matrix of the simple
    roots, the fundamental weights from the Gram inverse in Fractions.
    Attribute names match RootDatum's, except ``fundamental_epsilon``: the
    epsilon-coordinates of the fundamental weights (trace-zero for A), the
    values ``epsilon_values`` gives on them."""
    eps_simple, _ = _simple_roots_eps_oracle(family, rank)
    eform, lengths, fw_eps = _fundamental_weights_eps_oracle(family, rank)
    n = rank
    cartan = []
    for i in range(n):
        row = [2 * eform(eps_simple[j], eps_simple[i]) / lengths[i] for j in range(n)]
        assert all(x.denominator == 1 for x in row)
        cartan.append(tuple(int(x) for x in row))
    form_matrix = tuple(tuple(eform(x, y) for y in fw_eps) for x in fw_eps)
    den = 1
    for row in form_matrix:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    ct = [[cartan[j][i] for j in range(n)] for i in range(n)]
    inv, det = fraction_inverse_det(ct)
    return SimpleNamespace(
        cartan=tuple(cartan),
        _d=tuple(int(x / 2) for x in lengths),
        form_denominator=den,
        form_scaled=tuple(tuple(int(x * den) for x in row) for row in form_matrix),
        cartan_det=det,
        cartan_t_adj=tuple(tuple(int(x * det) for x in row) for row in inv),
        fundamental_epsilon=fw_eps if family in "ABCD" else None,
        epsilon_rows=epsilon_rows_oracle(family, fw_eps) if family in "ABCD" else None,
    )


def rho_shifted_norm_oracle(datum, coords):
    """|mu + rho|^2 as a Fraction for the weight mu with the given
    omega-coordinates: sum_i (mu_i + 1) omega_i squared in the
    epsilon-realization."""
    eform, _, fw_eps = _fundamental_weights_eps_oracle(datum.family, datum.rank)
    v = [sum((c + 1) * w[m] for c, w in zip(coords, fw_eps)) for m in range(len(fw_eps[0]))]
    return eform(v, v)


def epsilon_rows_oracle(family, fw_eps):
    """Integer rows (h_i, c_i) with h_i omega_i = sum_j c_ij e_j, h_i the
    least common denominator of the epsilon-coordinates of omega_i; for A
    the coordinates are first shifted by the last one, so omega_i is
    e_1 + ... + e_i."""
    rows = []
    for x in fw_eps:
        if family == "A":
            x = [c - x[-1] for c in x]
        h = math.lcm(*(Fraction(c).denominator for c in x))
        rows.append((h, tuple(int(c * h) for c in x)))
    return tuple(rows)


def epsilon_pairings_oracle(family, rank, vectors):
    """Omega-coordinates of integer ambient vectors over the Bourbaki simple
    roots of a type A-D: <x, alpha_r^vee> = 2 (x, alpha_r) / (alpha_r,
    alpha_r) in the ambient dot product; a non-integral pairing fails the
    assertion."""
    simple = [[(k, c) for k, c in enumerate(a) if c] for a in _simple_roots_eps_oracle(family, rank)[0]]
    out = []
    for x in vectors:
        coords = []
        for a in simple:
            q, rem = divmod(2 * sum(x[k] * c for k, c in a), sum(c * c for _, c in a))
            assert rem == 0, (x, a)
            coords.append(q)
        out.append(tuple(coords))
    return out


def classical_roots_eps_oracle(family, rank):
    """Positive roots of a type A-D in Bourbaki's epsilon-description (Lie
    VI, Plates I-IV), each as {ambient index: coefficient}: e_i - e_j and,
    except for A, e_i + e_j (i < j), plus e_i for B and 2 e_i for C."""
    width = rank + (family == "A")
    ambient = []
    for i, j in itertools.combinations(range(width), 2):
        ambient.append({i: 1, j: -1})
        if family != "A":
            ambient.append({i: 1, j: 1})
    if family in "BC":
        ambient += [{i: 1 if family == "B" else 2} for i in range(rank)]
    return ambient


def leq_oracle(datum, mu, lam):
    """mu <= lam in dominance order."""
    diff = tuple(a - b for a, b in zip(lam, mu))
    coeffs = root_coefficients_oracle(datum, diff)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def minimal_nonzero_subdominant_oracle(datum, lam, dominant_below):
    """The minimal elements, in the dominance order, of the nonzero dominant
    weights strictly below lam, as sorted coordinate tuples; dominant_below
    lists the dominant weights <= lam.

    mu <= nu iff the simple-root coefficients of nu - mu are nonnegative
    integers (``leq_oracle``).  All candidates lie in lam's coset, so the
    differences are integral, and the coefficients come from one Fraction
    inverse per call, scaled by its positive determinant to integers:
    leq_oracle's elimination per pair would take minutes over the
    thousand-weight sets of E8.  Candidates are taken lowest first; one is
    minimal iff no minimal one taken before it lies below it, since every
    candidate that is not minimal lies above a minimal one of lower height.
    """
    n = datum.rank
    inverse, det = fraction_inverse_det([[datum.simple_root_coords[j][i] for j in range(n)]
                                         for i in range(n)])
    assert det > 0
    adj = [[int(x * det) for x in row] for row in inverse]
    lam = tuple(lam)
    candidates = [(tuple(sum(a * c for a, c in zip(row, mu)) for row in adj), mu)
                  for mu in map(tuple, dominant_below) if any(mu) and mu != lam]
    minimal = []
    for coeffs, mu in sorted(candidates, key=lambda item: sum(item[0])):
        if not any(all(a <= b for a, b in zip(low, coeffs)) for low, _ in minimal):
            minimal.append((coeffs, mu))
    return sorted(mu for _, mu in minimal)


def evaluate_oracle(s, mu):
    """Value of the character mu at the torus element s: the sum over i of
    mu_i times the value of omega_i, torsion added as Fractions mod 1."""
    k = s.free_rank
    t = Fraction(0)
    free = [0] * k
    for c, v in zip(mu.coords, s.assignments):
        if c:
            t += c * v.torsion
            for j in range(k):
                free[j] += c * v.free[j]
    return ValueGroupElement(t % 1, tuple(free))


def tensor_spectrum_oracle(sp1, sp2):
    """Spectrum of the Kronecker product, pair by pair: every two values are
    added by ``ValueGroupElement.__add__`` (torsion as Fractions mod 1; it
    raises ValueError on different free ranks), and ``Spectrum.from_dict``
    sorts the sums by ``sort_key``."""
    acc = {}
    for v1, m1 in sp1.entries:
        for v2, m2 in sp2.entries:
            v = v1 + v2
            acc[v] = acc.get(v, 0) + m1 * m2
    return Spectrum.from_dict(acc)


def reflect(datum, coords, i):
    ci = coords[i]
    ai = datum.simple_root_coords[i]
    return tuple(c - ci * a for c, a in zip(coords, ai))


def orbit_oracle(datum, coords):
    """Naive reflection closure."""
    seen = {tuple(coords)}
    frontier = [tuple(coords)]
    while frontier:
        new = []
        for mu in frontier:
            for i in range(datum.rank):
                ref = reflect(datum, mu, i)
                if ref not in seen:
                    seen.add(ref)
                    new.append(ref)
        frontier = new
    return seen


def weyl_orbit_oracle(datum, start):
    """Full Weyl orbit of a weight, lexicographically sorted: a breadth-first
    search over the simple reflections with a seen-set."""
    n, alpha = datum.rank, datum.simple_root_coords
    seen = {tuple(start)}
    frontier = [tuple(start)]
    while frontier:
        new = []
        for mu in frontier:
            for i in range(n):
                ci = mu[i]
                if ci == 0:
                    continue
                ai = alpha[i]
                ref = tuple(mu[j] - ci * ai[j] for j in range(n))
                if ref not in seen:
                    seen.add(ref)
                    new.append(ref)
        frontier = new
    return sorted(seen)


def parabolic_order_oracle(datum, support):
    """|W_J| as the size of the W_J-orbit of rho, which is regular, found by
    closing rho under the simple reflections in J."""
    start = (1,) * datum.rank
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for mu in frontier:
            for i in support:
                ref = reflect(datum, mu, i)
                if ref not in seen:
                    seen.add(ref)
                    new.append(ref)
        frontier = new
    return len(seen)


def positive_roots_oracle(datum):
    """Positive roots as the reflection closure of the simple roots, keeping
    those with nonnegative coefficients, sorted by (height, coords)."""
    roots = set()
    for a in datum.simple_root_coords:
        roots |= orbit_oracle(datum, a)
    keyed = []
    for c in roots:
        cf = root_coefficients_oracle(datum, c)
        if all(x >= 0 for x in cf):
            keyed.append((sum(cf), c))
    return tuple(c for _, c in sorted(keyed))


def classical_positive_roots_oracle(family, rank):
    """Positive roots of a type A-D from Bourbaki's epsilon-description
    (``classical_roots_eps_oracle``).  Returns (height, omega-coordinates,
    (beta, beta)/2) per root, sorted by height and then by coordinates.

    Only the ambient dot product is used, in integers: <beta, alpha_k^vee> =
    2 (beta, alpha_k) / (alpha_k, alpha_k), and the height is (beta, rho^vee)
    for the rho^vee with (alpha_k, rho^vee) = 1 for every simple root."""
    n = rank
    simple, scale = _simple_roots_eps_oracle(family, rank)
    width = len(simple[0])
    # 2 rho^vee: (2n - 2k) for A and B, (2n - 1 - 2k) for C, (2n - 2 - 2k) for D.
    top = 2 * n - {"A": 0, "B": 0, "C": 1, "D": 2}[family]
    rho_vee2 = [top - 2 * k for k in range(width)]
    ambient = classical_roots_eps_oracle(family, rank)
    vectors = [[beta.get(k, 0) for k in range(width)] for beta in ambient]
    out = []
    for beta, coords in zip(ambient, epsilon_pairings_oracle(family, rank, vectors)):
        height, odd = divmod(sum(c * rho_vee2[k] for k, c in beta.items()), 2)
        half, odd_half = divmod(scale * sum(c * c for c in beta.values()), 2)
        assert odd == odd_half == 0
        out.append((height, coords, half))
    return tuple(sorted(out))


def weyl_dimension_oracle(datum, coords):
    """Weyl's product prod (lam + rho, b) / (rho, b) over the positive roots
    b, in Fractions on the invariant form (no coroot pairings), taken as
    ``form_scaled``: the common denominator cancels in the ratio.  The roots
    are the datum's, which ``positive_roots_oracle`` checks elsewhere."""
    lam_rho = [c + 1 for c in coords]
    num = den = Fraction(1)
    for b in datum.positive_root_coords:
        # (mu, b) = sum_i mu_i (omega_i, b)
        col = [sum(row[j] * b[j] for j in range(datum.rank)) for row in datum.form_scaled]
        num *= sum(x * y for x, y in zip(lam_rho, col))
        den *= sum(col)
    dim = num / den
    assert dim.denominator == 1
    return int(dim)


def dominant_rep_oracle(datum, coords):
    doms = [c for c in orbit_oracle(datum, coords) if all(x >= 0 for x in c)]
    assert len(doms) == 1
    return doms[0]


def weight_set_oracle(datum, lam):
    """Full saturated weight set: downward closure from lam by simple-root
    subtraction, keeping weights whose dominant representative is <= lam."""
    lam = tuple(lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            for i in range(datum.rank):
                cand = tuple(a - b for a, b in zip(mu, datum.simple_root_coords[i]))
                if cand in seen:
                    continue
                if leq_oracle(datum, dominant_rep_oracle(datum, cand), lam):
                    seen.add(cand)
                    new.append(cand)
        frontier = new
    return seen


def enumerate_dominant_by_sum(datum, height_bound):
    """Dominant weights with coordinate sum <= height_bound, sorted by
    (sum, coordinates), built one coordinate at a time with no cut.

    There are C(height_bound + n, n) of them; more than
    DOMINANT_ENUMERATION_BOUND is rejected before any is listed, and a
    negative bound raises ValueError.
    """
    if height_bound < 0:
        raise ValueError(f"coordinate-sum bound must be >= 0, got {height_bound}")
    n = datum.rank
    count = math.comb(height_bound + n, n)
    if count > DOMINANT_ENUMERATION_BOUND:
        raise ResourceLimitError(
            f"{datum.name} has {count} dominant weights with coordinate sum <= "
            f"{height_bound}, exceeding the enumeration bound {DOMINANT_ENUMERATION_BOUND}"
        )
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(datum.weight(tuple(prefix)))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], height_bound)
    out.sort(key=lambda w: (sum(w.coords), w.coords))
    return tuple(out)


def subdominant_oracle(datum, lam):
    """Dominant members of the saturated weight set."""
    return {c for c in weight_set_oracle(datum, lam) if all(x >= 0 for x in c)}


def level_oracle(datum, lam):
    """Longest chain of dominant weights strictly below lam, plus one,
    computed from the full subdominant relation."""
    lam = tuple(lam)

    def rec(mu, memo):
        if mu in memo:
            return memo[mu]
        below = [
            nu for nu in subdominant_oracle(datum, mu) if nu != mu
        ]
        lvl = 1 + max((rec(nu, memo) for nu in below), default=0)
        memo[mu] = lvl
        return lvl

    return rec(lam, {})


def weyl_group_oracle(datum):
    """All Weyl group elements as matrices acting on omega-coordinates
    (rows transform as weights), with signs."""
    n = datum.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def apply_reflection(mat, i):
        return tuple(reflect(datum, row, i) for row in mat)

    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        new = []
        for mat in frontier:
            for i in range(n):
                nxt = apply_reflection(mat, i)
                if nxt not in seen:
                    seen[nxt] = -seen[mat]
                    new.append(nxt)
        frontier = new
    return seen


def _apply(mat, coords):
    n = len(coords)
    return tuple(sum(coords[i] * mat[i][j] for i in range(n)) for j in range(n))


def kostant_multiplicity(datum, lam, mu):
    """Alternating sum of Kostant partition values over the Weyl group."""
    n = datum.rank
    pos_coeffs = [root_coefficients_oracle(datum, r.coords) for r in datum.positive_roots]

    @lru_cache(maxsize=None)
    def partitions(vec, idx):
        if all(v == 0 for v in vec):
            return 1
        if idx == len(pos_coeffs):
            return 0
        total = 0
        cur = vec
        while True:
            total += partitions(cur, idx + 1)
            cur = tuple(a - b for a, b in zip(cur, pos_coeffs[idx]))
            if any(x < 0 for x in cur):
                break
        return total

    rho = (1,) * n
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    mu_rho = tuple(a + b for a, b in zip(mu, rho))
    total = 0
    for mat, sign in weyl_group_oracle(datum).items():
        target = tuple(a - b for a, b in zip(_apply(mat, lam_rho), mu_rho))
        coeffs = root_coefficients_oracle(datum, target)
        if coeffs is None or any(c < 0 for c in coeffs):
            continue
        total += sign * partitions(coeffs, 0)
    partitions.cache_clear()
    return total


def in_lattice_span_oracle(rows, target):
    """Is target an integer combination of the given (independent) rows?"""
    rows = [list(r) for r in rows]
    if not rows:
        return not any(target)
    return _solve_int_combination(rows, target)


def _solve_int_combination(rows, target):
    """Exact test: does an integer vector x solve x * rows = target?
    Assumes the rows are linearly independent, so the solution is unique."""
    nrows = len(rows)
    ncols = len(rows[0])
    # Gaussian elimination on the transposed matrix with augmented target.
    m = [[Fraction(rows[r][c]) for r in range(nrows)] + [Fraction(target[c])] for c in range(ncols)]
    pivots = []
    row = 0
    for col in range(nrows):
        piv = next((r for r in range(row, ncols) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(ncols):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append((row, col))
        row += 1
    sol = [Fraction(0)] * nrows
    for r, c in pivots:
        sol[c] = m[r][nrows]
    for r in range(ncols):
        if all(m[r][c] == 0 for c in range(nrows)) and m[r][nrows] != 0:
            return False
    for c in range(ncols):
        if sum(sol[r] * rows[r][c] for r in range(nrows)) != target[c]:
            return False
    return all(x.denominator == 1 for x in sol)


def in_rational_span_oracle(rows, target):
    """Is target in the rational span of the rows?"""
    rows = [list(r) for r in rows]
    if not rows:
        return not any(target)
    ncols = len(rows[0])
    m = [[Fraction(x) for x in r] for r in rows]
    work = [list(r) for r in m]
    t = [Fraction(x) for x in target]
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        pv = work[row][col]
        work[row] = [x / pv for x in work[row]]
        f = t[col]
        t = [a - f * b for a, b in zip(t, work[row])]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                g = work[r][col]
                work[r] = [a - g * b for a, b in zip(work[r], work[row])]
        row += 1
    return not any(t)


def canonical_root_strata_oracle(datum, depth):
    """Root-kernel strata keys by brute force: for every generator set of at
    most `depth` positive roots, the full W-orbit of its lattice (Hermite
    normal forms closed under simple reflections) and the least key in it.
    Returns the sorted distinct orbit minima as tuples of coordinate rows.
    It shares only the library's Hermite normal form, which defines the keys
    being compared."""
    n = datum.rank
    pos = [r.coords for r in datum.positive_roots]
    generators = [[r] for r in pos]
    if depth >= 2:
        generators += [list(pair) for pair in itertools.combinations(pos, 2)]
    minima = set()
    for gens in generators:
        start = hermite_normal_form([tuple(r) for r in gens])
        if len(start) >= n:
            continue
        seen = {start}
        frontier = [start]
        while frontier:
            new = []
            for key in frontier:
                for i in range(n):
                    nk = hermite_normal_form([reflect(datum, row, i) for row in key])
                    if nk not in seen:
                        seen.add(nk)
                        new.append(nk)
            frontier = new
        minima.add(min(seen))
    return sorted(minima)


def is_identity(value):
    """Is the value-group element the identity (torsion 0, free part 0)?"""
    return value.torsion == 0 and not any(value.free)


def inversion_symmetric(sp):
    """Does every value v of the spectrum have -v with the same multiplicity?"""
    d = dict(sp.entries)
    return all(d.get(-v, 0) == m for v, m in d.items())


def nonzero_multiplicities_all_one(multiset):
    """Has every nonzero weight of the multiset multiplicity 1?"""
    return all(m == 1 for c, m in multiset.counts.items() if any(c))


def sample_torus_element(datum, rng: random.Random) -> TorusElement:
    """Random torus element for property batteries: a mix of generic
    assignments (usually regular), epsilon-style tuples for the classical
    families, and generic stratum elements (never regular)."""
    roll = rng.random()
    if roll < 0.4:
        k = 2
        assignments = [
            ValueGroupElement(
                Fraction(rng.choice((0, 0, 0, 1, 2, 3)), rng.choice((2, 3, 4))) % 1,
                tuple(rng.randrange(-3, 4) for _ in range(k)),
            )
            for _ in range(datum.rank)
        ]
        return TorusElement(datum, tuple(assignments), label="random-assignments")
    if roll < 0.7 and datum.family in "ABCD":
        return torus_from_epsilon(
            datum, _sample_epsilon_tokens(datum, rng), label="random-epsilon"
        )
    strata = canonical_root_strata(datum, depth=rng.choice((1, 2)))
    if not strata:
        return generic_regular_element(datum)
    kernel = rng.choice(strata)
    spec = StratumSpec(datum, kernel)
    decorations = stratum_torsion_decorations(spec)
    spec = StratumSpec(datum, kernel, rng.choice(decorations))
    return generic_stratum_element(spec, seed=rng.randrange(1 << 30))


def brauer_klimyk_oracle(lam, mu):
    """{nu coords: N_nu} with L(lam) x L(mu) = sum N_nu L(nu), by Brauer's
    formula in Klimyk's form: N_nu = sum of m_lam(beta) sign(w) over the
    weights beta of L(lam) with w(mu + beta + rho) - rho = nu dominant; a
    beta with mu + beta + rho singular adds nothing.  ``kernels.dominant_rep``
    gives w(mu + beta + rho) and a word for w, whose parity is its sign."""
    datum = lam.datum
    out = {}
    for beta, m in freudenthal_multiplicities(lam).counts.items():
        rep, word = kernels.dominant_rep(datum, tuple(a + b + 1 for a, b in zip(mu.coords, beta)))
        if 0 in rep:
            continue
        nu = tuple(c - 1 for c in rep)
        out[nu] = out.get(nu, 0) + (-1) ** len(word) * m
    return {nu: n for nu, n in out.items() if n}
