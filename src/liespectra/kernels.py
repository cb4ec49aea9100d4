"""The hot loops: dominant representatives and closures, Weyl orbits and the
Freudenthal recursion.

dominant_rep is the package's one dominant-representative loop.  Orbits are
walked as trees (see `_orbit`), and each alpha-string of the Freudenthal
recursion stops at its first dominant weight (see `freudenthal`).

Argument conventions:
    n         rank
    alpha     tuple of n tuples, omega-coordinates of the simple roots
    posroots  tuple of omega-coordinate tuples of the positive roots
    pairings  per positive root, the vector of <omega_i, alpha^vee>
    dhalf     per positive root, (alpha, alpha)/2
    adj, det  adjugate and determinant of the transposed Cartan matrix, so
              root coefficients of mu are (mu @ adj) / det
    sform     integer matrix den*(omega_i, omega_j)
    den       the scaling denominator of sform
"""

from __future__ import annotations

from functools import lru_cache

# The only kernel implementation; perfbench/run.py reads this name.
BACKEND = "pure"


def dominant_rep(coords, alpha, n):
    """The dominant weight in the Weyl orbit of coords, and a reflection word.

    Each step reflects by the first negative coordinate.  Applying the simple
    reflections of the word in order to coords gives the representative:
    rep = s_{w[-1]}(... s_{w[0]}(coords) ...).
    """
    c = list(coords)
    word = []
    while True:
        for i in range(n):
            if c[i] < 0:
                ci = c[i]
                ai = alpha[i]
                for j in range(n):
                    c[j] -= ci * ai[j]
                word.append(i)
                break
        else:
            return tuple(c), tuple(word)


def _deficit(lam, mu, adj, det, n):
    """Height of lam - mu over the simple roots (must be a nonneg integer)."""
    total = 0
    for j in range(n):
        acc = 0
        for i in range(n):
            acc += (lam[i] - mu[i]) * adj[i][j]
        total += acc
    assert total % det == 0
    return total // det


def dominant_subdominants(n, alpha, posroots, adj, det, lam):
    """All dominant weights subdominant to dominant lam, sorted by increasing
    height deficit then lexicographically.

    Uses the positive-root downward walk on dominant weights; every dominant
    weight below lam is reachable this way because each strict dominance step
    between dominant weights refines into positive-root steps through
    dominant weights.
    """
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            for root in posroots:
                cand = tuple(a - b for a, b in zip(mu, root))
                if cand not in seen and all(x >= 0 for x in cand):
                    seen.add(cand)
                    new.append(cand)
        frontier = new
    return sorted(seen, key=lambda m: (_deficit(lam, m, adj, det, n), m))


@lru_cache(maxsize=64)
def _neighbours(alpha):
    """(near, later): near[i] lists (j, alpha[i][j]) over the Dynkin
    neighbours j of i, and later[i] lists (j, alpha[j][i]) over those j > i."""
    n = len(alpha)
    near = tuple(
        tuple((j, a[j]) for j in range(n) if j != i and a[j]) for i, a in enumerate(alpha)
    )
    later = tuple(
        tuple((j, alpha[j][i]) for j in range(i + 1, n) if alpha[j][i]) for i in range(n)
    )
    return near, later


def _orbit(n, alpha, start):
    """The Weyl orbit of start, each weight once, in no fixed order.

    The parent of a non-dominant nu is s_i nu for i the first negative
    coordinate of nu (dominant_rep's step), so the orbit is a tree rooted at
    its dominant weight.  Reverse search (Avis-Fukuda) walks it down: a child
    s_i mu of mu (mu_i > 0, so the child's i-th coordinate is negative) is
    kept iff the child's coordinates before i are all >= 0.

    Each listed weight carries f, its first negative coordinate (n for the
    dominant weight), which is the i that made it.  For i < f the child is kept
    with no test: for j < i, mu_j >= 0 and child_j = mu_j - mu_i alpha[i][j]
    >= mu_j.  For i > f, child_f = mu_f < 0 unless i is a neighbour of f, so
    only those i are tried; such a child is built only if child_f >= 0, and
    kept if its coordinates strictly between f and i are >= 0 too (those
    before f are, by the same bound).  s_i changes only coordinate i (to
    -mu_i) and i's Dynkin neighbours, so a child is built by updating those.
    """
    near, later = _neighbours(alpha)
    out = [dominant_rep(start, alpha, n)[0]]
    firsts = [n]
    for mu, f in zip(out, firsts):
        for i in range(f):
            ci = mu[i]
            if ci > 0:
                child = list(mu)
                child[i] = -ci
                for j, a in near[i]:
                    child[j] -= ci * a
                out.append(tuple(child))
                firsts.append(i)
        if f < n:
            mf = mu[f]
            for i, af in later[f]:
                ci = mu[i]
                if ci > 0 and mf >= ci * af:
                    child = list(mu)
                    child[i] = -ci
                    for j, a in near[i]:
                        child[j] -= ci * a
                    if min(child[f + 1:i], default=0) >= 0:
                        out.append(tuple(child))
                        firsts.append(i)
    return out


def weyl_orbit(n, alpha, start):
    """Full Weyl orbit of a weight, lexicographically sorted."""
    return sorted(_orbit(n, alpha, start))


def orbit_expand(n, alpha, reps, mults):
    """Expand multiplicities from dominant representatives to full orbits."""
    out = {}
    for rep, m in zip(reps, mults):
        for w in _orbit(n, alpha, rep):
            out[w] = m
    return out


def _quad(coords, sform, n):
    total = 0
    for i in range(n):
        ci = coords[i]
        if ci:
            row = sform[i]
            for j in range(n):
                total += ci * coords[j] * row[j]
    return total


def freudenthal(n, alpha, posroots, pairings, dhalf, adj, det, sform, den, lam):
    """Multiplicities of the dominant weights of the irreducible module with
    highest weight lam, via the Freudenthal recursion.

    Returns (doms, mults) with doms sorted by increasing height deficit; the
    recursion fills multiplicities in that order, using Weyl invariance to
    look up only dominant representatives.

    For each dominant mu and positive root alpha the string sum
    S_alpha(mu) = sum_{k>=1} m(mu+k alpha) (mu+k alpha, alpha) is stored, so
    a string is walked only up to its first dominant weight nu = mu+k alpha
    in the weight set and finished with nu's own term plus the stored
    S_alpha(nu), by S_alpha(mu) = T(mu+alpha) + S_alpha(mu+alpha) with
    T(nu) = m(nu) (nu, alpha).  Such nu lies higher than mu, so it comes
    earlier in doms and its sums are already known; this relies on doms being
    sorted by increasing height deficit.  A string that leaves the weight set
    first ends there.  As mu is dominant, a string that steps off the
    dominant chamber never returns to it, so the stored sum is picked up at
    mu+alpha or not at all.
    """
    doms = dominant_subdominants(n, alpha, posroots, adj, det, lam)
    index = {c: i for i, c in enumerate(doms)}
    nroots = len(posroots)
    lam_rho = tuple(x + 1 for x in lam)
    qlam = _quad(lam_rho, sform, n)
    mults = [0] * len(doms)
    mults[0] = 1
    # suffix[i][r] = S_alpha(doms[i]) for alpha = posroots[r]; nothing lies above lam
    suffix = [[0] * nroots]
    for idx in range(1, len(doms)):
        mu = doms[idx]
        sums = [0] * nroots
        for r in range(nroots):
            root = posroots[r]
            pv = pairings[r]
            d = dhalf[r]
            nu = list(mu)
            s = 0
            while True:
                pair = 0
                for j in range(n):
                    nu[j] += root[j]
                    pair += nu[j] * pv[j]
                rep = dominant_rep(nu, alpha, n)[0]
                j2 = index.get(rep)
                if j2 is None:
                    break
                s += mults[j2] * d * pair
                if min(nu) >= 0:
                    s += suffix[j2][r]
                    break
            sums[r] = s
        suffix.append(sums)
        mu_rho = tuple(x + 1 for x in mu)
        denom = qlam - _quad(mu_rho, sform, n)
        num = 2 * den * sum(sums)
        if denom <= 0 or num % denom:
            raise AssertionError("Freudenthal recursion produced a non-integer")
        mults[idx] = num // denom
    return doms, mults
