"""The hot loops: dominant representatives and closures, Weyl orbits and the
Freudenthal recursion.

dominant_rep is the package's one dominant-representative loop.  All the
orbits of a module are walked as trees in one loop (see `orbits`).  The walk
gives the module's orbit index, {weight: index of its dominant weight}
(`orbit_expand`), in which the Freudenthal recursion looks up every step of an
alpha-string; each string stops at its first dominant weight (see
`freudenthal`).  Every kernel takes the RootDatum first and reads the root
data it needs from it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, sub

# The only kernel implementation; perfbench/run.py reads this name.
BACKEND = "pure"


def dominant_rep(datum, coords):
    """The dominant weight in the Weyl orbit of coords, and a reflection word.

    Each step reflects by the first negative coordinate.  Applying the simple
    reflections of the word in order to coords gives the representative:
    rep = s_{w[-1]}(... s_{w[0]}(coords) ...).
    """
    n, alpha = datum.rank, datum.simple_root_coords
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


def dominant_subdominants(datum, lam):
    """All dominant weights subdominant to dominant lam, sorted by increasing
    height deficit then lexicographically.

    Uses the positive-root downward walk on dominant weights; every dominant
    weight below lam is reachable this way because each strict dominance step
    between dominant weights refines into positive-root steps through
    dominant weights.  The deficit of mu is the height of lam - mu, which does
    not depend on the path, so each weight takes its parent's deficit plus the
    height of the root stepped down by.
    """
    steps = tuple(zip(datum.positive_root_coords, datum.positive_root_heights))
    deficit = {lam: 0}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            d = deficit[mu]
            for root, h in steps:
                cand = tuple(map(sub, mu, root))
                if cand not in deficit and min(cand) >= 0:
                    deficit[cand] = d + h
                    new.append(cand)
        frontier = new
    # Lexicographic first, then a stable sort by deficit.
    return sorted(sorted(deficit), key=deficit.__getitem__)


@lru_cache(maxsize=64)
def _neighbours(alpha):
    """(near, later) for the simple-root omega-coordinates alpha: near[i] lists
    (j, alpha[i][j]) over the Dynkin neighbours j of i, and later[i] lists
    (j, alpha[j][i]) over those j > i."""
    n = len(alpha)
    near = tuple(
        tuple((j, a[j]) for j in range(n) if j != i and a[j]) for i, a in enumerate(alpha)
    )
    later = tuple(
        tuple((j, alpha[j][i]) for j in range(i + 1, n) if alpha[j][i]) for i in range(n)
    )
    return near, later


def orbits(datum, doms):
    """The Weyl orbits of the distinct dominant weights doms, each weight once,
    in no fixed order: (weights, owner), where owner[k] is the index in doms
    of the dominant weight in the orbit of weights[k].

    The parent of a non-dominant nu is s_i nu for i the first negative
    coordinate of nu (dominant_rep's step), so each orbit is a tree rooted at
    its dominant weight.  Reverse search (Avis-Fukuda) walks it down: a child
    s_i mu of mu (mu_i > 0, so the child's i-th coordinate is negative) is
    kept iff the child's coordinates before i are all >= 0.  The list starts
    with every root, and one loop walks all the trees.

    Each listed weight carries f, its first negative coordinate (n for a
    dominant weight), which is the i that made it.  For i < f the child is kept
    with no test: for j < i, mu_j >= 0 and child_j = mu_j - mu_i alpha[i][j]
    >= mu_j.  For i > f, child_f = mu_f < 0 unless i is a neighbour of f, so
    only those i are tried; such a child is built only if child_f >= 0, and
    kept if its coordinates strictly between f and i are >= 0 too (those
    before f are, by the same bound).  s_i changes only coordinate i (to
    -mu_i) and i's Dynkin neighbours, so a child is built by updating those.

    The walk keeps no seen-set, so it relies on its roots: from a non-dominant
    root it lists a wrong part of the orbit, and a repeated root lists its
    orbit twice.  Such a start raises ValueError before any weight is listed.
    """
    out = [tuple(d) for d in doms]
    if min(map(min, out), default=0) < 0:
        raise ValueError("orbit walk needs dominant starts")
    if len(set(out)) != len(out):
        raise ValueError("orbit walk needs distinct starts")
    n = datum.rank
    near, later = _neighbours(datum.simple_root_coords)
    firsts = [n] * len(out)
    owner = list(range(len(out)))
    push, pushf, pusho = out.append, firsts.append, owner.append
    for mu, f, o in zip(out, firsts, owner):
        for i in range(f):
            ci = mu[i]
            if ci > 0:
                child = list(mu)
                child[i] = -ci
                for j, a in near[i]:
                    child[j] -= ci * a
                push(tuple(child))
                pushf(i)
                pusho(o)
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
                        push(tuple(child))
                        pushf(i)
                        pusho(o)
    return out, owner


def weyl_orbit(datum, start):
    """Full Weyl orbit of a weight, lexicographically sorted."""
    return sorted(orbits(datum, (dominant_rep(datum, start)[0],))[0])


def orbit_expand(datum, doms):
    """The orbit index of the distinct dominant weights doms: {weight: index
    in doms of its dominant weight} over all their Weyl orbits."""
    weights, owner = orbits(datum, doms)
    return dict(zip(weights, owner))


def _quad(coords, sform, n):
    total = 0
    for i in range(n):
        ci = coords[i]
        if ci:
            row = sform[i]
            for j in range(n):
                total += ci * coords[j] * row[j]
    return total


def freudenthal(datum, lam):
    """Multiplicities of the dominant weights of the irreducible module with
    highest weight lam, via the Freudenthal recursion.

    Returns (doms, mults, index): doms sorted by increasing height deficit,
    mults[i] the multiplicity of doms[i], and index the module's orbit index
    {weight: i with doms[i] its dominant weight} (see orbit_expand).  In
    characteristic 0 the weight set is the union of the Weyl orbits of all
    dominant mu <= lam, so index lists exactly the module's weights, and a
    string step nu is looked up as index.get(nu): by Weyl invariance nu has
    the multiplicity of its dominant weight, and nu is not a weight if absent.
    The recursion fills multiplicities in the order of doms.

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
    doms = dominant_subdominants(datum, lam)
    # Through the module global, so that a wrapper installed on it sees the call.
    index = orbit_expand(datum, doms)
    get = index.get
    n, sform = datum.rank, datum.form_scaled
    steps = tuple(zip(datum.positive_root_coords, datum.coroot_pairings, datum.root_half_lengths))
    qlam = _quad([x + 1 for x in lam], sform, n)
    mults = [0] * len(doms)
    mults[0] = 1
    # suffix[i][r] = S_alpha(doms[i]) for alpha the r-th positive root; nothing lies above lam
    suffix = [[0] * len(steps)]
    for idx in range(1, len(doms)):
        mu = doms[idx]
        sums = []
        for r, (root, pv, d) in enumerate(steps):
            nu = mu
            s = 0
            while True:
                nu = tuple(map(add, nu, root))
                j2 = get(nu)
                if j2 is None:
                    break
                s += mults[j2] * d * sum(map(mul, nu, pv))
                if min(nu) >= 0:
                    s += suffix[j2][r]
                    break
            sums.append(s)
        suffix.append(sums)
        denom = qlam - _quad([x + 1 for x in mu], sform, n)
        num = 2 * datum.form_denominator * sum(sums)
        if denom <= 0 or num % denom:
            raise AssertionError("Freudenthal recursion produced a non-integer")
        mults[idx] = num // denom
    return doms, mults, index
