"""The hot loops: dominant representatives and closures, Weyl orbits and the
Freudenthal recursion.

dominant_rep is the package's one dominant-representative loop.  A Weyl
orbit is walked as a tree from its dominant weight (see `walk_orbit`).  A
module's orbit index, {weight: index of its dominant weight}
(`orbit_expand`), is read off per-support templates: the stabilizer of a
dominant weight is the parabolic subgroup of its zero coordinates, so every
dominant weight of one support has an orbit of the same shape.  For each
(datum, support) met, one generic orbit is walked once and kept on the datum
as slot columns (see `_orbit_template`); every orbit of that support is then
filled in from the dominant weight's coroot pairings by C-level maps.  The
fill follows the shape of the group of dominant weights on one support: a
group of at most as many weights as its template has slots (the small
modules of a sweep, and most supports of rank >= 3) is filled weight by
weight, while a larger group (the modules of rank 1 and 2 with large
coordinates) is filled slot by slot, one zip per template slot over pairing
columns of the whole group.  The closure carries each dominant weight's
|mu + rho|^2 down from lam, one coroot pairing per weight found, and the
Freudenthal recursion reads its denominators off those norms.  The
recursion looks up every step of an alpha-string in the index; each string
stops at its first dominant weight (see `freudenthal`).  Every kernel takes
the RootDatum first and reads the root data it needs from it.

A module's closure and orbit index are computed once and shared by everything
asked of that module (see `module_walk`): the multiplicities and the weight
set of one module run one closure and one expansion between them.  The memo
holds one module, the last one asked for, process-wide.  The templates are
not such a memo: they hold no weight of any module, so a warm pass still
builds every weight tuple, index entry and multiplicity.  They cost n bytes
per orbit weight for each support met, per datum, and live as long as the
datum.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from operator import add, mul, neg, sub

# The only kernel implementation; perfbench/run.py reads this name.
BACKEND = "pure"

# Safety bounds that callers check before a walk starts: the most weights a
# Weyl orbit may have, and the largest module the Freudenthal recursion is run
# for.
DEFAULT_ORBIT_BOUND = 10_000_000
DEFAULT_DIM_BOUND = 1_000_000


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
    """(doms, norms): doms lists all dominant weights subdominant to dominant
    lam, sorted by increasing height deficit then lexicographically, and
    norms[i] = |doms[i] + rho|^2 in form_scaled units (the form times
    form_denominator).

    Uses the positive-root downward walk on dominant weights; every dominant
    weight below lam is reachable this way because each strict dominance step
    between dominant weights refines into positive-root steps through
    dominant weights.  The deficit of mu is the height of lam - mu, which does
    not depend on the path, so each weight takes its parent's deficit plus the
    height of the root stepped down by.  The norm is carried the same way: with
    F = form_denominator and d = (alpha, alpha)/2,
    |mu - alpha + rho|^2 = |mu + rho|^2 - 2 d (<mu, alpha^vee> + ht(alpha^vee) - 1),
    so a step down by alpha subtracts 2 F d (<mu, alpha^vee> + ht(alpha^vee) - 1)
    in form_scaled units, one pairing per weight found.
    """
    scale = 2 * datum.form_denominator
    steps = tuple(
        (root, h, pv, scale * d, sum(pv) - 1)
        for root, h, pv, d in zip(datum.positive_root_coords, datum.positive_root_heights,
                                  datum.coroot_pairings, datum.root_half_lengths)
    )
    shifted = [x + 1 for x in lam]
    deficit = {lam: 0}
    norm = {lam: sum(x * sum(map(mul, shifted, row)) for x, row in zip(shifted, datum.form_scaled))}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            d, q = deficit[mu], norm[mu]
            for root, h, pv, c, shift in steps:
                cand = tuple(map(sub, mu, root))
                if cand not in deficit and min(cand) >= 0:
                    deficit[cand] = d + h
                    norm[cand] = q - c * (sum(map(mul, mu, pv)) + shift)
                    new.append(cand)
        frontier = new
    # Lexicographic first, then a stable sort by deficit.
    doms = sorted(sorted(deficit), key=deficit.__getitem__)
    return doms, list(map(norm.__getitem__, doms))


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


def walk_orbit(datum, start):
    """The Weyl orbit of the dominant weight start, each weight once, in walk
    order (start first).

    The parent of a non-dominant nu is s_i nu for i the first negative
    coordinate of nu (dominant_rep's step), so the orbit is a tree rooted at
    start.  Reverse search (Avis-Fukuda) walks it down: a child s_i mu of mu
    (mu_i > 0, so the child's i-th coordinate is negative) is kept iff the
    child's coordinates before i are all >= 0.

    Each listed weight carries f, its first negative coordinate (n for a
    dominant weight), which is the i that made it.  For i < f the child is kept
    with no test: for j < i, mu_j >= 0 and child_j = mu_j - mu_i alpha[i][j]
    >= mu_j.  For i > f, child_f = mu_f < 0 unless i is a neighbour of f, so
    only those i are tried; such a child is built only if child_f >= 0, and
    kept if its coordinates strictly between f and i are >= 0 too (those
    before f are, by the same bound).  s_i changes only coordinate i (to
    -mu_i) and i's Dynkin neighbours, so a child is built by updating those.

    The walk keeps no seen-set, so it relies on its root: from a non-dominant
    start it lists a wrong part of the orbit, and such a start raises
    ValueError.
    """
    start = tuple(start)
    if min(start, default=0) < 0:
        raise ValueError("orbit walk needs a dominant start")
    n = datum.rank
    near, later = _neighbours(datum.simple_root_coords)
    out = [start]
    firsts = [n]
    push, pushf = out.append, firsts.append
    for mu, f in zip(out, firsts):
        for i in range(f):
            ci = mu[i]
            if ci > 0:
                child = list(mu)
                child[i] = -ci
                for j, a in near[i]:
                    child[j] -= ci * a
                push(tuple(child))
                pushf(i)
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
    return out


def weyl_orbit(datum, start):
    """Full Weyl orbit of a weight, lexicographically sorted."""
    return sorted(walk_orbit(datum, dominant_rep(datum, start)[0]))


def _coroot_classes(datum, support):
    """(g, classes) for the support (a tuple of bools, True where a dominant
    weight's coordinate is nonzero): the generic dominant weight g of the
    support, and {<g, beta^vee>: the coefficients of one such beta^vee} over
    the positive coroots beta^vee that g does not pair to 0.

    Coroots with the same coefficients on the support pair alike with every
    weight of the support; call them a class.  g_i = B^t for the t-th i of
    the support, with B = 2m + 1 and m the largest coefficient of a coroot.
    Every coroot's coefficients lie in -m..m, so those on the support are
    the balanced base-B digits of its pairing with g, and the pairing names
    its class.
    """
    n = datum.rank
    base = 2 * max(map(max, datum.coroot_pairings)) + 1
    g = [0] * n
    for t, i in enumerate(compress(range(n), support)):
        g[i] = base ** t
    classes = {}
    for pv in datum.coroot_pairings:
        v = sum(map(mul, g, pv))
        if v and v not in classes:
            classes[v] = pv
    return g, classes


def _orbit_template(datum, support):
    """The orbit template of the support: (reps, columns), built once per
    datum and kept in ``datum._orbit_templates``.

    The stabilizer of a dominant mu is the parabolic subgroup W_J, J the
    zero coordinates of mu (Steinberg; Humphreys, Reflection Groups and
    Coxeter Groups, ch. 1), so w mu <-> w W_J is one bijection for every mu
    of one support, and coordinate k of w mu is <mu, w^-1 alpha_k^vee>, the
    pairing of mu with a coroot.  The template walks the orbit of the
    generic g of the support once (see _coroot_classes), and each
    coordinate value of the walk names the class of that coroot, or of its
    negative.  reps holds one positive coroot's coefficients per class, and
    columns[k][t] is the slot of coordinate k of the t-th weight of the
    walk in p(mu): the pairings of mu with reps, then their negatives, then
    0.  The template holds no weight of any module, only n columns of
    one-byte slots per orbit weight.  A slot fits in a byte while the
    support has at most 127 classes, which every support of every type of
    rank <= 8 has (E8's full support has 120), and so has every support
    whose orbit is within DEFAULT_ORBIT_BOUND (at most 63, on E7's full
    support); bytes() refuses a larger slot with ValueError.
    """
    template = datum._orbit_templates.get(support)
    if template is None:
        g, classes = _coroot_classes(datum, support)
        c = len(classes)
        slot = {0: 2 * c}
        for j, v in enumerate(classes):
            slot[v] = j
            slot[-v] = j + c
        walk = walk_orbit(datum, g)
        columns = tuple(bytes(map(slot.__getitem__, col)) for col in zip(*walk))
        template = datum._orbit_templates[support] = (tuple(classes.values()), columns)
    return template


def _pairing_column(coords, support, r):
    """[<mu, r^vee>] over the dominant weights of one support, given their
    coordinate columns coords: one C-level map per coordinate of the support
    that r pairs nonzero."""
    terms = [col if c == 1 else list(map(mul, col, repeat(c)))
             for col, c, s in zip(coords, r, support) if c and s]
    total = terms[0]
    for term in terms[1:]:
        total = list(map(add, total, term))
    return total


def orbit_expand(datum, doms):
    """The orbit index of the distinct dominant weights doms: {weight: index
    in doms of its dominant weight} over all their Weyl orbits.

    The dominant weights are grouped by support, and each group is read off
    its support's template (see _orbit_template) in one batch.  The orbit of
    mu is zip(*columns) with every slot replaced by its entry of p(mu).  Two
    fills give the same items in the same order, dominant-major:

    - per weight, for a group of at most as many weights as the template has
      slots: p(mu) is built for each mu, and each orbit is n C-level maps of
      p(mu).__getitem__ over the columns and a zip;
    - slot-major, for a group of more weights than slots (many dominant
      weights on a short template, as in the modules of rank 1 and 2 with
      large coordinates): each entry of p is built once as a column over the
      whole group by C-level maps on the group's coordinate columns (see
      _pairing_column), then its negation and a zero column; each template
      slot is one zip of its n columns, and the slots are read back
      dominant-major by chain.from_iterable(zip(*slots)).

    The group's orbits are chained into one dict update.  A non-dominant or
    repeated start raises ValueError before any weight is listed.
    """
    doms = [tuple(d) for d in doms]
    if min(map(min, doms), default=0) < 0:
        raise ValueError("orbit expansion needs dominant starts")
    if len(set(doms)) != len(doms):
        raise ValueError("orbit expansion needs distinct starts")
    groups = {}
    for k, mu in enumerate(doms):
        groups.setdefault(tuple(map(bool, mu)), []).append(k)
    index = {}
    for support, ks in groups.items():
        reps, columns = _orbit_template(datum, support)
        size = len(columns[0])
        if len(ks) > size:
            coords = tuple(zip(*map(doms.__getitem__, ks)))
            p = [_pairing_column(coords, support, r) for r in reps]
            p += [list(map(neg, col)) for col in p]
            p.append([0] * len(ks))
            slots = [zip(*map(p.__getitem__, slot)) for slot in zip(*columns)]
            weights = chain.from_iterable(zip(*slots))
        else:
            gets = []
            for k in ks:
                mu = doms[k]
                p = [sum(map(mul, mu, r)) for r in reps]
                p += [-x for x in p]
                p.append(0)
                gets.append(p.__getitem__)
            weights = chain.from_iterable(
                map(zip, *[map(map, gets, repeat(col)) for col in columns]))
        index.update(zip(weights, chain.from_iterable(map(repeat, ks, repeat(size)))))
    return index


class ModuleWalk:
    """The dominant weights of one module and their norms, ``doms`` and
    ``norms`` (as returned by dominant_subdominants), and its orbit index
    ``index`` (as returned by orbit_expand), expanded on first read.  All are
    shared with every later reader of the memo and must not be changed."""

    def __init__(self, datum, doms, norms):
        self.datum = datum
        self.doms = doms
        self.norms = norms

    @cached_property
    def index(self):
        # Through the module global, so that a wrapper installed on it sees the call.
        return orbit_expand(self.datum, self.doms)


@lru_cache(maxsize=1)
def module_walk(datum, lam):
    """The ModuleWalk of the module with dominant highest weight lam.

    One slot, process-wide: asking for the module that was asked for last
    reuses its closure and orbit index, and any other module replaces it, so
    the memory held is bounded by the last module.  A slot per datum would keep
    one module per group alive, and a caller who asks for the same few
    modules over and over (a benchmark reusing its inputs) would then time
    memo reads instead of kernels.
    """
    return ModuleWalk(datum, *dominant_subdominants(datum, lam))


def freudenthal(datum, lam):
    """Multiplicities of the dominant weights of the irreducible module with
    highest weight lam, via the Freudenthal recursion.

    Returns (doms, mults, index): doms sorted by increasing height deficit,
    mults[i] the multiplicity of doms[i], and index the module's orbit index
    {weight: i with doms[i] its dominant weight} (see orbit_expand).  doms
    and index come from module_walk, so they are shared and must not be
    changed.  In characteristic 0 the weight set is the union of the Weyl
    orbits of all dominant mu <= lam, so index lists exactly the module's
    weights, and a string step nu is looked up as index.get(nu): by Weyl
    invariance nu has the multiplicity of its dominant weight, and nu is not
    a weight if absent.  The recursion fills multiplicities in the order of
    doms.

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
    mu+alpha or not at all.  The denominator |lam+rho|^2 - |mu+rho|^2 is
    read off the norms the closure carried down (see dominant_subdominants),
    so no quadratic form is evaluated per dominant weight.

    Every dominant weight below lam has multiplicity >= 1 in characteristic
    0, so a multiplicity that is not a positive integer is a fault and raises
    AssertionError.
    """
    walk = module_walk(datum, lam)
    doms, norms, index = walk.doms, walk.norms, walk.index
    get = index.get
    steps = tuple(zip(datum.positive_root_coords, datum.coroot_pairings, datum.root_half_lengths))
    qlam, scale = norms[0], 2 * datum.form_denominator
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
        denom = qlam - norms[idx]
        num = scale * sum(sums)
        if denom <= 0 or num <= 0 or num % denom:
            raise AssertionError(
                f"Freudenthal recursion gave {mu} the multiplicity {num}/{denom}, "
                "not a positive integer"
            )
        mults[idx] = num // denom
    return doms, mults, index
