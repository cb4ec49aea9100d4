"""Root data for the simple types A-G, built in integers from Bourbaki's
Dynkin diagrams.

The Cartan matrix comes from the diagram's edges and root lengths.  The
positive roots are built from the simple roots along root strings, height by
height, each with its simple-root coefficients and length.  One
fraction-free determinant and adjugate of the Cartan matrix give the
invariant form on the weight lattice, the simple-root coefficients of any
other weight (``root_coefficients``) and, for families A-D, the
epsilon-coordinates of the fundamental weights as integer rows h_i omega_i =
sum_j c_ij e_j (``epsilon_rows``; h_i = 2 on the B and D spin weights, else
1; A's rows are e_1 + ... + e_i).  Rationals appear only in values computed
on demand: ``form`` and ``epsilon_values`` (trace-zero for A), both read off
the integer tables.

Conventions (fixed throughout the package):

* A weight is the integer vector of its pairings with the simple coroots,
  ``coords[i] = <mu, alpha_i^vee>`` (the omega-basis).  Dominant means all
  coordinates >= 0.
* ``cartan[i][j] = <alpha_j, alpha_i^vee>``; consequently the omega-basis
  coordinate vector of the simple root ``alpha_j`` is the j-th *column* of
  the Cartan matrix.
* The invariant form is normalized so that short roots have squared length
  2 (long roots 4, or 6 in G2).
* Simple roots are ordered as in the Bourbaki plates.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from operator import add, attrgetter, floordiv, gt, mul

from .exceptions import DatumMismatchError, UnsupportedRootSystemError

# Rank ranges per family.  The classical families stop at 32, so a huge rank
# is rejected before its build, whose cost grows faster than n^3.
SUPPORTED_RANGES = {
    "A": (1, 32),
    "B": (2, 32),
    "C": (2, 32),
    "D": (4, 32),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class Record:
    """Base of the package's value types: plain slotted classes that compare,
    copy and print by the fields named in ``_fields`` (two or more).  The
    methods are written once here rather than generated per class, so
    importing the package runs no code generation and imports no
    ``inspect``.

    Equality holds only between instances of the same class.  A subclass
    defines ``__slots__`` and an explicit ``__init__``; ``copy`` and
    ``pickle`` rebuild an instance by calling the class on its fields.  A
    Record is mutable and unhashable; see ``FrozenRecord``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._astuple = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __reduce__(self):
        return (self.__class__, self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple(self)))
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """Immutable Record: setting or deleting an attribute raises
    AttributeError, and the hash is that of the field tuple (so a record
    with a dict field is unhashable).  ``__init__`` sets the slots through
    their descriptors, e.g. ``_set_x = Cls.x.__set__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._astuple(self))


class Weight(FrozenRecord):
    """Integer vector in the fundamental-weight basis, bound to a datum.

    Immutable: setting or deleting an attribute raises AttributeError.
    """

    __slots__ = _fields = ("coords", "datum")

    def __init__(self, coords: tuple, datum: "RootDatum"):
        if len(coords) != datum.rank:
            raise ValueError(
                f"weight has {len(coords)} coordinates, datum rank is {datum.rank}"
            )
        _set_coords(self, coords)
        _set_datum(self, datum)

    def __repr__(self):
        return f"Weight(coords={self.coords!r})"

    def __hash__(self):
        return hash((self.coords, id(self.datum)))

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        self._check(other)
        return self.coords == other.coords

    def _check(self, other):
        if other.datum is not self.datum:
            raise DatumMismatchError("weights bound to different root data")

    def __add__(self, other):
        self._check(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)), self.datum)

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords), self.datum)

    @property
    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    @property
    def is_zero(self):
        return not any(self.coords)

    def __str__(self):
        return f"{self.datum.name}:[{','.join(str(c) for c in self.coords)}]"


_set_coords = Weight.coords.__set__
_set_datum = Weight.datum.__set__


class RootDatum:
    """Immutable description of a simple root system.

    Construction is deterministic; instances are cached per (family, rank)
    and safe to share across threads.  Copying or pickling a datum gives the
    cached one of its (family, rank).
    """

    def __init__(self, family, rank):
        self.family = family
        self.rank = rank
        self.name = f"{family}{rank}"
        n = rank
        d, edges = _dynkin(family, rank)
        # cartan[i][j] = <alpha_j, alpha_i^vee> = (alpha_i, alpha_j)/d_i, and
        # joined nodes have (alpha_i, alpha_j) = -max(d_i, d_j).
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            cartan[i][j] = -max(d[i], d[j]) // d[i]
            cartan[j][i] = -max(d[i], d[j]) // d[j]
        self.cartan = tuple(tuple(r) for r in cartan)
        self._d = d  # (alpha_i, alpha_i)/2

        # Omega-coordinates of alpha_i: i-th column of the Cartan matrix.
        self.simple_root_coords = tuple(
            tuple(self.cartan[j][i] for j in range(n)) for i in range(n)
        )

        # adj = det * cartan^-1, so omega_i = sum_k adj[k][i]/det alpha_k and
        # (omega_i, omega_k) = d_k adj[k][i]/det.
        det, adj = det_adjugate(cartan)
        self.cartan_det = det
        self.cartan_t_adj = tuple(tuple(adj[j][i] for j in range(n)) for i in range(n))
        # det * ht(omega_i), ht the sum of simple-root coefficients: a weight's
        # coordinates dotted with this row give det times its height.
        self.height_row = tuple(map(sum, self.cartan_t_adj))
        raw = [[d[k] * adj[k][i] for k in range(n)] for i in range(n)]
        g = math.gcd(det, *(x for row in raw for x in row))
        # Invariant form on the weight lattice:
        # (omega_i, omega_j) = form_scaled[i][j] / form_denominator.
        self.form_denominator = det // g
        self.form_scaled = tuple(tuple(x // g for x in row) for row in raw)

        self.rho = Weight((1,) * n, self)
        self.simple_roots = tuple(Weight(c, self) for c in self.simple_root_coords)
        # Per positive root, in order of height: simple-root coefficients,
        # omega-coordinates and (alpha, alpha)/2.
        roots = self._generate_positive_roots()
        expected = POSITIVE_ROOT_COUNTS[family](rank)
        if len(roots) != expected:
            raise AssertionError(
                f"{self.name}: built {len(roots)} positive roots, expected {expected}"
            )
        self.positive_root_coords = tuple(coords for _, coords, _ in roots)
        self.positive_roots = tuple(Weight(coords, self) for coords in self.positive_root_coords)
        self.root_half_lengths = tuple(half for _, _, half in roots)
        self.positive_root_heights = tuple(sum(cf) for cf, _, _ in roots)
        # Root batches for TorusElement.residues (columns[i][r] is coordinate
        # i of root r) and their largest |coordinate|, 3 for G2, else 2.
        self.positive_root_columns = tuple(zip(*self.positive_root_coords))
        self.root_coordinate_bound = max(max(map(abs, c)) for c in self.positive_root_columns)

        # The highest root is the unique root of greatest height, and the
        # highest short root the unique short root of greatest height
        # (Bourbaki, Lie VI 1.8; Humphreys, Lie Algebras 10.4).
        self.highest_root = self.positive_roots[-1]
        short = [r for r, half in zip(self.positive_roots, self.root_half_lengths) if half == 1]
        self.highest_short_root = short[-1]

        # Per positive root: the coroot pairings <omega_i, alpha^vee> =
        # c_i (alpha_i, alpha_i) / (alpha, alpha), integers since alpha^vee
        # lies in the coroot lattice; height and support for weyl_order.
        self.coroot_pairings = tuple(
            tuple(map(floordiv, map(mul, c, d), repeat(half))) for c, _, half in roots
        )
        # prod <rho, alpha^vee>: the denominator of the Weyl dimension formula.
        self.rho_coroot_product = math.prod(sum(pv) for pv in self.coroot_pairings)
        self._root_heights_supports = tuple(
            (h, frozenset(compress(range(n), c)))
            for h, (c, _, _) in zip(self.positive_root_heights, roots)
        )
        self._weyl_orders = {}
        self._levels = {}  # dominant coords -> (weights.weight_level, True)
        self._level_steps = None  # weights._level_steps
        self._strata = {}  # depth -> torus.canonical_root_strata
        self._orbit_templates = {}  # support -> kernels._orbit_template

        # Bourbaki epsilon-coordinates of omega_i = sum_j adj[j][i]/det alpha_j
        # as integer rows (h_i, c_i); A's are shifted to e_1 + ... + e_i.
        self.epsilon_rows = None
        if family in "ABCD":
            eps_simple = _simple_roots_eps(family, rank)
            vs = [vec_mat(adj_i, eps_simple) for adj_i in self.cartan_t_adj]
            if family == "A":
                vs = [[x - v[-1] for x in v] for v in vs]
            gs = [math.gcd(det, *v) for v in vs]
            self.epsilon_rows = tuple((det // g, tuple(x // g for x in v)) for g, v in zip(gs, vs))

    # -- construction helpers -------------------------------------------------

    def _generate_positive_roots(self):
        """(coefficients, omega-coordinates, (beta, beta)/2) per positive root
        beta, sorted by height and then by coordinates.

        The roots are built from the simple roots height by height, along
        root strings (Humphreys, Lie Algebras 8.4, 10.4).  The alpha_i-string
        through beta runs unbroken from beta - p alpha_i to beta + q alpha_i
        with p - q = <beta, alpha_i^vee> = coords[i], so beta + alpha_i is a
        root iff p > coords[i].  Each root carries its p per i: 0 for a
        simple root, and p_i(beta + alpha_i) = p_i(beta) + 1.  A root gamma
        of the next height is reached from every root gamma - alpha_j, all of
        this height, so each p_j(gamma) > 0 is set before gamma's height is
        walked.  Lengths follow as (beta + alpha_i, beta + alpha_i)/2 =
        (beta, beta)/2 + d_i (coords[i] + 1).
        """
        n, alpha, d = self.rank, self.simple_root_coords, self._d
        indices = range(n)
        # omega-coordinates -> [coefficients, p, (beta, beta)/2]
        level = {a: [tuple(int(i == j) for j in indices), [0] * n, d[i]]
                 for i, a in enumerate(alpha)}
        out = []
        while level:
            out.extend(sorted(level.items()))
            above = {}
            for coords, (cf, p, half) in level.items():
                for i in compress(indices, map(gt, p, coords)):
                    up = tuple(map(add, coords, alpha[i]))
                    entry = above.get(up)
                    if entry is None:
                        entry = above[up] = [cf[:i] + (cf[i] + 1,) + cf[i + 1:], [0] * n,
                                             half + d[i] * (coords[i] + 1)]
                    entry[1][i] = p[i] + 1
            level = above
        return [(cf, coords, half) for coords, (cf, _, half) in out]

    # -- public helpers --------------------------------------------------------

    def weight(self, coords):
        return Weight(tuple(int(c) for c in coords), self)

    def zero(self):
        return Weight((0,) * self.rank, self)

    def fundamental_weight(self, i):
        """omega_i with 1-based index i."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"fundamental weight index {i} out of range 1..{self.rank}")
        return Weight(tuple(int(j == i - 1) for j in range(self.rank)), self)

    def root_coefficients(self, weight):
        """Coefficients of a radical weight over the simple roots, or None.
        They solve cartan @ cf = coords (column j of cartan is alpha_j), so
        cf = adj @ coords / det, and a remainder means the weight is not radical."""
        coords = weight.coords if isinstance(weight, Weight) else tuple(weight)
        det = self.cartan_det
        cf = []
        for v in vec_mat(coords, self.cartan_t_adj):
            if v % det:
                return None
            cf.append(v // det)
        return tuple(cf)

    def form(self, mu, nu):
        """Invariant symmetric bilinear form (mu, nu), exact rational."""
        total = 0
        for a, row in zip(mu.coords, self.form_scaled):
            if a:
                total += a * sum(b * x for b, x in zip(nu.coords, row))
        return Fraction(total, self.form_denominator)

    def weyl_order(self, support=None):
        """Order of the Weyl group, or of the parabolic generated by the
        simple reflections in ``support`` (an iterable of 0-based indices).

        The positive roots supported in J form the root system of W_J.  If
        r_h of them have height h, the exponents m_1..m_|J| of W_J are the
        dual partition, m_k = #{h : r_h >= k}, and |W_J| = prod (m_k + 1)
        (Kostant; Humphreys, Reflection Groups and Coxeter Groups, 3.9, 3.20).
        An index outside 0..rank-1 raises ValueError.
        """
        key = frozenset(range(self.rank) if support is None else support)
        order = self._weyl_orders.get(key)
        if order is None:
            # Only valid supports are memoized, so every bad one reaches this.
            bad = key - frozenset(range(self.rank))
            if bad:
                raise ValueError(
                    f"simple-root indices {set(bad)} out of range "
                    f"0..{self.rank - 1} for {self.name}"
                )
            per_height = Counter(h for h, s in self._root_heights_supports if s <= key)
            order = 1
            for k in range(1, per_height[1] + 1):
                order *= 1 + sum(1 for r in per_height.values() if r >= k)
            self._weyl_orders[key] = order
        return order

    def __reduce__(self):
        # Copies and pickles resolve to the cached datum, so the Weight
        # equality, which needs the same datum object, holds across them.
        return (build_root_datum, (self.family, self.rank))

    def __repr__(self):
        return f"RootDatum({self.family!r}, {self.rank})"


def vec_mat(v, m):
    """Row vector times matrix: one dot product of v with each column."""
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


def det_adjugate(a):
    """Determinant and adjugate of a square integer matrix: (det, adj) with
    adj = det * a^-1, or (0, None) if a is singular.

    Bareiss's fraction-free Gauss-Jordan elimination on [a | I] (Math. Comp.
    22, 1968): after step k every entry is a (k+1)-minor, so each division by
    the previous pivot is exact, and the last pivot is +-det with the right
    block +-adj.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev, sign = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rk = m[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                ri = m[i]
                f = ri[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def _dynkin(family, rank):
    """Bourbaki's Dynkin diagram (Lie VI, Plates I-IX): d_i = (alpha_i,
    alpha_i)/2, short roots having d = 1, and the 0-based pairs of joined
    nodes."""
    n = rank
    edges = [(i, i + 1) for i in range(n - 1)]
    d = (1,) * n
    if family == "B":
        d = (2,) * (n - 1) + (1,)
    elif family == "C":
        d = (1,) * (n - 1) + (2,)
    elif family == "D":
        edges[-1] = (n - 3, n - 1)
    elif family == "E":
        edges = [(0, 2), (1, 3)] + edges[2:]
    elif family == "F":
        d = (2, 2, 1, 1)
    elif family == "G":
        d = (1, 3)
    return d, edges


def _simple_roots_eps(family, rank):
    """Bourbaki simple roots of families A-D in epsilon-coordinates."""
    n = rank
    width = n + 1 if family == "A" else n
    roots = []
    for i in range(n - (family != "A")):
        v = [0] * width
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    if family != "A":
        v = [0] * n
        if family == "D":
            v[n - 2] = v[n - 1] = 1
        else:
            v[n - 1] = 1 if family == "B" else 2
        roots.append(tuple(v))
    return roots


_cached_root_datum = lru_cache(maxsize=None)(RootDatum)


def build_root_datum(family: str, rank: int) -> RootDatum:
    """Construct (or fetch the cached) root datum for a simple type.

    Supported: A 1..32, B 2..32, C 2..32, D 4..32, E6/E7/E8, F4, G2.  The
    arguments are validated and the family upper-cased before the cache is
    consulted, so ("a", 3) and ("A", 3) give the same datum.
    """
    family = str(family).upper()
    if family not in SUPPORTED_RANGES:
        raise UnsupportedRootSystemError(
            f"unknown family {family!r}; valid families are A, B, C, D, E, F, G"
        )
    lo, hi = SUPPORTED_RANGES[family]
    if isinstance(rank, bool) or not isinstance(rank, int) or not lo <= rank <= hi:
        raise UnsupportedRootSystemError(
            f"{family}{rank} is not supported; valid ranks for {family} are {lo}..{hi}"
        )
    return _cached_root_datum(family, rank)


# Lets callers empty the datum cache, e.g. to model a fresh process.
build_root_datum.cache_clear = _cached_root_datum.cache_clear


def parse_group(text: str) -> RootDatum:
    """Parse a group name like 'A3' or 'E8'."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in SUPPORTED_RANGES or not text[1:].isdecimal():
        raise UnsupportedRootSystemError(
            f"cannot parse group {text!r}; expected FAMILY + rank, e.g. A3, C2, E8"
        )
    return build_root_datum(text[0].upper(), int(text[1:]))


def e_constant(datum: RootDatum) -> int:
    """Prime threshold constant: 1 for A/D/E, 2 for B/C/F, 3 for G."""
    return {"A": 1, "D": 1, "E": 1, "B": 2, "C": 2, "F": 2, "G": 3}[datum.family]


def _epsilon_rows(datum):
    """``datum.epsilon_rows``, which only families A-D have."""
    if datum.epsilon_rows is None:
        raise UnsupportedRootSystemError(
            f"epsilon coordinates are only defined for families A-D, not {datum.name}"
        )
    return datum.epsilon_rows


def epsilon_values(datum: RootDatum, mu: Weight) -> tuple:
    """Bourbaki epsilon-coordinates of a weight (families A-D) as Fractions,
    sum_i mu_i c_i / h_i over the integer rows ``epsilon_rows``.

    For family A the mean is subtracted, giving the representative in the
    trace-zero hyperplane; differences of coordinates (hence roots and the
    lattice structure) are normalization independent, and the
    omega-coordinates round-trip exactly.
    """
    rows = _epsilon_rows(datum)
    if mu.datum is not datum:
        raise DatumMismatchError("weight bound to a different datum")
    vals = vec_mat([Fraction(m, h) for m, (h, _) in zip(mu.coords, rows)], [c for _, c in rows])
    if datum.family == "A":
        mean = sum(vals) / len(vals)
        vals = tuple(x - mean for x in vals)
    return vals


def weight_from_epsilon(datum: RootDatum, eps: tuple) -> Weight:
    """Inverse of epsilon_values on the weight lattice (families A-D): the
    coordinates 2 (x, alpha_i) / (alpha_i, alpha_i) over Bourbaki's simple
    roots, in the ambient dot product.  A vector of the wrong length or
    off the weight lattice raises ValueError."""
    width = len(_epsilon_rows(datum)[0][1])
    if len(eps) != width:
        raise ValueError(f"{datum.name} needs {width} epsilon coordinates, got {len(eps)}")
    x = [Fraction(v) for v in eps]
    coords = []
    for a in _simple_roots_eps(datum.family, datum.rank):
        c = 2 * sum(map(mul, x, a)) / sum(map(mul, a, a))
        if c.denominator != 1:
            raise ValueError(f"epsilon vector {eps} is not in the weight lattice of {datum.name}")
        coords.append(int(c))
    return Weight(tuple(coords), datum)
