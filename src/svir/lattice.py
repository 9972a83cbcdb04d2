"""Rank-n index lattice, its half-integer coset, cones and unimodular bases.

Even indices are integer vectors; odd indices live on the coset sigma + Z^n
where 2*sigma is integral.  Index vectors embed into the scalar field as
linear combinations of the d-indeterminates, so all identity checking stays
exact and symbolic.

Values here are immutable, and index vectors are interned: one
IndexVector object per value, so equality and hashing are identity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor, prod

from .scalar import InputError, ScalarContext, ScalarExpr, as_fraction


# an index's parity is one bit: 0 on the integer lattice, 1 on the coset
EVEN, ODD = 0, 1
PARITY_NAMES = ("even", "odd")


class _Frozen:
    """Base of the immutable value classes: the fields are the slots, set
    once by _set and never assigned after, and the repr lists them."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _Interned(_Frozen):
    """Base of the interned symbol classes: one object per value in the
    process, so == and hash are identity.  A subclass's __new__ looks its
    key up in its own table and, on a miss, validates and calls _intern.
    The tables are process-wide, append-only and unlocked; they serve one
    thread."""

    __slots__ = ()

    @classmethod
    def _intern(cls, table, key, *fields):
        self = table[key] = object.__new__(cls)
        self._set(*fields)
        return self


_INDEXES = {}   # (twice, parity) -> IndexVector


class IndexVector(_Interned):
    """Index stored as twice its coordinates (ints on both cosets) and its
    parity bit, EVEN or ODD.  Interned: one object per value.

    The index protocol: the bracket and action tables, the symbols and
    FormalSum use an index only through +, -, is_zero(), parity, twice
    (to order symbols), str, hashing, config.embed and
    config.embed_plus_half.  Another index type, such as a symbolic one,
    implements exactly that.
    """

    __slots__ = ("twice", "parity")
    __hash__ = object.__hash__  # in the class dict, where bench/tracer.py wraps it

    def __new__(cls, twice, parity):
        key = (twice, parity)
        self = _INDEXES.get(key)
        return cls._intern(_INDEXES, key, twice, parity) if self is None else self

    @property
    def coords(self):
        return tuple(Fraction(t, 2) for t in self.twice)

    def __add__(self, other):
        return IndexVector(tuple(a + b for a, b in zip(self.twice, other.twice)),
                           self.parity ^ other.parity)

    def __neg__(self):
        return IndexVector(tuple(-a for a in self.twice), self.parity)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, m: int):
        if self.parity != EVEN:
            raise InputError("only even index vectors support integer scaling")
        return IndexVector(tuple(a * m for a in self.twice), EVEN)

    def is_zero(self):
        return not any(self.twice)

    def __str__(self):
        return _literal(self.coords)


def _literal(coords):
    return "[" + ",".join(str(c) for c in coords) + "]"


class AlgebraConfig:
    """Session configuration: rank, d-indeterminates, coset offset sigma.

    The scalar context is derived from the d-names plus any extra parameter
    names; it is fixed for the lifetime of the config.
    """

    def __init__(self, n, d_names, sigma, extra_names=()):
        if n < 1:
            raise InputError("rank must be positive")
        d_names = tuple(d_names)
        if len(d_names) != n:
            raise InputError("need exactly one d-name per rank")
        twice = tuple(2 * as_fraction(s) for s in sigma)
        if len(twice) != n:
            raise InputError("sigma must have one entry per rank")
        if any(t.denominator != 1 for t in twice):
            raise InputError("2*sigma must be integral")
        self.n = n
        self.d_names = d_names
        self.sigma_index = IndexVector(tuple(int(t) for t in twice), ODD)
        self.ctx = ScalarContext(d_names + tuple(extra_names))
        self._embed_cache = {}

    # -- index construction -------------------------------------------------

    def index(self, coords, parity) -> IndexVector:
        coords = tuple(as_fraction(c) for c in coords)
        if len(coords) != self.n:
            raise InputError(f"expected {self.n} coordinates, got {len(coords)}")
        twice = tuple(2 * c for c in coords)
        offset = self._offset(parity)
        if any((t - o) % 2 for t, o in zip(twice, offset)):
            raise InputError(
                f"coordinates {_literal(coords)} are not in the {PARITY_NAMES[parity]} class")
        return IndexVector(tuple(int(t) for t in twice), parity)

    def _offset(self, parity):
        """Twice the coset offset of a parity class: 2*sigma or zero."""
        return self.sigma_index.twice if parity == ODD else (0,) * self.n

    def even(self, coords) -> IndexVector:
        return self.index(coords, EVEN)

    def odd(self, coords) -> IndexVector:
        return self.index(coords, ODD)

    def unit(self, i) -> IndexVector:
        return IndexVector(tuple(2 if j == i else 0 for j in range(self.n)), EVEN)

    # -- scalars -------------------------------------------------------------

    def var(self, name) -> ScalarExpr:
        return self.ctx.var(name)

    def scalar(self, value) -> ScalarExpr:
        return self.ctx.scalar(value)

    def embed(self, v: IndexVector) -> ScalarExpr:
        """Linear embedding sum(c_i * d_i); injective on the half-integer lattice."""
        return self._embedded(v.twice)

    def embed_plus_half(self, v: IndexVector, w: IndexVector) -> ScalarExpr:
        """embed(v) + embed(w)/2 for an even w, read from the embed cache: embed
        is linear, and v + w/2 has integral twice-coordinates."""
        if w.parity != EVEN:
            raise ValueError("embed_plus_half halves an even index only")
        return self._embedded(tuple(a + b // 2 for a, b in zip(v.twice, w.twice)))

    def _embedded(self, twice):
        cached = self._embed_cache.get(twice)
        if cached is None:
            cached = self.ctx.zero
            for t, name in zip(twice, self.d_names):
                if t:
                    cached = cached + self.ctx.var(name) * Fraction(t, 2)
            self._embed_cache[twice] = cached
        return cached

    # -- finite boxes ----------------------------------------------------------

    def _ranges(self, radius, parity):
        """Per coordinate, the twice-coordinates of one parity with |coordinate| <= radius."""
        top = floor(2 * as_fraction(radius))
        return [range(-top + (top + o) % 2, top + 1, 2) for o in self._offset(parity)]

    def box(self, radius, parity):
        """All vectors of one parity with every |coordinate| <= radius, in lex order."""
        return tuple(IndexVector(t, parity)
                     for t in itertools.product(*self._ranges(radius, parity)))

    def box_size(self, radius, parity) -> int:
        """len(self.box(radius, parity)), without enumerating the box."""
        # counted by hand: len() of a range stops at sys.maxsize
        return prod(max(0, (r.stop - r.start + 1) // 2) for r in self._ranges(radius, parity))


# ---------------------------------------------------------------------------
# Integer bases
# ---------------------------------------------------------------------------

class LatticeBasis(_Frozen):
    """n x n integer matrix; row i holds the coordinates of the i-th basis
    vector relative to the reference basis.  Equal rows, equal bases."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("basis matrix must be square")
        if any(as_fraction(x).denominator != 1 for row in rows for x in row):
            raise InputError(f"basis entries must be integers, got {_matrix_literal(rows)}")
        self._set(tuple(tuple(int(x) for x in row) for row in rows))

    def __eq__(self, other):
        if type(other) is not LatticeBasis:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row_vector(self, i) -> IndexVector:
        return IndexVector(tuple(2 * x for x in self.rows[i]), EVEN)

    def __str__(self):
        return _matrix_literal(self.rows)


def _matrix_literal(rows):
    return "[" + ",".join("[" + ",".join(str(x) for x in r) + "]" for r in rows) + "]"


class ConeSpec(_Frozen):
    """All vectors whose coordinates in `basis` are >= k (even: integers,
    odd: half-integers)."""

    __slots__ = ("basis", "k", "parity")

    def __init__(self, basis: LatticeBasis, k: int, parity: int):
        if k < 0:
            raise InputError("cone level k must be nonnegative")
        self._set(basis, k, parity)


def unimodular_det(basis: LatticeBasis) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = basis.n
    a = [list(row) for row in basis.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- exact rational linear algebra helpers -----------------------------------

def _solve_combination(rows, target):
    """Solve sum x_i * rows[i] = target over Q.

    Returns the coefficient list, or None when target is outside the row
    span.  Raises InputError if the rows are linearly dependent.
    """
    k = len(rows)
    m = len(target)
    # columns of the transposed system, augmented with the target
    aug = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])]
           for j in range(m)]
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            raise InputError("basis rows must be linearly independent")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, m):
        if aug[i][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


def change_of_coords(v: IndexVector, bprime: LatticeBasis):
    """Exact coordinates of v in the basis bprime; round-trips with embed."""
    if abs(unimodular_det(bprime)) != 1:
        raise InputError("change of coordinates needs a unimodular basis")
    coords = _solve_combination(bprime.rows, v.coords)
    return tuple(coords)


def cone_member(v: IndexVector, cone: ConeSpec) -> bool:
    """Membership in the level-k cone of the cone's basis."""
    if v.parity != cone.parity:
        raise InputError("vector parity does not match the cone parity")
    return all(c >= cone.k for c in change_of_coords(v, cone.basis))


# ---------------------------------------------------------------------------
# Constructive bases
# ---------------------------------------------------------------------------

def nested_cone_basis(n, k) -> LatticeBasis:
    """Basis whose nonnegative cone sits inside the level-k cone of the
    reference basis.

    Row i (1-based) is sum_{j<=i} (k+i-j+1) d_j + k * sum_{j>i} d_j.  The
    determinant is exactly +1 for every rank n >= 2 and k >= 0 (at rank 1
    it would be k+1, so rank 1 is rejected).
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    if n < 2:
        raise InputError("rank must be at least 2")
    rows = []
    for i in range(1, n + 1):
        row = [(k + i - j + 1) if j <= i else k for j in range(1, n + 1)]
        rows.append(tuple(row))
    return LatticeBasis(tuple(rows))


def cone_inclusion_check(k, bprime: LatticeBasis) -> tuple:
    """Violations of the level-k cone inclusion: every nonzero nonnegative
    integer combination of the rows of bprime has all reference coordinates
    >= k.

    For k >= 0 it holds exactly when every basis entry is >= k: coordinate
    j of the combination m is sum m_i * row_i[j] >= k * sum m_i >= k, and a
    row with an entry below k is itself a violating combination.  Each such
    row is returned as a (unit combination, row) pair, so an empty tuple
    means the inclusion holds.
    """
    if k < 0:
        raise InputError("cone level k must be nonnegative")
    n = bprime.n
    return tuple((tuple(int(i == j) for j in range(n)), row)
                 for i, row in enumerate(bprime.rows) if min(row) < k)


class AdaptedBasis(_Frozen):
    """Unimodular basis assembled from integer multiples of a vector mu plus
    unit steps, together with the normalization bookkeeping."""

    __slots__ = ("basis",        # a LatticeBasis
                 "case",         # "two_nonzero" or "some_zero"
                 "sign_flips",   # +1/-1 per coordinate making mu nonnegative
                 "permutation",  # slot i was filled from original coordinate permutation[i]
                 "chains")       # (step, copies) per row: row = (copies + 1)*mu + step

    def __init__(self, basis, case, sign_flips, permutation, chains):
        self._set(basis, case, sign_flips, permutation, chains)


def adapted_cone_basis(mu: IndexVector) -> AdaptedBasis:
    """Build a unimodular basis from mu and unit vectors.

    With nonnegative coordinates m_i (sign flips recorded), the rows are
    m2*mu + d1, m1*mu - d2 and (row1 + d_i) when m1 and m2 are both nonzero;
    otherwise a zero coordinate is permuted to the front and the rows are
    mu + d1 and (row1 + d_i).  |det| = 1 in both cases; mu = 0 falls into
    the second case.  Each row is recorded as a step, an even index with
    coordinates in {-1, 0, 1}, plus copies + 1 multiples of mu.
    """
    if mu.parity != EVEN:
        raise InputError("the adapted basis is built from an even vector")
    n = len(mu.twice)
    if n < 2:
        raise InputError("rank must be at least 2")
    m = [t // 2 for t in mu.twice]
    flips = tuple(-1 if mi < 0 else 1 for mi in m)
    mt = [abs(mi) for mi in m]

    def unit(i, s):
        return tuple(s if j == i else 0 for j in range(n))

    def vadd(*vecs):
        return tuple(sum(parts) for parts in zip(*vecs))

    if mt[0] != 0 and mt[1] != 0:
        case = "two_nonzero"
        perm = tuple(range(n))
        d1 = unit(0, flips[0])
        chains = [(d1, mt[1] - 1), (unit(1, -flips[1]), mt[0] - 1)]
        chains += [(vadd(d1, unit(i, flips[i])), mt[1] - 1) for i in range(2, n)]
    else:
        case = "some_zero"
        z = mt.index(0)
        perm = (z,) + tuple(i for i in range(n) if i != z)
        d1 = unit(z, flips[z])
        chains = [(d1, 0)] + [(vadd(d1, unit(i, flips[i])), 0) for i in perm[1:]]
    rows = tuple(vadd([c * (copies + 1) for c in m], step) for step, copies in chains)
    chains = tuple((IndexVector(tuple(2 * c for c in step), EVEN), copies)
                   for step, copies in chains)
    return AdaptedBasis(LatticeBasis(rows), case, flips, perm, chains)


# ---------------------------------------------------------------------------
# Isomorphism criterion
# ---------------------------------------------------------------------------

def iso_check(m_basis, s, mprime_basis, sprime, alpha) -> bool:
    """Decide whether alpha carries (M, s) onto (M', s').

    The lattices are given by rational coordinate matrices over a shared
    ambient space (rows are basis vectors).  Returns True exactly when
    alpha*M = M' as lattices and s' - alpha*s lies in M'.
    """
    alpha = as_fraction(alpha)
    if alpha == 0:
        raise InputError("alpha must be nonzero")
    a_rows = [tuple(as_fraction(x) for x in row) for row in m_basis]
    ap_rows = [tuple(as_fraction(x) for x in row) for row in mprime_basis]
    s = tuple(as_fraction(x) for x in s)
    sp = tuple(as_fraction(x) for x in sprime)
    if len(a_rows) != len(ap_rows):
        raise InputError("lattices must have the same rank")
    if not a_rows:
        raise InputError("the lattices must have positive rank")
    ambient = len(a_rows[0])
    if any(len(r) != ambient for r in a_rows + ap_rows) or len(s) != ambient or len(sp) != ambient:
        raise InputError("all vectors must share one ambient dimension")

    scaled = [tuple(alpha * x for x in row) for row in a_rows]
    transition = []
    for row in ap_rows:
        coeffs = _solve_combination(scaled, row)
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            return False
        transition.append(tuple(int(c) for c in coeffs))
    if abs(unimodular_det(LatticeBasis(tuple(transition)))) != 1:
        return False

    shift = tuple(x - alpha * y for x, y in zip(sp, s))
    coeffs = _solve_combination(ap_rows, shift)
    if coeffs is None or any(c.denominator != 1 for c in coeffs):
        return False
    return True
