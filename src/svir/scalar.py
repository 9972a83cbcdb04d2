"""Exact arithmetic in a field of multivariate rational functions.

Every coefficient in the engine lives in Q(t1,...,tm) for a fixed, ordered
set of indeterminates declared once per session.  Values are quotients of
sparse polynomials kept in a canonical form (numerator and denominator
coprime, denominator monic in the fixed monomial order), so structural
equality decides mathematical equality and ``is_zero`` is an exact test.
A polynomial holds integer coefficients over one positive integer
denominator, so its arithmetic is integer arithmetic; ``Fraction`` is only
where a rational enters or leaves a polynomial.

Denominators are factored.  The context keeps an append-only base of monic
linear polynomials, each irreducible, and every denominator is the product
of powers of base factors and a monic cofactor the base does not cover (1
in practice).  So ``*`` adds exponents, ``+`` brings both terms to the
larger exponents, and cancellation is trial division by the base factors,
with a gcd only against a cofactor.  The denominator is still kept
expanded, interned by the context, so printing and equality see the same
canonical polynomial.

All values are immutable.  A context's tables only grow; they are not
locked, so a context and its values belong to one thread.
"""

from __future__ import annotations

import operator
import re
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

_ZERO = Fraction(0)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*\Z")


class InputError(ValueError):
    """Bad input: the one exception the CLI reports as a usage error (exit 2)."""


class ScalarDivisionError(InputError, ZeroDivisionError):
    """Division by the zero rational function."""


def as_fraction(value) -> Fraction:
    """Coerce to an exact rational; floats are rejected by design."""
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact scalars")
    return Fraction(value)


# ---------------------------------------------------------------------------
# Sparse polynomials
# ---------------------------------------------------------------------------

class PolyExact:
    """Sparse multivariate polynomial over Q: ``terms`` maps an exponent
    tuple to a nonzero int, and every coefficient is divided by the one
    positive int ``den``.

    The form is canonical: gcd(den, *coefficients) == 1, and zero is {}
    over 1.  The monomial order is lexicographic on exponent tuples with
    the first indeterminate most significant; the leading term of a nonzero
    polynomial is the lex-largest exponent tuple.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms, den=1):
        # trusted: no zero coefficients, and gcd(den, *terms.values()) == 1
        self.terms = terms
        self.den = den

    @classmethod
    def from_terms(cls, items):
        """Sum (exponent tuple, rational) items."""
        acc = {}
        for exps, coeff in items:
            acc[exps] = acc.get(exps, _ZERO) + coeff
        den = lcm(*(c.denominator for c in acc.values()))
        return _canonical({e: int(c * den) for e, c in acc.items() if c}, den)

    @classmethod
    def constant(cls, value, nvars):
        value = as_fraction(value)
        if not value:
            return cls({})
        return cls({(0,) * nvars: value.numerator}, value.denominator)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def leading_coeff(self):
        return Fraction(self.terms[max(self.terms)], self.den)

    def add(self, other):
        if not self.terms:
            return other
        if not other.terms:
            return self
        den, terms, more = self.den, dict(self.terms), other.terms
        if other.den != den:
            den = lcm(den, other.den)
            terms = _times(terms, den // self.den)
            more = _times(more, den // other.den)
        for exps, coeff in more.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                del terms[exps]
        return _canonical(terms, den)

    def neg(self):
        return PolyExact({e: -c for e, c in self.terms.items()}, self.den)

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        if not self.terms or not other.terms:
            return PolyExact({})
        if len(other.terms) == 1 and not any(next(iter(other.terms))):
            self, other = other, self
        if len(self.terms) == 1 and not any(next(iter(self.terms))):
            (c,) = self.terms.values()
            if c == 1 and self.den == 1:
                return other
            return _canonical(_times(other.terms, c), other.den * self.den)
        add = operator.add
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc = terms.get(e, 0) + c1 * c2
                if acc:
                    terms[e] = acc
                else:
                    del terms[e]
        return _canonical(terms, self.den * other.den)

    def scale(self, coeff):
        """Multiply by a rational (an int or a Fraction)."""
        if not coeff:
            return PolyExact({})
        return _canonical(_times(self.terms, coeff.numerator), self.den * coeff.denominator)

    def monic(self):
        """Scale so the lex-leading coefficient is 1 (zero stays zero)."""
        if not self.terms:
            return self
        lc = self.terms[max(self.terms)]
        if lc == self.den:
            return self
        if lc < 0:
            return _canonical(_times(self.terms, -1), -lc)
        return _canonical(self.terms, lc)

    def evaluate(self, values):
        """Evaluate at a value tuple; entries may be None when unused."""
        total = _ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exps, values):
                if e:
                    if v is None:
                        raise InputError("indeterminate left unassigned")
                    term *= v ** e
            total += term
        return total / self.den

    def variables(self):
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return used

    def __eq__(self, other):
        return (isinstance(other, PolyExact) and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    def __repr__(self):
        return f"PolyExact({self.terms!r}, {self.den})"


def _times(terms, k):
    return {e: c * k for e, c in terms.items()}


def _canonical(terms, den):
    """The polynomial terms / den for den > 0, with their common factor removed."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: c // g for e, c in terms.items()}
    return PolyExact(terms, den)


def _deg_in(p, v):
    return max((e[v] for e in p.terms), default=0)


def _coeff_in(p, v, d):
    """Coefficient of var(v)^d, as a polynomial with the v-exponent cleared."""
    terms = {}
    for exps, coeff in p.terms.items():
        if exps[v] == d:
            cleared = exps[:v] + (0,) + exps[v + 1:]
            terms[cleared] = coeff
    return _canonical(terms, p.den)


def _shift(p, v, d):
    """Multiply by var(v)^d."""
    if d == 0 or not p.terms:
        return p
    return PolyExact({e[:v] + (e[v] + d,) + e[v + 1:]: c for e, c in p.terms.items()}, p.den)


def _integral(p):
    """p times its denominator: a constant multiple with integer coefficients."""
    return p if p.den == 1 else PolyExact(p.terms)


def divexact(f, g):
    """Exact multivariate division; raises ValueError if g does not divide f.

    The loop divides f's integer coefficients by the primitive part of g's
    over Z.  By Gauss's lemma that quotient is integral whenever it exists,
    so a leading coefficient that leaves a remainder proves g does not
    divide f.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    content = gcd(*g.terms.values())
    prim = g.terms if content == 1 else {e: c // content for e, c in g.terms.items()}
    glead = max(prim)
    gcoef = prim[glead]
    add = operator.add
    rem = dict(f.terms)
    quot = {}
    while rem:
        rlead = max(rem)
        qexp = tuple(a - b for a, b in zip(rlead, glead))
        if any(e < 0 for e in qexp):
            raise ValueError("inexact polynomial division")
        qc, r = divmod(rem[rlead], gcoef)
        if r:
            raise ValueError("inexact polynomial division")
        # the leading exponent of rem falls at every step, so qexp is new
        quot[qexp] = qc
        for ge, gc in prim.items():
            e = tuple(map(add, qexp, ge))
            acc = rem.get(e, 0) - qc * gc
            if acc:
                rem[e] = acc
            else:
                del rem[e]
    if g.den != 1:
        quot = _times(quot, g.den)
    return _canonical(quot, f.den * content)


def _prem(f, g, v):
    """Full pseudo-remainder: lc(g)^(deg f - deg g + 1) * f modulo g, in var v."""
    dg = _deg_in(g, v)
    lcg = _coeff_in(g, v, dg)
    r = f
    steps = _deg_in(f, v) - dg + 1
    while not r.is_zero():
        dr = _deg_in(r, v)
        if dr < dg:
            break
        lcr = _coeff_in(r, v, dr)
        r = lcg.mul(r).sub(_shift(lcr, v, dr - dg).mul(g))
        steps -= 1
    for _ in range(steps):
        r = lcg.mul(r)
    return r


def _poly_pow(p, k):
    """p^k for k >= 1, by square-and-multiply from the most significant bit."""
    out = p
    for bit in bin(k)[3:]:
        out = out.mul(out)
        if bit == "1":
            out = out.mul(p)
    return out


def _subresultant_prs_last(r0, r1, v):
    """Last nonzero member of the subresultant pseudo-remainder sequence.

    The beta/psi bookkeeping keeps every division exact and the coefficient
    growth polynomial, so no per-step content extraction is needed.  On
    integral inputs every member is integral, so the sequence runs over Z.
    """
    r0, r1 = _integral(r0), _integral(r1)
    nvars = len(next(iter(r0.terms)))
    d = _deg_in(r0, v) - _deg_in(r1, v)
    const = (0,) * nvars  # exponents of a constant term
    beta = PolyExact({const: (-1) ** (d + 1)})
    psi = PolyExact({const: -1})
    prev, cur = r0, r1
    while True:
        rem = _prem(prev, cur, v)
        if rem.is_zero():
            return cur
        nxt = divexact(rem, beta)
        if _deg_in(nxt, v) == 0:
            return nxt
        neg_lc = _coeff_in(cur, v, _deg_in(cur, v)).neg()
        if d == 1:
            psi = neg_lc
        elif d > 1:
            psi = divexact(_poly_pow(neg_lc, d), _poly_pow(psi, d - 1))
        d = _deg_in(cur, v) - _deg_in(nxt, v)
        beta = neg_lc.mul(_poly_pow(psi, d)) if d else neg_lc
        prev, cur = cur, nxt


def _content_in(p, v):
    cont = PolyExact({})
    for d in range(_deg_in(p, v) + 1):
        c = _coeff_in(p, v, d)
        if not c.is_zero():
            cont = poly_gcd(cont, c)
            if cont.is_constant():
                break
    return cont


def poly_gcd(f, g):
    """Monic gcd in Q[t1,...,tm] via a subresultant pseudo-remainder sequence
    on the primitive parts in the highest active variable."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    # a constant multiple has the same monic gcd, so work over Z
    f, g = _integral(f), _integral(g)
    fvars = f.variables()
    gvars = g.variables()
    if not fvars or not gvars:
        nvars = len(next(iter(f.terms)))
        return PolyExact({(0,) * nvars: 1})
    v = max(fvars | gvars)
    if v not in fvars:
        return poly_gcd(f, _content_in(g, v))
    if v not in gvars:
        return poly_gcd(g, _content_in(f, v))
    cf = _content_in(f, v)
    cg = _content_in(g, v)
    c = poly_gcd(cf, cg)
    big = f if cf.is_constant() else divexact(f, cf)
    small = g if cg.is_constant() else divexact(g, cg)
    if _deg_in(big, v) < _deg_in(small, v):
        big, small = small, big
    last = _subresultant_prs_last(big, small, v)
    if _deg_in(last, v) == 0:
        return c.monic()
    return c.mul(divexact(last, _content_in(last, v))).monic()


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class _Den(PolyExact):
    """A canonical denominator: a monic polynomial interned by its context,
    with its factorization ``prod(base[i] ** exps[i]) * rest`` over the
    context's base of linear factors.

    ``exps`` has no trailing zeros.  ``rest`` is the monic cofactor the base
    did not cover when the denominator was first met, or None for 1.
    ``serial`` numbers the denominators of one context, so a pair of them
    keys the context's lcm cache without hashing a polynomial.
    """

    __slots__ = ("ctx", "exps", "rest", "serial")

    def __init__(self, poly, ctx, exps, rest, serial):
        super().__init__(poly.terms, poly.den)
        self.ctx = ctx
        self.exps = exps
        self.rest = rest
        self.serial = serial


def _total_degree(p):
    return max((sum(e) for e in p.terms), default=0)


def _trim(exps):
    """An exponent tuple without trailing zeros, so it outlives base growth."""
    n = len(exps)
    while n and not exps[n - 1]:
        n -= 1
    return tuple(exps[:n])


def _linear_root(p):
    """The monic linear l with l ** k == p for k the total degree of p, or None.

    If p = l ** k with l = v + r, v the lex-leading variable of l, then the
    coefficient of v ** (k - 1) in p is k * r; the candidate is confirmed by
    expanding it.
    """
    k = _total_degree(p)
    lead = max(p.terms)
    v = next(i for i, e in enumerate(lead) if e)
    if lead[v] != k:
        return None
    unit = tuple(int(i == v) for i in range(len(lead)))
    root = PolyExact({unit: 1}).add(_coeff_in(p, v, k - 1).scale(Fraction(1, k)))
    if _total_degree(root) != 1 or _poly_pow(root, k) != p:
        return None
    return root


def _divide_out(f, factor, limit):
    """Divide f by factor while it divides, at most limit times: (quotient, times)."""
    times = 0
    while times < limit:
        try:
            f = divexact(f, factor)
        except ValueError:
            break
        times += 1
    return f, times


class ScalarContext:
    """Fixed ordered set of indeterminates shared by a whole session.

    New symbols cannot be introduced after construction, which keeps the
    monomial order stable and canonical forms comparable.  A context is
    equal only to itself: scalars of two contexts never mix, even when
    their names agree.

    The context also owns the session's denominators.  ``_base`` lists the
    distinct monic linear polynomials met as factors of denominators, each
    irreducible over Q.  Every denominator a scalar holds is interned here
    as one ``_Den`` per polynomial, so equal denominators are identical, and
    carries its exponents over the base.  These tables are append-only and
    unlocked: a context serves one thread.
    """

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("indeterminate names must be unique")
        for name in names:
            if not _NAME_RE.match(name):
                raise InputError(f"invalid indeterminate name {name!r}")
        self.names = names
        self._by_name = {n: i for i, n in enumerate(names)}
        self._units = [(0,) * i + (1,) + (0,) * (len(names) - i - 1) for i in range(len(names))]
        self._base = []
        self._by_poly = {}       # monic polynomial -> its _Den
        self._by_factors = {}    # (exps, rest) -> _Den
        self._lcms = {}          # (serial, serial) -> (lcm _Den, its two cofactors)
        self._poly_zero = PolyExact({})
        self._poly_one = self._new_den(PolyExact.constant(1, len(names)), (), None)
        self.zero = ScalarExpr(self, self._poly_zero, self._poly_one)
        self.one = ScalarExpr(self, self._poly_one, self._poly_one)

    @property
    def nvars(self):
        return len(self.names)

    def var(self, name) -> "ScalarExpr":
        if name not in self._by_name:
            raise KeyError(f"unknown indeterminate {name!r}; the session declares {self.names}")
        return self.linear(self._units[self._by_name[name]], 1)

    def scalar(self, value) -> "ScalarExpr":
        value = as_fraction(value)
        if not value:
            return self.zero
        return ScalarExpr(self, PolyExact.constant(value, self.nvars), self._poly_one)

    def linear(self, coeffs, den) -> "ScalarExpr":
        """sum(coeffs[i] * t_i) / den over the first len(coeffs) indeterminates, as one
        integer polynomial over one denominator; ints or Fractions over a positive int."""
        terms, scale = {}, 1
        for unit, c in zip(self._units, coeffs):
            if c:
                terms[unit] = c.numerator if c.denominator == 1 else c
                scale = lcm(scale, c.denominator)
        if not terms:
            return self.zero
        if scale != 1:
            terms = {unit: int(c * scale) for unit, c in terms.items()}
        return ScalarExpr(self, _canonical(terms, den * scale), self._poly_one)

    # -- denominators -----------------------------------------------------------

    def _new_den(self, poly, exps, rest):
        den = _Den(poly, self, exps, rest, len(self._by_poly))
        self._by_poly[den] = den
        self._by_factors[exps, rest] = den
        return den

    def _expand(self, exps, rest):
        poly = self._poly_one if rest is None else rest
        for factor, e in zip(self._base, exps):
            if e:
                poly = poly.mul(_poly_pow(factor, e))
        return poly

    def _den(self, exps, rest):
        """The interned denominator prod(base[i] ** exps[i]) * rest."""
        den = self._by_factors.get((exps, rest))
        if den is None:
            poly = self._expand(exps, rest)
            den = self._by_poly.get(poly)
            if den is None:
                den = self._new_den(poly, exps, rest)
            else:
                # two factorizations of one polynomial: a rest hides a base
                # factor that joined after that rest was met
                self._by_factors[exps, rest] = den
        return den

    def _intern(self, poly):
        """The interned denominator equal to the monic polynomial poly.

        A new one is trial-divided by the base once.  A cofactor that is a
        power l ** k of a linear l puts l in the base with exponent k, and
        any other becomes its rest.
        """
        den = self._by_poly.get(poly)
        if den is None:
            exps, cofactor = [], poly
            for factor in self._base:
                cofactor, e = _divide_out(cofactor, factor, _total_degree(cofactor))
                exps.append(e)
            degree, rest = _total_degree(cofactor), None
            if degree:
                root = cofactor if degree == 1 else _linear_root(cofactor)
                if root is None:
                    rest = cofactor
                else:
                    self._base.append(root)
                    exps.append(degree)
            den = self._new_den(poly, _trim(exps), rest)
        return den

    def _product(self, x, y):
        """The interned denominator x * y: exponents add, rests multiply."""
        one = self._poly_one
        if x is one:
            return y
        if y is one:
            return x
        exps = tuple(map(sum, zip_longest(x.exps, y.exps, fillvalue=0)))
        rx, ry = x.rest, y.rest
        return self._den(exps, rx if ry is None else ry if rx is None else rx.mul(ry))

    def _lcm(self, x, y):
        """(l, l / x, l / y) for a common multiple l of x and y.

        Over the base l is the least one: each exponent is the larger of
        x's and y's.  Unequal rests are multiplied, and make() cancels what
        they share.
        """
        key = (x.serial, y.serial)
        hit = self._lcms.get(key)
        if hit is None:
            pairs = list(zip_longest(x.exps, y.exps, fillvalue=0))
            top = tuple(map(max, pairs))
            rx, ry = x.rest, y.rest
            if rx is None or ry is None or rx == ry:
                rest = rx if ry is None else ry
                cx = ry if rx is None else None
                cy = rx if ry is None else None
            else:
                rest, cx, cy = rx.mul(ry), ry, rx
            hit = self._lcms[key] = (
                self._den(top, rest),
                self._expand([t - ex for t, (ex, _) in zip(top, pairs)], cx),
                self._expand([t - ey for t, (_, ey) in zip(top, pairs)], cy))
        return hit

    def __repr__(self):
        return f"ScalarContext({', '.join(self.names)})"


class ScalarExpr:
    """Element of the rational-function field, always in canonical form.

    Canonical form: gcd(num, den) = 1, den monic in the lex order, and zero
    is 0/1.  Equal functions therefore compare structurally equal.  The den
    is the context's interned ``_Den`` for that polynomial, so equal
    denominators are one object; a constant den is the shared
    ``_poly_one``, so a polynomial is recognised by identity and + and * on
    two polynomials skip make().
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den):
        # trusted constructor; use make() to normalize
        self.ctx = ctx
        self.num = num
        self.den = den

    @staticmethod
    def make(ctx, num, den):
        """The canonical num / den; den may be any nonzero polynomial.

        A denominator the context has not interned is made monic and
        factored over the base (``ScalarContext._intern``).  Cancellation
        then divides num by each base factor of den while it divides, at
        most as often as den holds it, and takes a gcd with den's rest only
        when the base does not cover den.  That is complete: afterwards no
        base factor left in den divides the numerator num', and with
        g = gcd(num', rest) the quotients num'/g and rest/g are coprime.  So
        num'/g is coprime to the whole new denominator, even when rest
        hides a factor that joined the base later.
        """
        if den.is_zero():
            raise ScalarDivisionError("zero denominator")
        if num.is_zero():
            return ctx.zero
        if not (isinstance(den, _Den) and den.ctx is ctx):
            lc = den.leading_coeff()
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.monic()
            den = ctx._intern(den)
        exps, rest, cut = list(den.exps), den.rest, False
        for i, (factor, e) in enumerate(zip(ctx._base, den.exps)):
            if e:
                num, times = _divide_out(num, factor, e)
                if times:
                    exps[i] -= times
                    cut = True
        if rest is not None:
            g = poly_gcd(num, rest)
            if not g.is_constant():  # a monic constant is 1
                num = divexact(num, g)
                rest = divexact(rest, g)
                if rest.is_constant():
                    rest = None
                cut = True
        if cut:
            den = ctx._den(_trim(exps), rest)
        return ScalarExpr(ctx, num, den)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num.terms

    def is_one(self):
        return self.num == self.ctx._poly_one and self.den == self.ctx._poly_one

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def __bool__(self):
        return bool(self.num.terms)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarExpr):
            if other.ctx is self.ctx:
                return other
            raise ValueError("mixed scalar contexts")
        return self.ctx.scalar(other)

    def __add__(self, other):
        other = self._coerce(other)
        ctx = self.ctx
        one = ctx._poly_one
        if self.den is one and other.den is one:
            return ScalarExpr(ctx, self.num.add(other.num), one)
        if self.den is other.den:
            return ScalarExpr.make(ctx, self.num.add(other.num), self.den)
        den, xs, ys = ctx._lcm(self.den, other.den)
        return ScalarExpr.make(ctx, self.num.mul(xs).add(other.num.mul(ys)), den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return ScalarExpr(self.ctx, self.num.neg(), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        ctx = self.ctx
        # a product by the shared one builds nothing
        if self is ctx.one:
            return other
        if other is ctx.one:
            return self
        one = ctx._poly_one
        if self.den is one and other.den is one:
            return ScalarExpr(ctx, self.num.mul(other.num), one)
        return ScalarExpr.make(ctx, self.num.mul(other.num),
                               ctx._product(self.den, other.den))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ScalarDivisionError("division by zero scalar")
        # make() meets other.num as a denominator of its own
        return self.__mul__(ScalarExpr.make(self.ctx, other.den, other.num))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponents must be integers")
        if exponent == 0:
            return self.ctx.one
        if exponent < 0:
            return self.ctx.one.__truediv__(self).__pow__(-exponent)
        result = self
        for bit in bin(exponent)[3:]:  # square-and-multiply, most significant bit first
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment):
        """Exact value at a rational point; every used indeterminate must be set."""
        values = [as_fraction(assignment[name]) if name in assignment else None
                  for name in self.ctx.names]
        num = self.num.evaluate(values)
        den = self.den.evaluate(values)
        if den == 0:
            raise InputError("denominator vanishes under the assignment")
        return num / den

    # -- equality and display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarExpr):
            if isinstance(other, (int, Fraction)):
                other = self.ctx.scalar(other)
            else:
                return NotImplemented
        return self.ctx is other.ctx and self.num == other.num and self.den == other.den

    def __hash__(self):
        num = self.num
        if self.den is self.ctx._poly_one and num.is_constant():
            # equal to an int or a Fraction, so it hashes as that value
            return hash(Fraction(sum(num.terms.values()), num.den))
        return hash((num, self.den))

    def __str__(self):
        num = poly_str(self.num, self.ctx.names)
        if self.den is self.ctx._poly_one:
            return num
        return f"({num})/({poly_str(self.den, self.ctx.names)})"

    def __repr__(self):
        return f"<ScalarExpr {self}>"


def poly_str(poly, names):
    """Render in the canonical order; output reparses to the same value."""
    if poly.is_zero():
        return "0"
    pieces = []
    for exps in sorted(poly.terms, reverse=True):
        coeff = Fraction(poly.terms[exps], poly.den)
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = _rational_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_rational_str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    return signed_sum(pieces)


def _rational_str(q: Fraction) -> str:
    """str(q) at any length: str of an int stops at the interpreter's digit
    limit (sys.get_int_max_str_digits), str of a Decimal does not."""
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def signed_sum(pieces):
    """Join (sign, body) pieces as "a - b + c"; a leading + is dropped."""
    (sign, body), rest = pieces[0], pieces[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)
