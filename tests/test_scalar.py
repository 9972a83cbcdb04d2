import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from svir.algebra import CENTRAL, AlgebraElement
from svir.scalar import (InputError, PolyExact, ScalarContext, ScalarDivisionError,
                         ScalarExpr, divexact, poly_gcd)

from factored import NAMES, build, factored_values


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext(("d1", "d2", "a", "b"))


def test_add_cancellation(ctx):
    d1, d2 = ctx.var("d1"), ctx.var("d2")
    assert (d1 + d2) + (-d2) == d1


def test_exact_factor_cancellation(ctx):
    d1, d2 = ctx.var("d1"), ctx.var("d2")
    assert (d1 ** 2 - d2 ** 2) / (d1 - d2) == d1 + d2


def test_central_coefficient_value(ctx):
    # (1/12)(mu^3 - mu) at mu = 2 evaluates to 1/2
    d1 = ctx.var("d1")
    expr = (d1 ** 3 - d1) * Fraction(1, 12)
    assert expr.evaluate({"d1": 2}) == Fraction(1, 2)


def test_is_zero(ctx):
    d1, d2 = ctx.var("d1"), ctx.var("d2")
    assert (d1 - d1).is_zero()
    assert not ((d1 + d2) - d2).is_zero()


def test_evaluate_examples(ctx):
    d1, a, b = ctx.var("d1"), ctx.var("a"), ctx.var("b")
    assert (d1 - 1).evaluate({"d1": 1}) == 0
    assert (a + d1 * b).evaluate({"a": 0, "b": 1, "d1": 3}) == 3
    vanishing = ((d1 / 2) ** 2 - Fraction(1, 4)) * Fraction(1, 3)
    assert vanishing.evaluate({"d1": 1}) == 0


def test_evaluate_errors(ctx):
    d1, d2 = ctx.var("d1"), ctx.var("d2")
    with pytest.raises(InputError, match="left unassigned"):
        (d1 + d2).evaluate({"d1": 1})
    with pytest.raises(InputError, match="denominator vanishes"):
        (ctx.one / d1).evaluate({"d1": 0})
    # unused indeterminates need no assignment
    assert (d1 * 0 + 5).evaluate({}) == 5


def test_division_by_zero_is_an_error(ctx):
    d1 = ctx.var("d1")
    with pytest.raises(ScalarDivisionError):
        d1 / (d1 - d1)
    with pytest.raises(ScalarDivisionError):
        d1 / 0
    with pytest.raises(ScalarDivisionError, match="zero denominator"):
        ScalarExpr.make(ctx, d1.num, PolyExact({}))


def test_no_floats(ctx):
    with pytest.raises(TypeError):
        ctx.scalar(0.5)


def test_powers(ctx):
    d1 = ctx.var("d1")
    assert d1 ** 0 == ctx.one
    assert (d1 + 1) ** 2 == d1 ** 2 + 2 * d1 + 1
    assert d1 ** -2 == 1 / d1 ** 2
    with pytest.raises(TypeError):
        d1 ** Fraction(1, 2)


def test_canonical_form_is_unique(ctx):
    d1, d2 = ctx.var("d1"), ctx.var("d2")
    x = (d1 ** 2 - d2 ** 2) / (2 * d1 - 2 * d2)
    y = (d1 + d2) / 2
    assert x == y
    assert hash(x) == hash(y)
    assert (x - y).is_zero()
    # denominator is normalized monic
    z = ctx.one / (2 * d1)
    assert str(z) == "(1/2)/(d1)"


def test_unknown_indeterminate(ctx):
    with pytest.raises(KeyError):
        ctx.var("q")


@given(st.lists(st.integers(-9, 9) | st.fractions(max_denominator=9), max_size=4),
       st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_linear_is_the_sum_it_names(coeffs, den):
    ctx = ScalarContext(("d1", "d2", "a", "b"))
    want = ctx.zero
    for c, name in zip(coeffs, ctx.names):
        want = want + ctx.var(name) * c
    got = ctx.linear(coeffs, den)
    assert got == want / den
    assert not any(type(c) is not int for c in got.num.terms.values())
    if want.is_zero():
        assert got is ctx.zero


def test_context_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        ScalarContext(("d1", "d1"))
    with pytest.raises(ValueError):
        ScalarContext(("1bad",))


# -- randomized field laws ----------------------------------------------------

_CTX = ScalarContext(("d1", "d2"))


@st.composite
def scalars(draw, max_terms=3):
    d1, d2 = _CTX.var("d1"), _CTX.var("d2")
    atoms = [d1, d2, _CTX.one, _CTX.scalar(2), _CTX.scalar(Fraction(-1, 2))]
    value = _CTX.scalar(draw(st.integers(-3, 3)))
    for _ in range(draw(st.integers(0, max_terms))):
        atom = draw(st.sampled_from(atoms))
        coeff = draw(st.integers(-2, 2))
        if draw(st.booleans()):
            value = value + atom * coeff
        else:
            value = value * (atom + coeff)
    return value


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == _CTX.zero
    if not y.is_zero():
        assert (x / y) * y == x
        assert y * (1 / y) == _CTX.one


@given(scalars(), scalars(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_evaluate_is_a_homomorphism(x, y, v1, v2):
    env = {"d1": v1, "d2": v2}
    assert (x * y).evaluate(env) == x.evaluate(env) * y.evaluate(env)
    assert (x + y).evaluate(env) == x.evaluate(env) + y.evaluate(env)


def test_poly_gcd_frozen_cases(ctx):
    """Expected values computed with an independent computer algebra system
    and frozen; compared after monic normalization."""
    d1, d2, a = ctx.var("d1"), ctx.var("d2"), ctx.var("a")
    cases = [
        ((d1 ** 2 - d2 ** 2) * (a + d1), (d1 - d2) * (a + d1) * d2,
         (d1 - d2) * (a + d1)),
        ((d1 + d2 + a) ** 2 * (d1 - 1), (d1 + d2 + a) * (d1 + 1),
         d1 + d2 + a),
        (d1 ** 3 * d2 - d1 * d2 ** 3, d1 ** 2 * d2 ** 2 - d2 ** 4,
         d2 * (d1 ** 2 - d2 ** 2)),
        ((2 * d1 + 4 * d2) * (3 * a - 6), (d1 + 2 * d2) * (a - 2) * (a + 1),
         (d1 + 2 * d2) * (a - 2)),
        (d1 + 1, d2 + 1, ctx.one),
    ]
    for f, g, expected in cases:
        got = poly_gcd(f.num, g.num)
        assert got == expected.num.monic()


@given(scalars(), scalars(), scalars())
@settings(max_examples=40, deadline=None)
def test_poly_gcd_divides_common_factor(x, y, z):
    f = (x * z).num
    g = (y * z).num
    common = z.num
    if f.is_zero() or g.is_zero() or common.is_zero():
        return
    d = poly_gcd(f, g)
    # d divides both inputs and is divisible by the constructed factor
    divexact(f, d)
    divexact(g, d)
    divexact(d, poly_gcd(d, common))
    assert poly_gcd(d, common) == common.monic()


# -- a plain rational reference ------------------------------------------------
#
# A polynomial here is a dict {exponent tuple: nonzero Fraction}, with no
# shared denominator and no shortcut, so every kernel result can be checked
# against it.

def _rational(p):
    """The {exponents: Fraction} view of a PolyExact."""
    return {e: Fraction(c, p.den) for e, c in p.terms.items()}


def _ref_add(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_scale(f, c):
    return {e: v * c for e, v in f.items() if v * c}


def _ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_monic(f):
    return _ref_scale(f, 1 / f[max(f)]) if f else f


def _reference_mul(p, q):
    """Schoolbook product of two PolyExacts, over every pair of terms."""
    return _ref_mul(_rational(p), _rational(q))


def _assert_canonical(p):
    assert all(type(c) is int and c for c in p.terms.values())
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.terms.values()) == 1    # so zero is {} over 1


def _assert_matches(p, ref):
    _assert_canonical(p)
    assert _rational(p) == ref
    same = PolyExact.from_terms(ref.items())
    assert p == same and hash(p) == hash(same)


# -- polynomial fast paths ------------------------------------------------------

@given(scalars(), st.fractions(max_denominator=4).filter(bool), scalars())
@settings(max_examples=60, deadline=None)
def test_poly_mul_matches_the_double_loop(x, c, y):
    p, q = x.num, y.num
    assert _rational(p.mul(q)) == _reference_mul(p, q)
    for value in (c, 1, -1):
        const = PolyExact.constant(value, _CTX.nvars)
        for a, b in ((p, const), (const, p), (const, const)):
            assert _rational(a.mul(b)) == _reference_mul(a, b)


@st.composite
def polys_and_fractions(draw):
    """A polynomial, or a quotient whose common factor make() must cancel."""
    num = draw(scalars())
    if draw(st.booleans()):
        return num
    den, common = draw(scalars()), draw(scalars())
    if den.is_zero() or common.is_zero():
        return num
    return (num * common) / (den * common)


def test_cancelled_denominator_is_the_shared_constant(ctx):
    d1 = ctx.var("d1")
    for q, value in (((d1 * d1) / d1, d1), ((2 * d1) / (4 * d1), ctx.scalar(Fraction(1, 2))),
                     ((d1 - 1) / (1 - d1), ctx.scalar(-1))):
        assert q == value
        assert q.den is ctx._poly_one


def test_products_by_the_shared_one_return_the_other_factor(ctx):
    d1, a = ctx.var("d1"), ctx.var("a")
    for x in (d1 * a - 3, (d1 + 1) / (a - 2), ctx.one, ctx.zero):
        assert ctx.one * x is x
        assert x * ctx.one is x
        # a 1 that is not the shared object multiplies as any scalar does
        assert ctx.scalar(1) * x == x and x * ctx.scalar(1) == x
    element = AlgebraElement({CENTRAL: (d1 + 1) / (a - 2)})
    assert element.scale(ctx.one) is element
    assert element.scale(ctx.scalar(1)) == element


@given(polys_and_fractions(), polys_and_fractions())
@settings(max_examples=80, deadline=None)
def test_sums_and_products_match_the_textbook_formulas(x, y):
    xn, xd, yn, yd = (_rational(p) for p in (x.num, x.den, y.num, y.den))
    textbook = {
        "*": (_ref_mul(xn, yn), _ref_mul(xd, yd)),
        "+": (_ref_add(_ref_mul(xn, yd), _ref_mul(yn, xd)), _ref_mul(xd, yd)),
        "-": (_ref_add(_ref_mul(xn, yd), _ref_mul(yn, xd), -1), _ref_mul(xd, yd)),
    }
    got = {"*": x * y, "+": x + y, "-": x - y}
    for op, (num, den) in textbook.items():
        want = ScalarExpr.make(_CTX, PolyExact.from_terms(num.items()),
                               PolyExact.from_terms(den.items()))
        assert (got[op].num, got[op].den) == (want.num, want.den), op
    results = [x, y, *got.values()] + ([x / y] if y else [])
    for r in results:
        assert r.den is _CTX._poly_one or not r.den.is_constant()


@given(scalars(max_terms=2), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_powers_match_repeated_products(x, k):
    product = _CTX.one
    for _ in range(k):
        product = product * x
    assert x ** k == product
    if x and k:
        assert x ** -k == 1 / product


# -- the integer kernel against the rational reference ------------------------

_CTXS = {n: ScalarContext(tuple(f"t{i}" for i in range(n))) for n in range(1, 5)}


@st.composite
def rational_polys(draw, nvars, active=None):
    """A {exponents: Fraction} polynomial whose coefficient denominators are
    at most 12, using only the variables in `active` (default: all)."""
    active = range(nvars) if active is None else active
    exps = st.tuples(*(st.integers(0, 2) if i in active else st.just(0)
                       for i in range(nvars)))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    ref = {}
    for e, c in draw(st.lists(st.tuples(exps, coeffs), max_size=4)):
        ref[e] = ref.get(e, 0) + c
    return {e: c for e, c in ref.items() if c}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_rational_reference(data):
    nvars = data.draw(st.integers(1, 4))
    ctx = _CTXS[nvars]
    f, g, h = (data.draw(rational_polys(nvars)) for _ in range(3))
    c = data.draw(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)))
    F, G, H = (PolyExact.from_terms(r.items()) for r in (f, g, h))
    for p, ref in ((F, f), (G, g), (H, h)):
        _assert_matches(p, ref)
    _assert_matches(F.add(G), _ref_add(f, g))
    _assert_matches(F.sub(G), _ref_add(f, g, -1))
    _assert_matches(F.mul(G), _ref_mul(f, g))
    _assert_matches(F.scale(c), _ref_scale(f, c))
    _assert_matches(F.monic(), _ref_monic(f))
    if c != 1 and f:
        assert F.scale(c) != F
    if h:
        _assert_matches(divexact(F.mul(H), H), f)
        _assert_matches(poly_gcd(H, PolyExact({})), _ref_monic(h))
    if not H.is_constant():
        # h divides f*h but not f*h + 1, whatever f is
        with pytest.raises(ValueError):
            divexact(F.mul(H).add(PolyExact.constant(1, nvars)), H)

    # p and q use disjoint sets of variables, so they are coprime and the
    # gcd of p*h and q*h is h made monic
    k = data.draw(st.integers(1, nvars))
    p = data.draw(rational_polys(nvars, range(k)).filter(bool))
    q = data.draw(rational_polys(nvars, range(k, nvars)).filter(bool))
    P, Q = PolyExact.from_terms(p.items()), PolyExact.from_terms(q.items())
    if not h:
        return
    _assert_matches(poly_gcd(P.mul(H), Q.mul(H)), _ref_monic(h))
    # make() cancels h and leaves q monic
    r = ScalarExpr.make(ctx, P.mul(H), Q.mul(H))
    _assert_matches(r.num, _ref_scale(p, 1 / q[max(q)]))
    _assert_matches(r.den, _ref_monic(q))
    assert r.den is ctx._poly_one or not r.den.is_constant()
    zero = ScalarExpr.make(ctx, PolyExact({}), Q)
    assert zero is ctx.zero and zero.den is ctx._poly_one


def test_integer_denominators_take_part_in_equality(ctx):
    half = PolyExact.constant(Fraction(1, 2), ctx.nvars)
    assert (half.terms, half.den) == ({(0, 0, 0, 0): 1}, 2)
    assert half != ctx._poly_one
    assert ctx.scalar(Fraction(1, 2)) != ctx.one
    assert ctx.var("d1") / 2 != ctx.var("d1")


def test_constants_hash_as_their_value(ctx):
    three, half = ctx.scalar(3), ctx.scalar(Fraction(1, 2))
    assert 3 in {three} and three in {3}
    assert {three: 1}.get(3) == 1
    assert hash(half) == hash(Fraction(1, 2)) and Fraction(1, 2) in {half}
    assert hash(ctx.zero) == hash(0)
    d1 = ctx.var("d1")
    assert hash((d1 + 3) - d1) == hash(3)
    assert hash((2 * d1) / (4 * d1)) == hash(Fraction(1, 2))


# -- denominators that factor over linear polynomials --------------------------

def test_repeated_factors_cancel_completely():
    ctx = ScalarContext(NAMES)
    a, d1 = ctx.var("a"), ctx.var("d1")
    inverse = 1 / (a + 1)    # a + 1 joins the base
    x = (d1 - 2) * inverse ** 3
    assert x == (d1 - 2) / (a + 1) ** 3 and x.den.exps == (3,)
    assert x * (a + 1) ** 2 == (d1 - 2) * inverse
    assert (x * (a + 1) ** 3).den is ctx._poly_one
    assert x + 1 / (a + 1) ** 3 == (d1 - 1) / (a + 1) ** 3


def test_a_cofactor_may_hide_a_later_base_factor():
    ctx = ScalarContext(NAMES)
    a, b = ctx.var("a"), ctx.var("b")
    # (a + 1)(b + 3) is met before either factor is in the base
    hidden = 1 / ((a + 1) * (b + 3))
    later = (1 / (a + 1)) * (1 / (b + 3))
    assert later == hidden and later.den is hidden.den
    third = 1 / (b + 3)
    assert hidden * (a + 1) == third and (hidden * (a + 1)).den is third.den
    assert hidden + 1 / (a + 1) == (b + 4) / ((a + 1) * (b + 3))
    assert 1 / (a + 1) ** 2 - hidden * (b + 3) / (a + 1) == 0


def test_a_power_of_a_new_linear_factor_joins_the_base():
    ctx = ScalarContext(NAMES)
    a, b, d1 = ctx.var("a"), ctx.var("b"), ctx.var("d1")
    x = (d1 + 1) / (a + 1) ** 2      # (a + 1)^2 is met before a + 1
    assert x.den.rest is None and x.den.exps == (2,) and ctx._base == [(a + 1).num]
    assert x * (a + 1) == (d1 + 1) / (a + 1) and (x * (a + 1) ** 2).den is ctx._poly_one
    y = 5 / (2 * d1 - b + 3) ** 3    # the base holds the monic d1 - b/2 + 3/2
    assert y.den.rest is None and y.den.exps == (0, 3)
    assert ctx._base[1] == (d1 - b / 2 + Fraction(3, 2)).num
    assert y * (2 * d1 - b + 3) ** 3 == 5


def test_a_cofactor_that_is_not_a_linear_power_stays_the_rest():
    for build in (lambda a, b, d1: a ** 2 + 1,
                  lambda a, b, d1: (a + 1) ** 2 * (b + 3),
                  lambda a, b, d1: (a + 1) * (a + 2),
                  lambda a, b, d1: (d1 + a) ** 2 + 1):
        ctx = ScalarContext(NAMES)
        poly = build(ctx.var("a"), ctx.var("b"), ctx.var("d1"))
        x = 1 / poly
        assert x.den.rest is not None and ctx._base == []
        assert x * poly == 1


@given(st.lists(st.integers(-3, 3), min_size=len(NAMES), max_size=len(NAMES)).filter(any),
       st.integers(-4, 4), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_any_power_of_a_linear_polynomial_is_split(coeffs, const, k):
    ctx = ScalarContext(NAMES)
    root = sum((c * ctx.var(n) for c, n in zip(coeffs, NAMES) if c), ctx.scalar(const))
    x = 1 / root ** k
    assert x.den.rest is None and len(ctx._base) == 1 and x.den.exps == (k,)
    assert x * root ** k == 1 and x * root ** (k - 1) == 1 / root


def test_scalars_of_two_contexts_do_not_mix():
    first, second = ScalarContext(NAMES), ScalarContext(NAMES)
    assert first != second
    x, y = 1 / (first.var("a") + 1), 1 / (second.var("a") + 1)
    assert x != y
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="mixed scalar contexts"):
            op(x, y)


def _linear(coeffs, const):
    """The {exponents: Fraction} reference of a linear polynomial."""
    ref = {tuple(int(i == j) for j in range(4)): Fraction(c) for i, c in enumerate(coeffs) if c}
    if const:
        ref[(0, 0, 0, 0)] = Fraction(const)
    return ref


def _reference(value):
    """The (numerator, denominator) reference of a factored value, unreduced."""
    top, bottom, cofactor, coeff = value
    num, den = {(0, 0, 0, 0): coeff}, {(0, 0, 0, 0): Fraction(1)}
    for factor in top:
        num = _ref_mul(num, _linear(*factor))
    for factor in bottom:
        den = _ref_mul(den, _linear(*factor))
    if cofactor:
        den = _ref_mul(den, {e: Fraction(c) for e, c in cofactor.items()})
    return num, den


def _assert_reduces(r, num, den):
    """r is the canonical num/den: the same function, den monic, coprime parts."""
    rn, rd = _rational(r.num), _rational(r.den)
    assert _ref_mul(rn, den) == _ref_mul(num, rd)
    assert rd[max(rd)] == 1
    assert poly_gcd(r.num, r.den).is_constant()
    assert r.den is r.ctx._poly_one or not r.den.is_constant()


@given(st.lists(factored_values(), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_factored_denominators_match_the_textbook_formulas(values):
    ctx = ScalarContext(NAMES)
    x, y = build(ctx, values[0]), build(ctx, values[1])
    # z enters after x and y exist, so its new linear factors join the base
    # in the middle of the session, as do those that / brings in below
    z = build(ctx, values[2])
    made = [x, y, z]
    for (p, pv), (q, qv) in (((x, values[0]), (y, values[1])),
                             ((y, values[1]), (z, values[2])),
                             ((z, values[2]), (x, values[0]))):
        _assert_reduces(p, *_reference(pv))
        (pn, pd), (qn, qd) = _reference(pv), _reference(qv)
        textbook = {
            "*": (p * q, _ref_mul(pn, qn), _ref_mul(pd, qd)),
            "/": (p / q, _ref_mul(pn, qd), _ref_mul(pd, qn)),
            "+": (p + q, _ref_add(_ref_mul(pn, qd), _ref_mul(qn, pd)), _ref_mul(pd, qd)),
            "-": (p - q, _ref_add(_ref_mul(pn, qd), _ref_mul(qn, pd), -1), _ref_mul(pd, qd)),
        }
        for r, num, den in textbook.values():
            _assert_reduces(r, num, den)
            made.append(r)
    for r in made:
        for s in made:
            if r.den == s.den:
                assert r.den is s.den
