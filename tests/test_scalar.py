from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svir.scalar import (EvaluationError, PolyExact, ScalarContext,
                         ScalarDivisionError, ScalarExpr, divexact, poly_gcd)


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
    with pytest.raises(EvaluationError):
        (d1 + d2).evaluate({"d1": 1})
    with pytest.raises(EvaluationError):
        (ctx.one / d1).evaluate({"d1": 0})
    # unused indeterminates need no assignment
    assert (d1 * 0 + 5).evaluate({}) == 5


def test_division_by_zero_is_an_error(ctx):
    d1 = ctx.var("d1")
    with pytest.raises(ScalarDivisionError):
        d1 / (d1 - d1)
    with pytest.raises(ScalarDivisionError):
        d1 / 0


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


# -- polynomial fast paths ------------------------------------------------------

def _reference_mul(p, q):
    """Schoolbook product over every pair of terms, with no shortcut."""
    return PolyExact.from_terms(
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in p.terms.items() for e2, c2 in q.terms.items())


@given(scalars(), st.fractions(max_denominator=4).filter(bool), scalars())
@settings(max_examples=60, deadline=None)
def test_poly_mul_matches_the_double_loop(x, c, y):
    p, q = x.num, y.num
    assert p.mul(q).terms == _reference_mul(p, q).terms
    for value in (c, 1, -1):
        const = PolyExact.constant(value, _CTX.nvars)
        for a, b in ((p, const), (const, p), (const, const)):
            assert a.mul(b).terms == _reference_mul(a, b).terms


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


@given(polys_and_fractions(), polys_and_fractions())
@settings(max_examples=80, deadline=None)
def test_sums_and_products_match_the_textbook_formulas(x, y):
    textbook = {
        "*": (_reference_mul(x.num, y.num), _reference_mul(x.den, y.den)),
        "+": (_reference_mul(x.num, y.den).add(_reference_mul(y.num, x.den)),
              _reference_mul(x.den, y.den)),
        "-": (_reference_mul(x.num, y.den).sub(_reference_mul(y.num, x.den)),
              _reference_mul(x.den, y.den)),
    }
    got = {"*": x * y, "+": x + y, "-": x - y}
    for op, (num, den) in textbook.items():
        want = ScalarExpr.make(_CTX, num, den)
        assert (got[op].num.terms, got[op].den.terms) == (want.num.terms, want.den.terms), op
    results = [x, y, *got.values()] + ([x / y] if y else [])
    for r in results:
        assert r.den is _CTX._poly_one or not r.den.is_constant()
