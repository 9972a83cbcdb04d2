"""Differential check of the polynomial kernel against sympy.

sympy is a test-only dependency: this file is skipped where it is absent,
and nothing under src/ imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from svir.parse import parse_scalar  # noqa: E402
from svir.scalar import PolyExact, ScalarContext, ScalarExpr, poly_gcd  # noqa: E402

from factored import NAMES, build, factored_values  # noqa: E402

_CTXS = {n: ScalarContext(tuple(f"t{i}" for i in range(n))) for n in (3, 4)}


@st.composite
def poly_pairs(draw, nvars):
    """One polynomial as a PolyExact and as a sympy expression."""
    items = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * nvars),
                  st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))),
        max_size=4))
    gens = sympy.symbols(_CTXS[nvars].names)
    expr = sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
                for exps, c in items), sympy.Integer(0))
    return PolyExact.from_terms(items), expr


def _sympy_terms(expr, nvars):
    """{exponents: Fraction} of a sympy polynomial made monic in lex order."""
    poly = sympy.Poly(expr, *sympy.symbols(_CTXS[nvars].names), domain="QQ")
    if not poly.is_zero:
        poly = poly.monic()
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.as_dict().items()}


def _terms(p):
    return {e: Fraction(c, p.den) for e, c in p.terms.items()}


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_poly_gcd_matches_sympy(data):
    nvars = data.draw(st.sampled_from([3, 4]))
    (f, fs), (g, gs), (h, hs) = (data.draw(poly_pairs(nvars)) for _ in range(3))
    got = poly_gcd(f.mul(h), g.mul(h))
    if f.mul(h).is_zero() and g.mul(h).is_zero():
        assert got.is_zero()
        return
    assert _terms(got) == _sympy_terms(sympy.gcd(sympy.expand(fs * hs),
                                                 sympy.expand(gs * hs)), nvars)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_make_matches_sympy_cancel(data):
    nvars = data.draw(st.sampled_from([3, 4]))
    ctx = _CTXS[nvars]
    (f, fs), (g, gs), (h, hs) = (data.draw(poly_pairs(nvars)) for _ in range(3))
    if g.is_zero() or h.is_zero():
        return
    got = ScalarExpr.make(ctx, f.mul(h), g.mul(h))
    # as a quotient of polynomials: sympy prints 1/t1**2 as t1**(-2), which
    # the scalar grammar does not read
    num, den = sympy.fraction(sympy.cancel(fs / gs))
    text = f"({num})/({den})".replace("**", "^")
    assert got == parse_scalar(ctx, text)


def _sympy_value(value, gens):
    top, bottom, cofactor, coeff = value

    def linear(coeffs, const):
        return sum((c * g for c, g in zip(coeffs, gens)), sympy.Integer(const))

    num = sympy.Rational(coeff.numerator, coeff.denominator) * sympy.Mul(*(linear(*f) for f in top))
    den = sympy.Mul(*(linear(*f) for f in bottom))
    if cofactor:
        den *= sum(c * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
                   for exps, c in cofactor.items())
    return num / den


def _canonical_terms(expr, gens):
    """Numerator and denominator of sympy.cancel(expr), the denominator
    monic in lex order, as {exponents: Fraction}."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num, den = (sympy.Poly(p, *gens, domain="QQ").as_dict() for p in (num, den))
    lead = den[max(den)]
    return ({e: Fraction(int((c / lead).p), int((c / lead).q)) for e, c in num.items()},
            {e: Fraction(int((c / lead).p), int((c / lead).q)) for e, c in den.items()})


@given(st.lists(factored_values(), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_factored_denominators_match_sympy_cancel(values):
    ctx = ScalarContext(NAMES)
    gens = sympy.symbols(NAMES)
    x, y = build(ctx, values[0]), build(ctx, values[1])
    # z's new linear factors join the base after x and y exist
    z = build(ctx, values[2])
    xs, ys, zs = (_sympy_value(v, gens) for v in values)
    made = [x, y, z]
    for (p, ps), (q, qs) in (((x, xs), (y, ys)), ((y, ys), (z, zs)), ((z, zs), (x, xs))):
        for r, expected in ((p, ps), (p * q, ps * qs), (p / q, ps / qs),
                            (p + q, ps + qs), (p - q, ps - qs)):
            assert (_terms(r.num), _terms(r.den)) == _canonical_terms(expected, gens)
            made.append(r)
    for r in made:
        for s in made:
            if r.den == s.den:
                assert r.den is s.den
