"""Random rational functions whose denominators factor over linear polynomials.

A value is ``(top, bottom, cofactor, coeff)``, read as
coeff * prod(top) / (prod(bottom) * cofactor).  Each factor in ``top`` and
``bottom`` is linear, ``(coefficients, constant)``, in one or two of NAMES,
monic or not, and may repeat.  ``cofactor`` is None or one of NONLINEAR,
``{exponents: int}``.  The tests of the scalar field check these values
against the Fraction reference and against sympy.
"""

from fractions import Fraction

from hypothesis import strategies as st

NAMES = ("d1", "d2", "a", "b")

NONLINEAR = (
    {(0, 0, 2, 0): 1, (0, 0, 0, 0): 1},                                     # a^2 + 1
    {(1, 1, 0, 0): 1, (0, 0, 0, 1): 2},                                     # d1*d2 + 2*b
    {(0, 0, 1, 1): 1, (0, 0, 1, 0): 3, (0, 0, 0, 1): 1, (0, 0, 0, 0): 3},  # (a + 1)(b + 3)
)


@st.composite
def linear_factors(draw):
    """At most two indeterminates per factor keep the checks' gcds cheap."""
    coeffs = [0] * len(NAMES)
    for i in draw(st.lists(st.integers(0, len(NAMES) - 1), min_size=1, max_size=2,
                           unique=True)):
        coeffs[i] = draw(st.sampled_from((-2, -1, 1, 2)))
    return tuple(coeffs), draw(st.integers(-3, 3))


@st.composite
def factored_values(draw):
    pool = draw(st.lists(linear_factors(), min_size=1, max_size=3))
    pick = st.lists(st.sampled_from(pool), max_size=2)
    cofactor = draw(st.sampled_from((None,) + NONLINEAR))
    coeff = draw(st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)))
    return draw(pick), draw(pick), cofactor, coeff


def build(ctx, value):
    """The value as a scalar of ctx, whose names are NAMES.

    Numerator and denominator are built as polynomials and then divided, so
    the denominator's factors meet the context's base through /.
    """
    top, bottom, cofactor, coeff = value
    names = [ctx.var(name) for name in NAMES]

    def linear(coeffs, const):
        return sum((c * v for c, v in zip(coeffs, names) if c), ctx.scalar(const))

    num, den = ctx.scalar(coeff), ctx.one
    for factor in top:
        num = num * linear(*factor)
    for factor in bottom:
        den = den * linear(*factor)
    if cofactor:
        poly = ctx.zero
        for exps, c in cofactor.items():
            term = ctx.scalar(c)
            for v, e in zip(names, exps):
                term = term * v ** e
            poly = poly + term
        den = den * poly
    return num / den
