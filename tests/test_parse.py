from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svir.algebra import AlgebraElement, BasisElt, CENTRAL, Kind
from svir.lattice import AlgebraConfig, Parity
from svir.parse import (ParseError, parse_element, parse_index,
                        parse_rational_matrix, parse_rational_vector,
                        parse_scalar)
from svir.repmod import BoxSpec, Family, ModuleSpec, ModuleVector, SeriesModule

HALF = Fraction(1, 2)


def test_basic_generators(cfg, sv):
    elt = parse_element(cfg, "L[1,-2]")
    assert elt.terms == {sv.L((1, -2)): cfg.ctx.one}
    elt = parse_element(cfg, "c")
    assert elt.terms == {CENTRAL: cfg.ctx.one}


def test_scalar_prefix(cfg, sv):
    a, d1 = cfg.var("a"), cfg.var("d1")
    elt = parse_element(cfg, "(a+2*d1)*G[1/2,0]")
    assert elt.terms == {sv.G((HALF, 0)): a + 2 * d1}


def test_parity_error(cfg):
    with pytest.raises(ParseError):
        parse_element(cfg, "L[1/2,0]")
    with pytest.raises(ParseError):
        parse_element(cfg, "G[1,0]")


def test_sums_and_signs(cfg, sv):
    elt = parse_element(cfg, "L[1,0] - 2*L[0,1] + c")
    assert elt.terms == {
        sv.L((1, 0)): cfg.ctx.one,
        sv.L((0, 1)): cfg.scalar(-2),
        CENTRAL: cfg.ctx.one,
    }
    assert parse_element(cfg, "-L[1,0]").terms == {sv.L((1, 0)): cfg.scalar(-1)}
    assert parse_element(cfg, "L[1,0] - L[1,0]").is_zero()


def test_unary_sign_after_operator(cfg, sv):
    elt = parse_element(cfg, "2^-1*L[0,0]")
    assert elt.terms == {sv.L((0, 0)): cfg.scalar(HALF)}


def test_rational_function_coefficient(cfg, sv):
    a = cfg.var("a")
    elt = parse_element(cfg, "(a+1)/(a-1)*L[0,0]")
    assert elt.terms == {sv.L((0, 0)): (a + 1) / (a - 1)}
    assert parse_element(cfg, str(elt)) == elt


def test_module_vectors(cfg, sa, sb_prime):
    vec = parse_element(cfg, "x[0,0] + 3*y[1/2,0]", spec=sa.spec)
    assert isinstance(vec, ModuleVector)
    assert vec.terms == {sa.x((0, 0)): cfg.ctx.one,
                         sa.y((HALF, 0)): cfg.scalar(3)}
    # SB' swaps the parities
    vec = parse_element(cfg, "x[1/2,0]", spec=sb_prime.spec)
    assert vec.terms == {sb_prime.x((HALF, 0)): cfg.ctx.one}
    with pytest.raises(ParseError):
        parse_element(cfg, "x[1/2,0]", spec=sa.spec)
    with pytest.raises(ParseError):
        parse_element(cfg, "x[0,0]")  # no family in scope


def test_mixing_symbols_fails(cfg, sa):
    with pytest.raises(ParseError):
        parse_element(cfg, "L[1,0] + x[0,0]", spec=sa.spec)


def test_syntax_errors_carry_positions(cfg):
    with pytest.raises(ParseError):
        parse_element(cfg, "L[1,0] +")
    with pytest.raises(ParseError):
        parse_element(cfg, "q*L[1,0]")
    with pytest.raises(ParseError):
        parse_element(cfg, "L[1,0")
    with pytest.raises(ParseError):
        parse_scalar(cfg.ctx, "(d1 + ")
    with pytest.raises(ParseError):
        parse_scalar(cfg.ctx, "d1 $ d2")
    with pytest.raises(ParseError):
        parse_scalar(cfg.ctx, "d1 ^ d2")


def test_scalar_grammar(cfg):
    ctx = cfg.ctx
    d1, d2, a = ctx.var("d1"), ctx.var("d2"), ctx.var("a")
    assert parse_scalar(ctx, "3/4") == ctx.scalar(Fraction(3, 4))
    assert parse_scalar(ctx, "-d1^3 + d2*d1") == -(d1 ** 3) + d2 * d1
    assert parse_scalar(ctx, "(a+1)/(a-1)") == (a + 1) / (a - 1)
    assert parse_scalar(ctx, "2*(d1 - 1/2)") == 2 * d1 - 1
    assert parse_scalar(ctx, "d1^-1") == 1 / d1
    assert parse_scalar(ctx, "a'") == ctx.var("a'")


def test_scalar_print_parse_round_trip(cfg):
    ctx = cfg.ctx
    d1, d2, a = ctx.var("d1"), ctx.var("d2"), ctx.var("a")
    samples = [
        ctx.zero,
        ctx.scalar(Fraction(-7, 3)),
        d1 - d2,
        -(d1 ** 3 - d1) * Fraction(1, 12),
        (d1 + d2) / (d1 - d2),
        (a + 2 * d1) ** 2 / (3 * d2),
        1 / (2 * d1),
    ]
    for value in samples:
        assert parse_scalar(ctx, str(value)) == value


def test_element_print_parse_round_trip(cfg, sv, sa):
    elements = [
        sv.bracket(sv.L((1, 0)), sv.L((-1, 0))),
        sv.bracket(sv.G((HALF, 0)), sv.G((-HALF, 0))),
        sv.element(sv.L((0, 0))) - sv.element(sv.G((HALF, -1))),
        sv.element(CENTRAL).scale(cfg.scalar(Fraction(-1, 3))),
        AlgebraElement({}),
    ]
    for elt in elements:
        assert parse_element(cfg, str(elt)) == elt
    vectors = [
        sa.act_basis(sv.L((1, 0)), sa.x((0, 1))),
        sa.vector(sa.x((0, 0))) - sa.vector(sa.y((HALF, 0))).scale(cfg.var("b")),
    ]
    for vec in vectors:
        assert parse_element(cfg, str(vec), spec=sa.spec) == vec


def test_zero_element_round_trip(cfg, sa):
    assert parse_element(cfg, "0") == AlgebraElement({})
    assert parse_element(cfg, "0", spec=sa.spec) == ModuleVector({})


def test_index_literals(cfg):
    v = parse_index(cfg, "[1,-2]")
    assert v.coords == (1, -2)
    from svir.lattice import Parity
    w = parse_index(cfg, "[1/2,3]", parity=Parity.ODD)
    assert w.coords == (HALF, 3)
    with pytest.raises(ParseError):
        parse_index(cfg, "[1]")
    with pytest.raises(ParseError):
        parse_index(cfg, "[1/2,0]")


def test_rational_matrix_literals():
    assert parse_rational_vector("[1, -2, 1/2]") == (1, -2, HALF)
    assert parse_rational_matrix("[[1,0],[0,1]]") == ((1, 0), (0, 1))
    assert parse_rational_matrix("[[1/2]]") == ((HALF,),)
    with pytest.raises(ParseError):
        parse_rational_vector("1,2")
    with pytest.raises(ParseError):
        parse_rational_vector("[1, x]")


@pytest.mark.parametrize("text", ["(" * 300 + "1" + ")" * 300, "-" * 3000 + "1",
                                  "(" * 300], ids=["parentheses", "signs", "unclosed"])
def test_deeply_nested_literal_is_a_parse_error(cfg, text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_scalar(cfg.ctx, text)


# -- randomized print/parse round trips ----------------------------------------

_CFG = AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b", "a'"))
_ATOMS = [_CFG.var(name) for name in _CFG.ctx.names]
_GENERATORS = [BasisElt(Kind.L, v) for v in _CFG.box(1, Parity.EVEN)] + \
    [BasisElt(Kind.G, v) for v in _CFG.box(1, Parity.ODD)] + [CENTRAL]
_MODULES = [SeriesModule(_CFG, ModuleSpec.of(family, {name: _CFG.var(name)
                                                      for name in family.param_names}))
            for family in Family]
_RATIONALS = st.fractions(-3, 3, max_denominator=4)


@st.composite
def _polynomials(draw):
    """Horner-style polynomial in the declared names with rational coefficients."""
    value = _CFG.scalar(draw(_RATIONALS))
    for atom in draw(st.lists(st.sampled_from(_ATOMS), max_size=3)):
        value = value * atom + draw(_RATIONALS)
    return value


@st.composite
def _coefficients(draw):
    """A polynomial or, half the time, a quotient of two polynomials."""
    value = draw(_polynomials())
    if draw(st.booleans()):
        den = draw(_polynomials())
        if not den.is_zero():
            value = value / den
    return value


@st.composite
def _terms(draw, pool):
    return [(sym, draw(_coefficients()))
            for sym in draw(st.lists(st.sampled_from(pool), max_size=4))]


@given(_terms(_GENERATORS), st.sampled_from(_MODULES), st.data())
@settings(max_examples=60, deadline=None)
def test_printed_elements_parse_back(algebra_terms, module, data):
    elt = AlgebraElement.from_terms(algebra_terms)
    assert parse_element(_CFG, str(elt)) == elt
    vec_terms = data.draw(_terms(list(module.basis_in_box(BoxSpec(1)))))
    vec = ModuleVector.from_terms(vec_terms)
    assert parse_element(_CFG, str(vec), spec=module.spec) == vec
