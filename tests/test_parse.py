import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svir.algebra import AlgebraElement, CENTRAL
from svir.formal import Symbol
from svir.lattice import EVEN, ODD, AlgebraConfig
from svir.parse import (ParseError, parse_element, parse_index,
                        parse_rational_matrix, parse_rational_vector,
                        parse_scalar)
from svir.repmod import BoxSpec, Family, ModuleVector, SeriesModule

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
    vec = parse_element(cfg, "x[0,0] + 3*y[1/2,0]", family=sa.family)
    assert isinstance(vec, ModuleVector)
    assert vec.terms == {sa.x((0, 0)): cfg.ctx.one,
                         sa.y((HALF, 0)): cfg.scalar(3)}
    # SB' swaps the parities
    vec = parse_element(cfg, "x[1/2,0]", family=sb_prime.family)
    assert vec.terms == {sb_prime.x((HALF, 0)): cfg.ctx.one}
    with pytest.raises(ParseError):
        parse_element(cfg, "x[1/2,0]", family=sa.family)
    with pytest.raises(ParseError):
        parse_element(cfg, "x[0,0]")  # no family in scope


def test_mixing_symbols_fails(cfg, sa):
    with pytest.raises(ParseError):
        parse_element(cfg, "L[1,0] + x[0,0]", family=sa.family)


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


def test_exponents_are_bounded(cfg):
    ctx = cfg.ctx
    d1 = ctx.var("d1")
    assert parse_scalar(ctx, "d1^1000") == d1 ** 1000
    assert parse_scalar(ctx, "d1^-1000") == 1 / d1 ** 1000
    for text in ("d1^1001", "d1^-1001", "(d1 + 1)^1000000000"):
        with pytest.raises(ParseError) as info:
            parse_scalar(ctx, text)
        assert info.value.pos == text.index("^") + 1


def test_overlong_exponent_literal_is_a_parse_error(cfg):
    # refused at the literal's offset, by the digit limit or by MAX_EXPONENT
    text = "d1^" + "9" * 5000
    with pytest.raises(ParseError) as info:
        parse_scalar(cfg.ctx, text)
    assert info.value.pos == 3


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no int-string digit limit")
def test_integer_literal_past_the_digit_limit_is_a_parse_error(cfg):
    text = "d1 + " + "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError, match="too many digits") as info:
        parse_scalar(cfg.ctx, text)
    assert info.value.pos == 5


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
        assert parse_element(cfg, str(vec), family=sa.family) == vec


def test_zero_element_round_trip(cfg, sa):
    assert parse_element(cfg, "0") == AlgebraElement({})
    assert parse_element(cfg, "0", family=sa.family) == ModuleVector({})


def test_index_literals(cfg):
    v = parse_index(cfg, "[1,-2]")
    assert v.coords == (1, -2)
    w = parse_index(cfg, "[1/2,3]", parity=ODD)
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
_GENERATORS = [Symbol("L", v) for v in _CFG.box(1, EVEN)] + \
    [Symbol("G", v) for v in _CFG.box(1, ODD)] + [CENTRAL]
_MODULES = [SeriesModule(_CFG, family, {name: _CFG.var(name)
                                        for name in family.param_names})
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
    assert parse_element(_CFG, str(vec), family=module.family) == vec


# -- one grammar: positions, widenings and a pinned corpus ------------------------

def test_error_positions_are_offsets_into_the_whole_literal(cfg):
    for text, pos in [("L[1,0] + q*L[0,1]", 9), ("L[1,0] L[0,0]", 7)]:
        with pytest.raises(ParseError) as info:
            parse_element(cfg, text)
        assert info.value.pos == pos
        assert str(info.value).endswith(f"(at position {pos} in {text!r})")


def test_unary_minus_after_star_negates_an_element(cfg):
    assert parse_element(cfg, "2*-L[1,0]") == parse_element(cfg, "-2*L[1,0]")


_DECLARED_C = AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "c"))
_FAMILIES = {family.value: family for family in Family}
_A, _M = AlgebraElement, ModuleVector

# (session, literal, (type, printed value) or None for a ParseError).  The
# session "c" declares c as an indeterminate; "SA" and "SBprime" pass that
# family.  Values are those of the earlier parser, which split a
# literal into terms before parsing each coefficient, except where marked.
_CORPUS = [
    ("alg", "L[1,-2]", (_A, "L[1,-2]")),
    ("alg", "c", (_A, "c")),
    ("alg", "2 L[1,0]", (_A, "2*L[1,0]")),
    ("alg", "(a)L[1,0]", (_A, "a*L[1,0]")),
    ("alg", "1/2 L[1,0]", (_A, "1/2*L[1,0]")),
    ("alg", "2*3 L[1,0]", (_A, "6*L[1,0]")),
    ("alg", "-(a) L[1,0]", (_A, "-a*L[1,0]")),
    ("alg", "2 c", (_A, "2*c")),
    ("c", "c L[1,0]", (_A, "c*L[1,0]")),
    ("c", "c*L[1,0]", (_A, "c*L[1,0]")),
    ("c", "c*c", (_A, "c*c")),
    ("c", "c", (_A, "c")),
    ("alg", "G[0.5,0]", (_A, "G[1/2,0]")),
    ("alg", "L[ 1 , 0 ]", (_A, "L[1,0]")),
    ("alg", "L [1,0]", (_A, "L[1,0]")),
    ("alg", "--L[0,0]", (_A, "L[0,0]")),
    ("alg", "+L[1,0]", (_A, "L[1,0]")),
    ("alg", "2*-1*L[0,0]", (_A, "-2*L[0,0]")),
    ("alg", "a*-b L[1,0]", (_A, "-a*b*L[1,0]")),
    ("alg", "a'*L[1,0]", (_A, "a'*L[1,0]")),
    ("alg", "L[1,0] + -L[0,0]", (_A, "-L[0,0] + L[1,0]")),
    ("alg", "L[1,0] - L[1,0]", (_A, "0")),
    ("alg", "0", (_A, "0")),
    ("alg", "0*L[1,0]", (_A, "0")),
    ("SA", "x[0,0] - x[0,0]", (_M, "0")),
    ("SA", "0", (_M, "0")),
    ("SA", "-b*y[-1/2,1] + 2 x[1,1]", (_M, "2*x[1,1] - b*y[-1/2,1]")),
    ("SA", "L[1,0]", (_A, "L[1,0]")),
    ("SBprime", "x[1/2,0] + y[0,1]", (_M, "x[1/2,0] + y[0,1]")),
    # widened: a signed or parenthesized element, and c inside parentheses
    ("alg", "2*-L[1,0]", (_A, "-2*L[1,0]")),
    ("alg", "2*(L[1,0]+L[0,0])", (_A, "2*L[0,0] + 2*L[1,0]")),
    ("alg", "(c)", (_A, "c")),
    # narrowed: with c declared, a c before ")" is now the central element
    ("c", "(c)*L[1,0]", None),
    ("c", "(a+c)*L[1,0]", None),
    ("alg", "", None),
    ("alg", "-0", None),
    ("alg", "1+2", None),
    ("alg", "2L[1,0]", None),
    ("alg", "2c", None),
    ("alg", "L[1,0] L[0,0]", None),
    ("alg", "L[1,0]*2", None),
    ("alg", "L[1,0]/2", None),
    ("alg", "2/L[1,0]", None),
    ("alg", "L[1,0]^2", None),
    ("alg", "L[1,0] + 2", None),
    ("alg", "L[1,0] +", None),
    ("alg", "L[1,0", None),
    ("alg", "L[1,0] $", None),
    ("alg", "L[1/2,0]", None),
    ("alg", "G[1,0]", None),
    ("alg", "L[]", None),
    ("alg", "L[1,0,0]", None),
    ("alg", "L[a,0]", None),
    ("alg", "c^2", None),
    ("alg", "c/2", None),
    ("alg", "1/0*L[1,0]", None),
    ("alg", "2 (L[1,0])", None),
    ("alg", "x[0,0]", None),
    ("SA", "x[1/2,0]", None),
    ("SA", "L[1,0] + x[0,0]", None),
]


@pytest.mark.parametrize("session, text, expected", _CORPUS,
                         ids=[f"{s}:{t}" for s, t, _ in _CORPUS])
def test_literal_corpus(session, text, expected):
    config = _DECLARED_C if session == "c" else _CFG
    family = _FAMILIES.get(session)
    if expected is None:
        with pytest.raises(ParseError) as info:
            parse_element(config, text, family=family)
        pos = info.value.pos
        assert pos is not None and 0 <= pos <= len(text)
        assert str(info.value).endswith(f"(at position {pos} in {text!r})")
    else:
        value = parse_element(config, text, family=family)
        assert (type(value), str(value)) == expected


# exponents carry a trailing space so that digit pieces never lengthen them
_PIECES = ["L[1,0]", "G[1/2,0]", "x[0,0]", "y[1/2,0]", "c", "a", "q", "2", "0",
           "+", "-", "*", "/", "^2 ", "^-1 ", "(", ")", " ", "[", ",", "$"]


@given(st.lists(st.sampled_from(_PIECES), max_size=8), st.sampled_from([None, "SA"]))
@settings(max_examples=300, deadline=None)
def test_every_element_parse_error_names_an_offset(pieces, family):
    text = "".join(pieces)
    try:
        parse_element(_CFG, text, family=_FAMILIES.get(family))
    except ParseError as exc:
        assert exc.pos is not None and 0 <= exc.pos <= len(text)
        assert str(exc).endswith(f"(at position {exc.pos} in {text!r})")
