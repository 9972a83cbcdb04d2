"""The table coefficients read from the embed cache equal the arithmetic on
linear forms they replace.

``_bracket_basis`` reads [L_mu, L_nu] as embed(nu - mu) and [L, G], [G, L]
through ``AlgebraConfig.embed_plus_half``; ``_act_basis`` does the same for
its linear entries.  The references here build every coefficient the old
way, as ScalarExpr arithmetic on embed(index) values, and every bracket
pair and action pair at radius 2 must agree, in all three families, with
symbolic and with rational parameters.
"""

import itertools
from fractions import Fraction

import pytest

from svir.algebra import CENTRAL, AlgebraElement, SuperVirasoro
from svir.cli import _basis_elements
from svir.formal import Symbol
from svir.lattice import AlgebraConfig
from svir.repmod import BoxSpec, Family, ModuleVector, SeriesModule

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def cfg():
    return AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b", "a'"))


@pytest.fixture(scope="module")
def elems(cfg):
    return _basis_elements(cfg, 2)


def reference_bracket(cfg, x, y):
    """The defining bracket, each coefficient built from embed(index) values."""
    if x.letter == "c" or y.letter == "c":
        return AlgebraElement({})
    e, total = cfg.embed, x.index + y.index
    central = None
    if x.letter == y.letter == "L":
        coeff, letter = e(y.index) - e(x.index), "L"
        central = -(e(x.index) ** 3 - e(x.index)) / 12
    elif x.letter == "L":
        coeff, letter = e(y.index) - e(x.index) * HALF, "G"
    elif y.letter == "L":
        coeff, letter = e(y.index) * HALF - e(x.index), "G"
    else:
        coeff, letter = cfg.scalar(2), "L"
        central = -(e(x.index) ** 2 - HALF / 2) / 3
    terms = {} if coeff.is_zero() else {Symbol(letter, total): coeff}
    if total.is_zero() and central is not None and not central.is_zero():
        terms[CENTRAL] = central
    return AlgebraElement(terms)


def reference_action(module, g, v):
    """The family's action table, each coefficient built from embed(index) values."""
    if g.letter == "c":
        return ModuleVector({})
    one, e, p = module.config.ctx.one, module.config.embed, module.params
    gi, vi, target = g.index, v.index, g.index + v.index
    row = (g.letter, v.letter)
    if module.family is Family.SA:
        a, b = p["a"], p["b"]
        coeff = {("L", "x"): lambda: a + e(vi) + e(gi) * b,
                 ("L", "y"): lambda: a + e(vi) + e(gi) * (b - HALF),
                 ("G", "x"): lambda: one,
                 ("G", "y"): lambda: a + e(vi) + e(gi) * (b - HALF) * 2}[row]()
    elif module.family is Family.SAPRIME:
        ap = p["a'"]
        coeff = {("L", "x"): lambda: (e(gi) * (e(gi) + ap) if vi.is_zero()
                                      else e(vi) + e(gi)),
                 ("L", "y"): lambda: e(vi) + e(gi) * HALF,
                 ("G", "x"): lambda: e(gi) * 2 + ap if vi.is_zero() else one,
                 ("G", "y"): lambda: e(vi) + e(gi)}[row]()
    else:
        ap = p["a'"]
        coeff = {("L", "x"): lambda: e(vi) + e(gi) * HALF,
                 ("L", "y"): lambda: (-(e(gi) * (e(gi) + ap)) if target.is_zero()
                                      else e(vi)),
                 ("G", "x"): lambda: e(gi) * 2 + ap if target.is_zero() else one,
                 ("G", "y"): lambda: e(vi)}[row]()
    if coeff.is_zero():
        return ModuleVector({})
    letter = v.letter if g.letter == "L" else "xy"[v.letter == "x"]
    return ModuleVector({Symbol(letter, target): coeff})


def _params(cfg, family, rational):
    a, b, ap = cfg.var("a"), cfg.var("b"), cfg.var("a'")
    if family is Family.SA:
        return {"a": 1 / (a + 1), "b": 7 / (b + 4)} if rational else {"a": a, "b": b}
    return {"a'": 1 / (ap + 1) if rational else ap}


def test_bracket_coefficients_match_linear_form_arithmetic(cfg, elems):
    sv = SuperVirasoro(cfg)
    for x, y in itertools.product(elems, repeat=2):
        assert sv._bracket_basis(x, y) == reference_bracket(cfg, x, y), (x, y)


@pytest.mark.parametrize("rational", [False, True], ids=["symbolic", "rational"])
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_action_coefficients_match_linear_form_arithmetic(cfg, elems, family, rational):
    module = SeriesModule(cfg, family, _params(cfg, family, rational))
    for g, v in itertools.product(elems, module.basis_in_box(BoxSpec(2))):
        assert module._act_basis(g, v) == reference_action(module, g, v), (g, v)
