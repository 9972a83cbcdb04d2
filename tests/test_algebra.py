import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svir.algebra import AlgebraElement, BasisElt, CENTRAL, Kind, SuperVirasoro
from svir.lattice import AlgebraConfig, Parity
from svir.repmod import BoxSpec, Family, ModuleVector, SeriesModule
from svir.scalar import InputError

from jacobi_defect import expected_jacobi_residual

HALF = Fraction(1, 2)


def test_bracket_of_two_even_generators(cfg, sv):
    d1, d2 = cfg.var("d1"), cfg.var("d2")
    out = sv.bracket_basis(sv.L((1, 0)), sv.L((0, 1)))
    assert out.terms == {sv.L((1, 1)): d2 - d1}


def test_bracket_even_central_term(cfg, sv):
    d1 = cfg.var("d1")
    out = sv.bracket_basis(sv.L((1, 0)), sv.L((-1, 0)))
    assert out.terms == {
        sv.L((0, 0)): -2 * d1,
        CENTRAL: -(d1 ** 3 - d1) * Fraction(1, 12),
    }


def test_bracket_odd_central_term(cfg, sv):
    d1 = cfg.var("d1")
    out = sv.bracket_basis(sv.G((HALF, 0)), sv.G((-HALF, 0)))
    assert out.terms == {
        sv.L((0, 0)): cfg.scalar(2),
        CENTRAL: -((d1 / 2) ** 2 - Fraction(1, 4)) * Fraction(1, 3),
    }


def test_bracket_odd_even_by_graded_antisymmetry(cfg, sv):
    # the (eta - mu/2) coefficient vanishes for eta = sigma, mu = d1
    assert sv.bracket(sv.G((HALF, 0)), sv.L((1, 0))).is_zero()
    lg = sv.bracket_basis(sv.L((1, 1)), sv.G((HALF, 0)))
    gl = sv.bracket_basis(sv.G((HALF, 0)), sv.L((1, 1)))
    assert gl == -lg and not lg.is_zero()


def test_even_self_bracket_vanishes_odd_does_not(cfg, sv):
    assert sv.bracket(sv.L((1, 0)), sv.L((1, 0))).is_zero()
    out = sv.bracket(sv.G((HALF, 1)), sv.G((HALF, 1)))
    assert out.terms == {sv.L((1, 2)): cfg.scalar(2)}


def test_central_element_is_central(sv, cfg):
    for other in [sv.L((1, -2)), sv.G((-HALF, 1)), CENTRAL]:
        assert sv.bracket(CENTRAL, other).is_zero()
        assert sv.bracket(other, CENTRAL).is_zero()


def test_jacobi_residual_zero_triples(cfg, sv):
    assert sv.super_jacobi_residual(
        sv.L((1, 0)), sv.L((0, 1)), sv.L((1, 1))).is_zero()
    # odd-odd central term activates but cancels against [L, c] = 0
    assert sv.super_jacobi_residual(
        sv.L((1, 0)), sv.G((HALF, 0)), sv.G((-HALF, 0))).is_zero()
    assert sv.super_jacobi_residual(CENTRAL, sv.L((2, -1)), sv.G((HALF, 1))).is_zero()


def test_jacobi_residual_detects_central_sign_mismatch(cfg, sv):
    """The two central coefficients in the defining table are mutually
    inconsistent: on (L_mu, G_eta, G_lam) with mu + eta + lam = 0 the
    graded Leibniz residual is exactly -(1/3)(mu^3 - mu) c.  Consistency
    would require the odd central coefficient to carry the opposite sign
    (a factor of -4 between the two cocycle normalizations); the engine
    implements the table as defined and reports the residual.
    """
    d1 = cfg.var("d1")
    res = sv.super_jacobi_residual(
        sv.L((1, 0)), sv.G((HALF, 0)), sv.G((Fraction(-3, 2), 0)))
    assert res.terms == {CENTRAL: -(d1 ** 3 - d1) * Fraction(1, 3)}
    # with mu = 0 the residual degenerates to zero
    assert sv.super_jacobi_residual(
        sv.L((0, 0)), sv.G((HALF, 0)), sv.G((-HALF, 0))).is_zero()


def test_jacobi_residual_zero_except_on_characterized_triples(cfg, sv):
    """Exhaustive radius-1 sweep: the residual vanishes exactly outside the
    one-L-two-G triples whose indices sum to zero with a nonzero L index,
    and equals the closed form -(1/3)(mu^3 - mu) c, signed by kind order, on
    them."""
    elems = [BasisElt(Kind.L, v) for v in cfg.box(1, Parity.EVEN)] + \
        [BasisElt(Kind.G, v) for v in cfg.box(1, Parity.ODD)] + [CENTRAL]
    for x, y, z in itertools.product(elems, repeat=3):
        res = sv.super_jacobi_residual(x, y, z)
        assert res.terms == expected_jacobi_residual(cfg, x, y, z), (x, y, z)


def test_jacobi_requires_homogeneous_inputs(cfg, sv):
    mixed = sv.element(sv.L((1, 0))) + sv.element(sv.G((HALF, 0)))
    for args in [(mixed, sv.L((0, 1)), sv.L((1, 1))), (sv.L((0, 1)), mixed, sv.L((1, 1))),
                 (sv.L((0, 1)), sv.L((1, 1)), mixed)]:
        with pytest.raises(InputError, match="homogeneous inputs"):
            sv.super_jacobi_residual(*args)


def test_bracket_of_two_basis_elements_is_the_cached_image(sv):
    x, y = sv.G((HALF, 0)), sv.G((-HALF, 0))
    assert sv.bracket(x, y) is sv.bracket_basis(x, y)


def test_graded_antisymmetry_and_weight_additivity_box(cfg, sv):
    elems = [BasisElt(Kind.L, v) for v in cfg.box(1, Parity.EVEN)] + \
        [BasisElt(Kind.G, v) for v in cfg.box(1, Parity.ODD)] + [CENTRAL]
    for x, y in itertools.product(elems, repeat=2):
        lhs = sv.bracket_basis(x, y)
        rhs = sv.bracket_basis(y, x)
        if x.parity and y.parity:
            assert lhs == rhs
        else:
            assert lhs == -rhs
        if x.index is not None and y.index is not None:
            total = x.index + y.index
            for term in lhs.terms:
                idx = term.index if term.index is not None else cfg.even((0, 0))
                assert idx.coords == total.coords


def test_ad_power_examples(cfg, sv):
    d1, d2 = cfg.var("d1"), cfg.var("d2")
    d = cfg.even((0, 1))
    mu = cfg.even((1, 0))
    l_mu = sv.element(sv.L((1, 0)))
    assert sv.ad_power(sv.L(d.coords), 0, l_mu) == l_mu
    once = sv.ad_power(sv.L(d.coords), 1, l_mu)
    assert once.terms == {sv.L((1, 1)): d1 - d2}
    twice = sv.ad_power(sv.L(d.coords), 2, l_mu)
    assert twice.terms == {sv.L((1, 2)): (d1 - d2) * d1}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ladder_identities(cfg, sv, m):
    assert sv.ladder_identity_check(cfg.even((0, 1)), cfg.even((1, 0)), m)


def test_ladder_identity_other_steps(cfg, sv):
    assert sv.ladder_identity_check(cfg.even((1, 1)), cfg.even((1, 0)), 2)
    assert sv.ladder_identity_check(cfg.even((0, 1)), cfg.even((2, -1)), 3)


def test_ladder_degenerate_factor(cfg, sv):
    # mu = 0 makes the i = 0 factor vanish once m >= 2
    with pytest.raises(InputError, match="degenerate specialization"):
        sv.ladder_identity_check(cfg.even((0, 1)), cfg.even((0, 0)), 2)


def test_ladder_validates_parities(cfg, sv):
    with pytest.raises(InputError, match="the ladder steps by an even index"):
        sv.ladder_identity_check(cfg.odd((HALF, 0)), cfg.even((1, 0)), 1)


def test_bracket_witness_single_step(cfg, sv):
    d1 = cfg.var("d1")
    _, entries, ok = sv.bracket_generation_witness(cfg.even((1, 2)))
    assert ok
    first = entries[0]
    assert first.copies == 1
    assert first.start.coords == (2, 2)
    assert first.product == d1
    # the one-step bracket itself: [L_mu, L_{mu+d1}] = d1 L_(3,4)
    step = sv.bracket(sv.L((1, 2)), sv.L((2, 2)))
    assert step.terms == {sv.L((3, 4)): d1}


def test_bracket_witness_empty_product(cfg, sv):
    _, entries, ok = sv.bracket_generation_witness(cfg.even((1, 1)))
    assert ok
    assert entries[0].copies == 0
    assert entries[0].product == cfg.ctx.one


def test_bracket_witness_some_zero_membership(cfg, sv):
    adapted, entries, ok = sv.bracket_generation_witness(cfg.even((0, 2)))
    assert ok
    assert adapted.case == "some_zero"
    assert entries[0].step.coords == (1, 0)
    assert all(e.step_in_neighborhood for e in entries)


def test_bracket_witness_box(cfg, sv):
    for coords in itertools.product(range(-2, 4), repeat=2):
        _, _, ok = sv.bracket_generation_witness(cfg.even(coords))
        assert ok, coords


def test_bracket_witness_with_sign_flips(cfg, sv):
    d1 = cfg.var("d1")
    adapted, entries, ok = sv.bracket_generation_witness(cfg.even((-1, 2)))
    assert ok
    assert adapted.sign_flips == (-1, 1)
    first = entries[0]
    assert first.start.coords == (-2, 2)
    assert first.product == -d1


def test_bracket_witness_rank3():
    from svir.lattice import AlgebraConfig
    from svir.algebra import SuperVirasoro
    cfg3 = AlgebraConfig(3, ("d1", "d2", "d3"), (0, 0, 0))
    sv3 = SuperVirasoro(cfg3)
    _, entries, ok = sv3.bracket_generation_witness(cfg3.even((1, 2, 3)))
    assert ok
    third = entries[2]
    assert third.start.coords == (2, 2, 4)
    assert third.copies == 1
    assert third.product == cfg3.var("d1") + cfg3.var("d3")
    for coords in itertools.product(range(-2, 3), repeat=3):
        assert sv3.bracket_generation_witness(cfg3.even(coords))[2], coords


def test_basis_elt_validation(cfg):
    odd, even = cfg.odd((HALF, 0)), cfg.even((1, 0))
    # valid symbols on the same indices are interned first, and each
    # invalid one is still refused every time
    BasisElt(Kind.G, odd), BasisElt(Kind.L, even)
    for _ in range(2):
        with pytest.raises(InputError, match="L requires an even index"):
            BasisElt(Kind.L, odd)
        with pytest.raises(InputError, match="G requires an odd index"):
            BasisElt(Kind.G, even)
        with pytest.raises(InputError, match="the central element carries no index"):
            BasisElt(Kind.C, even)


def test_basis_elts_are_interned(cfg, sv):
    mu = cfg.even((1, 0))
    assert sv.L((1, 0)) is BasisElt(Kind.L, mu)
    other = AlgebraConfig(2, ("e1", "e2"), (-HALF, 0))
    assert SuperVirasoro(other).G((HALF, 0)) is sv.G((HALF, 0))
    assert BasisElt(Kind.C, None) is CENTRAL
    out = sv.bracket_basis(sv.L((1, 0)), sv.L((-1, 0)))
    assert BasisElt(Kind.L, mu - mu) in out.terms and CENTRAL in out.terms


@pytest.mark.parametrize("field", ["kind", "index"])
def test_basis_elt_fields_cannot_be_assigned(sv, field):
    g = sv.G((HALF, 0))
    with pytest.raises(AttributeError):
        setattr(g, field, getattr(g, field))
    assert g.kind is Kind.G and g is sv.G((HALF, 0))


def test_basis_elt_repr_shows_its_fields(sv):
    assert repr(sv.L((1, 0))) == ("BasisElt(kind=<Kind.L: 'L'>, index=IndexVector("
                                  "twice=(2, 0), parity=<Parity.EVEN: 'even'>))")
    assert repr(CENTRAL) == "BasisElt(kind=<Kind.C: 'c'>, index=None)"


# -- bilinear accumulation against a plain-dict reference ---------------------

_CFG = AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b"))
_SA = SeriesModule(_CFG, Family.SA, {"a": _CFG.var("a"), "b": _CFG.var("b")})
_GENERATORS = [BasisElt(Kind.L, v) for v in _CFG.box(1, Parity.EVEN)] + \
    [BasisElt(Kind.G, v) for v in _CFG.box(1, Parity.ODD)] + [CENTRAL]
_VECTORS = list(_SA.basis_in_box(BoxSpec(1)))


@st.composite
def _raw_terms(draw, pool):
    """1-4 (symbol, rational) terms; a term may be followed by its negative."""
    items = []
    for sym in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
        coeff = draw(st.fractions(-2, 2, max_denominator=3).filter(bool))
        items.append((sym, coeff))
        if draw(st.booleans()):
            items.append((sym, -coeff))
    return items


def _reference(x_items, y_items, basis_map):
    """Bilinear extension accumulated symbol by symbol in a plain dict."""
    ref = {}
    for bx, cx in x_items:
        for by, cy in y_items:
            for sym, c in basis_map(bx, by).items():
                ref[sym] = ref.get(sym, _CFG.ctx.zero) + c * (cx * cy)
    return {sym: c for sym, c in ref.items() if not c.is_zero()}


def _build(cls, items):
    return cls.from_terms((sym, _CFG.scalar(c)) for sym, c in items)


@given(_raw_terms(_GENERATORS), st.none() | _raw_terms(_GENERATORS),
       _raw_terms(_VECTORS))
@settings(max_examples=40, deadline=None)
def test_bracket_and_act_accumulate_like_a_plain_dict(x_items, y_items, v_items):
    # y = x when none is drawn, so even self-brackets cancel to zero
    y_items = x_items if y_items is None else y_items
    sv = _SA.algebra
    x, y = _build(AlgebraElement, x_items), _build(AlgebraElement, y_items)
    v = _build(ModuleVector, v_items)
    for out, ref in [(sv.bracket(x, y), _reference(x_items, y_items, sv.bracket_basis)),
                     (_SA.act(x, v), _reference(x_items, v_items, _SA.act_basis))]:
        assert out.terms == ref
        assert not any(c.is_zero() for c in out.terms.values())
        assert (out - out).is_zero()
    assert (x - x).is_zero() and (v - v).is_zero()


# -- residuals against a plain-dict reference ----------------------------------

_EVEN = [g for g in _GENERATORS if g.parity == 0]
_ODD = [g for g in _GENERATORS if g.parity == 1]


@st.composite
def _homogeneous(draw, cls=AlgebraElement):
    """(argument, its raw terms, its parity): a bare basis element or a sum of
    1-4 terms of one parity, whose terms may cancel down to zero."""
    parity = draw(st.sampled_from((0, 1)))
    pool = _ODD if parity else _EVEN
    if draw(st.booleans()):
        sym = draw(st.sampled_from(pool))
        return sym, [(sym, 1)], parity
    items = draw(_raw_terms(pool))
    return _build(cls, items), items, parity


@st.composite
def _module_vector(draw):
    if draw(st.booleans()):
        sym = draw(st.sampled_from(_VECTORS))
        return sym, [(sym, 1)]
    items = draw(_raw_terms(_VECTORS))
    return _build(ModuleVector, items), items


def _pairs(terms):
    """A raw term list, or the items of a reference dict."""
    return terms.items() if isinstance(terms, dict) else terms


def _combine(*signed):
    """sign * terms summed in a plain dict, zeros dropped."""
    out = {}
    for sign, terms in signed:
        for sym, c in terms.items():
            out[sym] = out.get(sym, _CFG.ctx.zero) + c * sign
    return {sym: c for sym, c in out.items() if not c.is_zero()}


@given(_homogeneous(), _homogeneous(), _homogeneous())
@settings(max_examples=60, deadline=None)
def test_jacobi_residual_matches_a_plain_dict(xd, yd, zd):
    (x, xi, px), (y, yi, py), (z, zi, _) = xd, yd, zd

    def br(a, b):
        return _reference(_pairs(a), _pairs(b), _SA.algebra.bracket_basis)

    ref = _combine((1, br(xi, br(yi, zi))), (-1, br(br(xi, yi), zi)),
                   (1 if px and py else -1, br(yi, br(xi, zi))))
    out = _SA.algebra.super_jacobi_residual(x, y, z)
    assert out.terms == ref
    assert not any(c.is_zero() for c in out.terms.values())


@given(_homogeneous(), _homogeneous(), _module_vector())
@settings(max_examples=60, deadline=None)
def test_rep_residual_matches_a_plain_dict(ud, wd, vd):
    (u, ui, pu), (w, wi, pw), (v, vi) = ud, wd, vd

    def act(g, vec):
        return _reference(_pairs(g), _pairs(vec), _SA.act_basis)

    uw = _reference(ui, wi, _SA.algebra.bracket_basis)
    ref = _combine((1, act(uw, vi)), (-1, act(ui, act(wi, vi))),
                   (-1 if pu and pw else 1, act(wi, act(ui, vi))))
    out = _SA.rep_residual(u, w, v)
    assert out.terms == ref
    assert not any(c.is_zero() for c in out.terms.values())
