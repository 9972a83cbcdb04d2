import gc
import itertools
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from svir.algebra import AlgebraElement, CENTRAL, SuperVirasoro
from svir.formal import Symbol
from svir.lattice import EVEN, ODD, AlgebraConfig
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
    elems = [Symbol("L", v) for v in cfg.box(1, EVEN)] + \
        [Symbol("G", v) for v in cfg.box(1, ODD)] + [CENTRAL]
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
    elems = [Symbol("L", v) for v in cfg.box(1, EVEN)] + \
        [Symbol("G", v) for v in cfg.box(1, ODD)] + [CENTRAL]
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


def test_antisymmetric_keeps_one_entry_per_unordered_pair(cfg):
    sv = SuperVirasoro(cfg)
    elems = [Symbol("L", v) for v in cfg.box(1, EVEN)] + \
        [Symbol("G", v) for v in cfg.box(1, ODD)] + [CENTRAL]
    for x, y in itertools.product(elems, repeat=2):
        assert sv.antisymmetric(x, y) is sv.antisymmetric(y, x) is True
    n = len(elems)
    assert len(sv._antisym_cache) == n * (n + 1) // 2


def _ad_power(sv, x, m, y):
    """m-fold left bracket with x, by brackets of whole elements; the
    reference the stepwise ad-chain certificates are checked against."""
    out = sv.element(y)
    for _ in range(m):
        out = sv.bracket(x, out)
    return out


def test_ad_power_examples(cfg, sv):
    d1, d2 = cfg.var("d1"), cfg.var("d2")
    d = cfg.even((0, 1))
    l_mu = sv.element(sv.L((1, 0)))
    assert _ad_power(sv, sv.L(d.coords), 0, l_mu) == l_mu
    once = _ad_power(sv, sv.L(d.coords), 1, l_mu)
    assert once.terms == {sv.L((1, 1)): d1 - d2}
    twice = _ad_power(sv, sv.L(d.coords), 2, l_mu)
    assert twice.terms == {sv.L((1, 2)): (d1 - d2) * d1}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ladder_identities(cfg, sv, m):
    assert list(sv.ladder_checks(cfg.even((0, 1)), cfg.even((1, 0)), m))[-1]


def test_ladder_identity_other_steps(cfg, sv):
    assert list(sv.ladder_checks(cfg.even((1, 1)), cfg.even((1, 0)), 2))[-1]
    assert list(sv.ladder_checks(cfg.even((0, 1)), cfg.even((2, -1)), 3))[-1]


def test_ladder_degenerate_factor(cfg, sv):
    # mu = 0 makes the i = 0 factor vanish once m >= 2
    with pytest.raises(InputError, match="degenerate specialization"):
        list(sv.ladder_checks(cfg.even((0, 1)), cfg.even((0, 0)), 2))


def _ladder_by_restart(sv, d, mu, m):
    """The ladder identities at m, from a fresh ad power and factor product."""
    cfg = sv.config
    ok = True
    for letter, start, shift in (("L", mu, 0), ("G", cfg.sigma_index + mu, HALF)):
        product = cfg.ctx.one
        for i in range(-1, m - 1):
            product = product * (cfg.embed(start) + cfg.embed(d) * (i + shift))
        got = _ad_power(sv, Symbol("L", d), m, Symbol(letter, start))
        ok = ok and got == sv.element(Symbol(letter, start + d.scale(m))).scale(product)
    return ok


class _LadderRungBroken(SuperVirasoro):
    """The defining bracket with [L_{0,1}, L_{1,2}] doubled."""

    def _bracket_basis(self, x, y):
        out = super()._bracket_basis(x, y)
        if (x, y) == (self.L((0, 1)), self.L((1, 2))):
            return out.scale(self.config.scalar(2))
        return out


class _LadderRungCentral(SuperVirasoro):
    """The defining bracket with a c term added to [L_{0,1}, L_{1,2}], a
    step whose indices are far from index 0."""

    def _bracket_basis(self, x, y):
        out = super()._bracket_basis(x, y)
        if (x, y) == (self.L((0, 1)), self.L((1, 2))):
            return out + AlgebraElement({CENTRAL: self.config.scalar(1)})
        return out


# the ladder verdicts for m = 1..6 from L_[1,0] by d = [0,1]; the third
# step brackets [L_{0,1}, L_{1,2}]
_RUNGS = {SuperVirasoro: [True] * 6,
          _LadderRungBroken: [True, True] + [False] * 4,
          _LadderRungCentral: [True, True, False, True, True, True]}


@pytest.mark.parametrize("algebra", list(_RUNGS))
def test_ladder_checks_extend_one_chain(cfg, algebra):
    d, mu = cfg.even((0, 1)), cfg.even((1, 0))
    expected = [_ladder_by_restart(algebra(cfg), d, mu, m) for m in range(1, 7)]
    assert expected == _RUNGS[algebra]
    sv = algebra(cfg)
    brackets = []
    bracket = sv._bracket_basis
    sv._bracket_basis = lambda x, y: brackets.append(y) or bracket(x, y)
    assert list(sv.ladder_checks(d, mu, 6)) == expected
    # one basis bracket per step in each of the L and G chains, and one
    # [L_d, c] after the step that leaves a c term
    assert brackets.count(CENTRAL) == (algebra is _LadderRungCentral)
    assert len(brackets) == 2 * 6 + brackets.count(CENTRAL)


def test_ladder_checks_stop_at_the_first_vanishing_factor(cfg, sv):
    # the G chain's factor sigma + mu + (i + 1/2)*d vanishes at i = 2, first
    # reached at step 4
    steps = sv.ladder_checks(cfg.even((1, 2)), cfg.even((-3, -5)), 6)
    assert [next(steps) for _ in range(3)] == [True] * 3
    with pytest.raises(InputError, match="degenerate specialization"):
        next(steps)


def test_a_long_ladder_retains_only_its_interned_symbols():
    # a fresh config, so what the chain leaves behind is what the config
    # and the intern tables keep; the steps reach indices no other test uses
    cfg = AlgebraConfig(2, ("d1", "d2"), (HALF, 0))
    sv = SuperVirasoro(cfg)
    d, mu, m = cfg.even((0, 1)), cfg.even((3, -1)), 2000
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert all(sv.ladder_checks(d, mu, m))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / m < 1200, f"{retained / m:.0f} bytes per step"


def test_ladder_validates_parities(cfg, sv):
    with pytest.raises(InputError, match="the ladder steps by an even index"):
        list(sv.ladder_checks(cfg.odd((HALF, 0)), cfg.even((1, 0)), 1))


def test_ladder_needs_a_step(cfg, sv):
    with pytest.raises(InputError, match="m must be positive"):
        list(sv.ladder_checks(cfg.even((0, 1)), cfg.even((1, 0)), 0))


def test_bracket_witness_single_step(cfg, sv):
    d1 = cfg.var("d1")
    _, entries, ok = sv.bracket_generation_witness(cfg.even((1, 2)))
    assert ok
    first = entries[0]
    assert first.copies == 1
    assert first.start.coords == (2, 2)
    assert prod(first.factors, start=cfg.ctx.one) == d1
    # the one-step bracket itself: [L_mu, L_{mu+d1}] = d1 L_(3,4)
    step = sv.bracket(sv.L((1, 2)), sv.L((2, 2)))
    assert step.terms == {sv.L((3, 4)): d1}


def test_bracket_witness_empty_product(cfg, sv):
    _, entries, ok = sv.bracket_generation_witness(cfg.even((1, 1)))
    assert ok
    assert entries[0].copies == 0
    assert prod(entries[0].factors, start=cfg.ctx.one) == cfg.ctx.one


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
    assert prod(first.factors, start=cfg.ctx.one) == -d1


class _WitnessStepDoubled(SuperVirasoro):
    """The defining bracket with the one pair in ``doubled`` doubled."""

    doubled = None

    def _bracket_basis(self, x, y):
        out = super()._bracket_basis(x, y)
        return out.scale(self.config.scalar(2)) if (x, y) == self.doubled else out


@pytest.mark.parametrize("source", [(2, 3), (3, 6)])
def test_bracket_witness_flags_a_doubled_chain_step(cfg, source):
    # mu = [1,3]: row 0 runs L_[2,3] -> L_[3,6] -> L_[4,9], row 1 takes no step
    sv = _WitnessStepDoubled(cfg)
    l_mu = sv.L((1, 3))
    sv.doubled = (l_mu, sv.L(source))
    adapted, entries, ok = sv.bracket_generation_witness(cfg.even((1, 3)))
    assert [e.copies for e in entries] == [2, 0]
    assert [e.bracket_ok for e in entries] == [False, True]
    assert not ok
    for row, e in enumerate(entries):
        target = Symbol("L", adapted.basis.row_vector(row))
        restart = _ad_power(sv, l_mu, e.copies, Symbol("L", e.start))
        product = prod(e.factors, start=cfg.ctx.one)
        assert e.bracket_ok == (restart == sv.element(target).scale(product))


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
    assert prod(third.factors, start=cfg3.ctx.one) == cfg3.var("d1") + cfg3.var("d3")
    for coords in itertools.product(range(-2, 3), repeat=3):
        assert sv3.bracket_generation_witness(cfg3.even(coords))[2], coords


def test_basis_elt_validation(cfg):
    odd, even = cfg.odd((HALF, 0)), cfg.even((1, 0))
    # valid symbols on the same indices are interned first, and each
    # invalid one is still refused every time
    Symbol("G", odd), Symbol("L", even)
    for _ in range(2):
        with pytest.raises(InputError, match="L requires an even index"):
            Symbol("L", odd)
        with pytest.raises(InputError, match="G requires an odd index"):
            Symbol("G", even)
        with pytest.raises(InputError, match="the central element carries no index"):
            Symbol("c", even)


def test_basis_elts_are_interned(cfg, sv):
    mu = cfg.even((1, 0))
    assert sv.L((1, 0)) is Symbol("L", mu)
    other = AlgebraConfig(2, ("e1", "e2"), (-HALF, 0))
    assert SuperVirasoro(other).G((HALF, 0)) is sv.G((HALF, 0))
    assert Symbol("c", None) is CENTRAL
    out = sv.bracket_basis(sv.L((1, 0)), sv.L((-1, 0)))
    assert Symbol("L", mu - mu) in out.terms and CENTRAL in out.terms


@pytest.mark.parametrize("field", ["letter", "index"])
def test_basis_elt_fields_cannot_be_assigned(sv, field):
    g = sv.G((HALF, 0))
    with pytest.raises(AttributeError):
        setattr(g, field, getattr(g, field))
    assert g.letter == "G" and g is sv.G((HALF, 0))


def test_basis_elt_repr_shows_its_fields(sv):
    assert repr(sv.L((1, 0))) == ("Symbol(letter='L', index=IndexVector("
                                  "twice=(2, 0), parity=0), parity=0)")
    assert repr(CENTRAL) == "Symbol(letter='c', index=None, parity=0)"


# -- bilinear accumulation against a plain-dict reference ---------------------

_CFG = AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b"))
_SA = SeriesModule(_CFG, Family.SA, {"a": _CFG.var("a"), "b": _CFG.var("b")})
_GENERATORS = [Symbol("L", v) for v in _CFG.box(1, EVEN)] + \
    [Symbol("G", v) for v in _CFG.box(1, ODD)] + [CENTRAL]
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
