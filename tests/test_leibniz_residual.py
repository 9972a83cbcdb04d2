"""The one Leibniz residual against the two residual bodies it replaced.

``SuperVirasoro.leibniz_residual`` computes the module-axiom residual R of
an action; ``super_jacobi_residual`` is -R for the adjoint action and
``rep_residual`` is R for a module's action.  The references below are the
two residuals as they were written before they shared that method, kept
here as ``tests/test_algebra.py`` keeps ``_ad_power``.  Every test compares
the delegating methods with them term for term and as printed, on every
radius-1 triple of the tables as written and of the tables that
``tests/test_twin_failures.py`` breaks on purpose, where the residuals are
nonzero, and on sums of two terms of one parity.
"""

import itertools
from itertools import chain

import pytest

from svir.algebra import AlgebraElement, SuperVirasoro
from svir.cli import _basis_elements
from svir.formal import bilinear_terms
from svir.repmod import BoxSpec, Family, ModuleVector, SeriesModule

from test_twin_failures import (_DoubledGOnX, _module, _OnePairBroken,
                                _OneSupportPairBroken, _UngradedPair)


def _jacobi_reference(sv, x, y, z):
    """J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]], on its own."""
    one = sv.config.ctx.one
    xs, px = AlgebraElement.homogeneous(x, one)
    ys, py = AlgebraElement.homogeneous(y, one)
    zs, pz = AlgebraElement.homogeneous(z, one)
    assert None not in (px, py, pz)
    yz, xy, xz = sv.bracket(y, z), sv.bracket(x, y), sv.bracket(x, z)
    bb = sv.bracket_basis
    return AlgebraElement.from_terms(chain(
        bilinear_terms(xs, yz.items(), bb),
        bilinear_terms(xy.items(), zs, bb, negate=True),
        bilinear_terms(ys, xz.items(), bb, negate=not (px and py))))


def _rep_reference(module, u, w, v):
    """R(u,w,v) = act([u,w], v) - act(u, act(w, v)) + (-1)^{|u||w|} act(w, act(u, v)),
    on its own."""
    one = module.config.ctx.one
    us, pu = AlgebraElement.homogeneous(u, one)
    ws, pw = AlgebraElement.homogeneous(w, one)
    vs, _ = ModuleVector.homogeneous(v, one)
    assert None not in (pu, pw)
    uw, wv, uv = module.algebra.bracket(u, w), module.act(w, v), module.act(u, v)
    ab = module.act_basis
    return ModuleVector.from_terms(chain(
        bilinear_terms(uw.items(), vs, ab),
        bilinear_terms(us, wv.items(), ab, negate=True),
        bilinear_terms(ws, uv.items(), ab, negate=bool(pu and pw))))


def _nonzero_agreeing(residual, reference, triples):
    """How many of the triples have a nonzero residual, after asserting that
    residual and reference agree on each, term for term and as printed."""
    nonzero = 0
    for args in triples:
        got, want = residual(*args), reference(*args)
        assert got == want and str(got) == str(want), args
        nonzero += not got.is_zero()
    return nonzero


@pytest.fixture(scope="module")
def elems(cfg):
    return _basis_elements(cfg, 1)


@pytest.fixture(scope="module")
def two_term(cfg, elems):
    """Sums a + d1 b of neighbouring box elements of one parity, and one sum
    whose terms cancel to zero."""
    d1 = cfg.var("d1")
    sums = [AlgebraElement.of(a, cfg.ctx.one) + AlgebraElement({b: d1})
            for a, b in zip(elems, elems[1:]) if a.parity == b.parity]
    a = AlgebraElement.of(elems[0], cfg.ctx.one)
    return sums + [a - a]


@pytest.mark.parametrize("table, nonzero", [
    (SuperVirasoro, 66), (_OnePairBroken, 127), (_OneSupportPairBroken, 68),
    (_UngradedPair, 177)], ids=lambda p: getattr(p, "__name__", None))
def test_jacobi_residual_matches_its_own_formula_on_radius_1(cfg, elems, table, nonzero):
    sv = table(cfg)
    triples = itertools.product(elems, repeat=3)
    assert _nonzero_agreeing(sv.super_jacobi_residual,
                             lambda *t: _jacobi_reference(sv, *t), triples) == nonzero


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("algebra, table, nonzero", [
    (SuperVirasoro, SeriesModule, (0, 0, 0)),
    (_OnePairBroken, SeriesModule, (15, 14, 14)),
    (SuperVirasoro, _DoubledGOnX, (540, 502, 516))],
    ids=["as written", "pair broken", "G on x doubled"])
def test_rep_residual_matches_its_own_formula_on_radius_1(cfg, elems, family, algebra,
                                                          table, nonzero):
    module = _module(cfg, family, algebra=algebra(cfg), cls=table)
    vectors = module.basis_in_box(BoxSpec(1))
    triples = [(u, w, v) for u, w in itertools.product(elems, repeat=2) for v in vectors]
    assert _nonzero_agreeing(module.rep_residual, lambda *t: _rep_reference(module, *t),
                             triples) == nonzero[list(Family).index(family)]


def test_jacobi_residual_matches_its_own_formula_on_two_term_sums(cfg, two_term):
    sv = SuperVirasoro(cfg)
    triples = itertools.product(two_term, repeat=3)
    assert _nonzero_agreeing(sv.super_jacobi_residual,
                             lambda *t: _jacobi_reference(sv, *t), triples) > 0


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_rep_residual_matches_its_own_formula_on_two_term_sums(cfg, two_term, family):
    module = _module(cfg, family, cls=_DoubledGOnX)
    one, d2 = cfg.ctx.one, cfg.var("d2")
    basis = module.basis_in_box(BoxSpec(1))
    # neighbours of one parity, and an x plus a y, which mixes parities
    vectors = [ModuleVector({a: one, b: d2}) for a, b in zip(basis, basis[1:])]
    triples = [(u, w, v) for u, w in itertools.product(two_term, repeat=2) for v in vectors]
    assert _nonzero_agreeing(module.rep_residual,
                             lambda *t: _rep_reference(module, *t), triples) > 0
