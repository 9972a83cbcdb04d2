"""The fuzz enumerations that derive residuals by graded antisymmetry.

``SuperVirasoro.twin_failures`` computes residual(x, y, t) for the pairs
x <= y of the box and takes residual(y, x, t) as plus or minus it, but only
for a pair whose bracket is graded antisymmetric.  The twin identity holds
for ``super_jacobi_residual`` and ``rep_residual``, and the tests here check
both.  ``SuperVirasoro.jacobi_failures``, which ``jacobi-fuzz`` reports,
computes one Jacobi residual per multiset {x, y, z} and derives the other
orderings of a closed triple.  ``SeriesModule.rep_failures``, which
``rep-fuzz`` reports, still computes one residual per check.  Every test
compares an enumeration with the brute-force list over
``itertools.product``, on the tables as written and on tables broken on
purpose, where a wrong sign or a missing pair or support check would
change the list.
"""

import itertools
from fractions import Fraction

import pytest

from svir.algebra import AlgebraElement, SuperVirasoro
from svir.cli import _basis_elements
from svir.lattice import AlgebraConfig
from svir.repmod import BoxSpec, Family, SeriesModule

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def lean_cfg():
    return AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b", "a'"))


@pytest.fixture(scope="module")
def elems(lean_cfg):
    return _basis_elements(lean_cfg, 1)


def _brute_force(residual, elems, thirds):
    return [(x, y, t, r) for x, y in itertools.product(elems, repeat=2) for t in thirds
            if not (r := residual(x, y, t)).is_zero()]


def _counted(residual, calls):
    def wrapper(*args):
        calls.append(args)
        return residual(*args)
    return wrapper


def _module(config, family, algebra=None, cls=SeriesModule):
    params = {name: config.var(name) for name in family.param_names}
    module = cls(config, family, params)
    if algebra is not None:
        module.algebra = algebra
    return module


def _triples(algebra, elems):
    """(failures, residual calls) of jacobi_failures."""
    calls = []
    algebra.super_jacobi_residual = _counted(algebra.super_jacobi_residual, calls)
    try:
        return list(algebra.jacobi_failures(elems)), len(calls)
    finally:
        del algebra.super_jacobi_residual


def _twins(algebra, residual, elems, thirds):
    """(failures, residual calls) of the derived enumeration."""
    calls = []
    return list(algebra.twin_failures(_counted(residual, calls), elems, thirds)), len(calls)


class _OnePairBroken(SuperVirasoro):
    """The defining bracket, with [G_{-1/2,-1}, G_{-1/2,0}] doubled and its
    swap left alone, so graded antisymmetry fails on that one pair."""

    def _bracket_basis(self, x, y):
        out = super()._bracket_basis(x, y)
        if (x, y) == (self.G((-HALF, -1)), self.G((-HALF, 0))):
            return out.scale(self.config.scalar(2))
        return out


class _OneSupportPairBroken(SuperVirasoro):
    """The defining bracket, with [L_{2,0}, G_{-1/2,0}] doubled and its swap
    left alone.  L_{2,0} lies outside the radius-1 box but in the support of
    [L_{1,1}, L_{1,-1}], so only the support half of the closure check sees
    that pair."""

    def _bracket_basis(self, x, y):
        out = super()._bracket_basis(x, y)
        if (x, y) == (self.L((2, 0)), self.G((-HALF, 0))):
            return out.scale(self.config.scalar(2))
        return out


class _UngradedPair(SuperVirasoro):
    """The defining bracket, with G_{1/2,1} added to [L_{1,0}, L_{0,1}] and
    subtracted from its swap: antisymmetric still, but not graded, since an
    odd term sits in the bracket of two even elements."""

    def _bracket_basis(self, x, y):
        out = super()._bracket_basis(x, y)
        pair = (self.L((1, 0)), self.L((0, 1)))
        if (x, y) in (pair, pair[::-1]):
            one = self.config.ctx.one
            return out + AlgebraElement({self.G((HALF, 1)): one if x is pair[0] else -one})
        return out


class _DoubledGOnX(SeriesModule):
    """An action table broken on purpose: G on x doubled, except into index 0."""

    def _act_basis(self, g, v):
        out = super()._act_basis(g, v)
        if g.letter == "G" and v.letter == "x" and not (g.index + v.index).is_zero():
            return out.scale(self.config.scalar(2))
        return out


def test_jacobi_twins_match_brute_force_on_half_the_residuals(lean_cfg, elems):
    sv = SuperVirasoro(lean_cfg)
    failures, calls = _twins(sv, sv.super_jacobi_residual, elems, elems)
    assert failures == _brute_force(sv.super_jacobi_residual, elems, elems)
    assert (len(elems) ** 3, calls, len(failures)) == (4096, 2176, 66)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_rep_twins_match_brute_force_on_half_the_residuals(lean_cfg, elems, family):
    module = _module(lean_cfg, family)
    vectors = module.basis_in_box(BoxSpec(1))
    failures, calls = _twins(module.algebra, module.rep_residual, elems, vectors)
    assert failures == _brute_force(module.rep_residual, elems, vectors) == []
    assert (len(elems) ** 2 * len(vectors), calls) == (3840, 2040)


def test_rep_twins_need_nothing_from_the_action_table(lean_cfg, elems):
    module = _module(lean_cfg, Family.SBPRIME, cls=_DoubledGOnX)
    vectors = module.basis_in_box(BoxSpec(1))
    failures, calls = _twins(module.algebra, module.rep_residual, elems, vectors)
    assert failures == _brute_force(module.rep_residual, elems, vectors)
    assert (calls, len(failures)) == (2040, 516)


@pytest.mark.parametrize("table, nonzero", [(SeriesModule, (0, 0, 0)),
                                            (_DoubledGOnX, (540, 502, 516))],
                         ids=["as written", "G on x doubled"])
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_rep_failures_match_brute_force_one_residual_per_check(lean_cfg, elems, family,
                                                               table, nonzero):
    module = _module(lean_cfg, family, cls=table)
    vectors = module.basis_in_box(BoxSpec(1))
    expected = _brute_force(module.rep_residual, elems, vectors)
    calls = []
    module.rep_residual = _counted(module.rep_residual, calls)
    assert module.rep_failures(elems, vectors) == expected
    assert (len(calls), len(expected)) == (3840, nonzero[list(Family).index(family)])


def test_jacobi_pair_without_antisymmetry_is_computed_directly(lean_cfg, elems):
    sv = _OnePairBroken(lean_cfg)
    failures, calls = _twins(sv, sv.super_jacobi_residual, elems, elems)
    assert failures == _brute_force(sv.super_jacobi_residual, elems, elems)
    # the broken pair's swap costs one more residual per third argument
    assert (calls, len(failures)) == (2176 + len(elems), 127)


@pytest.mark.parametrize("family, nonzero",
                         [(Family.SA, 15), (Family.SAPRIME, 14), (Family.SBPRIME, 14)],
                         ids=[f.value for f in Family])
def test_rep_pair_without_antisymmetry_is_computed_directly(lean_cfg, elems, family,
                                                           nonzero):
    module = _module(lean_cfg, family, algebra=_OnePairBroken(lean_cfg))
    vectors = module.basis_in_box(BoxSpec(1))
    failures, calls = _twins(module.algebra, module.rep_residual, elems, vectors)
    assert failures == _brute_force(module.rep_residual, elems, vectors)
    assert (calls, len(failures)) == (2040 + len(vectors), nonzero)


def test_jacobi_triples_match_brute_force_on_one_residual_per_multiset(lean_cfg, elems):
    sv = SuperVirasoro(lean_cfg)
    failures, calls = _triples(sv, elems)
    assert failures == _brute_force(sv.super_jacobi_residual, elems, elems)
    # 816 = C(16 + 2, 3) multisets of 16 elements
    assert (len(elems) ** 3, calls, len(failures)) == (4096, 816, 66)


def test_jacobi_triple_with_a_broken_pair_is_computed_directly(lean_cfg, elems):
    sv = _OnePairBroken(lean_cfg)
    failures, calls = _triples(sv, elems)
    assert failures == _brute_force(sv.super_jacobi_residual, elems, elems)
    # 16 multisets hold both broken elements and 8 meet the pair in a support;
    # their other orderings cost 74 and 34 more residuals
    assert (calls, len(failures)) == (816 + 74 + 34, 127)


def test_jacobi_triple_broken_only_in_a_support_is_computed_directly(lean_cfg, elems):
    sv = _OneSupportPairBroken(lean_cfg)
    assert all(sv.antisymmetric(x, y) for x, y in itertools.product(elems, repeat=2))
    failures, calls = _triples(sv, elems)
    assert failures == _brute_force(sv.super_jacobi_residual, elems, elems)
    # only {L_{1,-1}, L_{1,1}, G_{-1/2,0}} meets the pair, so its other five
    # orderings are computed; the two with G last fail
    assert (calls, len(failures)) == (816 + 5, 66 + 2)


def test_jacobi_triple_with_an_ungraded_support_is_computed_directly(lean_cfg, elems):
    sv = _UngradedPair(lean_cfg)
    assert all(sv.antisymmetric(x, y) for x, y in itertools.product(elems, repeat=2))
    failures, calls = _triples(sv, elems)
    assert failures == _brute_force(sv.super_jacobi_residual, elems, elems)
    # the 16 multisets holding both L's cost 74 more residuals
    assert calls == 816 + 74
