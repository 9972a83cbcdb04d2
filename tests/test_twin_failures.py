"""The fuzz enumerations that derive residuals by graded antisymmetry.

``_twin_failures`` below is a reference enumeration: it computes
residual(x, y, t) for the pairs x <= y of the box and takes
residual(y, x, t) as plus or minus it, but only for a pair whose bracket is
graded antisymmetric.  The twin identity holds for ``super_jacobi_residual``
and ``rep_residual``, and the tests here check both.
``SuperVirasoro.jacobi_failures``, which ``jacobi-fuzz`` reports, computes
one Jacobi residual per multiset {x, y, z} and derives the other orderings
of a closed triple.  ``SeriesModule.rep_failures``, which ``rep-fuzz``
reports, makes one ``rep_residual`` call per check, and asks for (u, w, v)
right before (w, u, v); ``rep_residual`` keeps the twin of its last residual
in one slot, so one Leibniz residual is computed per unordered pair and v.
Every test compares an enumeration with the brute-force list over
``itertools.product``, which computes every residual, on the tables as
written and on tables broken on purpose, where a wrong sign or a missing
pair or support check would change the list.
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


def _twin_failures(algebra, residual, elems, thirds):
    """The nonzero residual(x, y, t) over x, y in elems and t in thirds,
    as (x, y, t, residual) in itertools.product order.

    residual is super_jacobi_residual or a module's rep_residual, whose
    twin rule leibniz_residual proves: residual(y, x, t) =
    -(-1)^{|x||y|} residual(x, y, t) for every t once [y,x] = -(-1)^{|x||y|} [x,y].
    So residual runs on the pairs with x at or before y in elems; the
    swap of such a pair is derived when that bracket identity holds
    exactly for the pair, and computed directly when it does not.
    """
    derived = {}  # (i, j) -> failures of (elems[i], elems[j]), from (j, i)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            found = derived.pop((i, j), None)
            if found is None:
                found = [(t, r) for t in thirds
                         if not (r := residual(x, y, t)).is_zero()]
                if i < j and algebra.antisymmetric(x, y):
                    odd = x.parity and y.parity
                    derived[j, i] = [(t, r if odd else -r) for t, r in found]
            for t, r in found:
                yield x, y, t, r


def _twins(algebra, residual, elems, thirds):
    """(failures, residual calls) of the derived enumeration."""
    calls = []
    return list(_twin_failures(algebra, _counted(residual, calls), elems, thirds)), len(calls)


def _computed(module, run):
    """(run(), Leibniz residuals computed meanwhile) for the module's algebra."""
    calls = []
    module.algebra.leibniz_residual = _counted(module.algebra.leibniz_residual, calls)
    try:
        return run(), len(calls)
    finally:
        del module.algebra.leibniz_residual


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
    expected, brute = _computed(module, lambda: _brute_force(module.rep_residual, elems,
                                                             vectors))
    calls = []
    module.rep_residual = _counted(module.rep_residual, calls)
    failures, computed = _computed(module, lambda: module.rep_failures(elems, vectors))
    assert failures == expected
    assert (len(calls), len(expected)) == (3840, nonzero[list(Family).index(family)])
    # 2,040 = (16 * 17 / 2) unordered pairs times 15 vectors; product order derives none
    assert (brute, computed) == (3840, 2040)


@pytest.fixture
def doubled(lean_cfg):
    """SBprime with G on x doubled, so the residuals below are nonzero."""
    return _module(lean_cfg, Family.SBPRIME, cls=_DoubledGOnX)


def _fresh(module, u, w, v):
    """rep_residual(u, w, v) from a module with an empty twin slot."""
    fresh = _module(module.config, module.family, module.algebra, cls=type(module))
    return fresh.rep_residual(u, w, v)


@pytest.mark.parametrize("asked, computed", [("uwv wuv", 1), ("uwv uwV wuv", 3),
                                              ("uwv wuv wuv", 2)],
                         ids=["twin", "slot overwritten", "twin answered once"])
def test_rep_residual_answers_only_the_next_call_for_the_twin(doubled, asked, computed):
    sv = doubled.algebra
    named = {"u": sv.L((-1, -1)), "w": sv.G((HALF, 0)),
             "v": doubled.x((HALF, 1)), "V": doubled.x((HALF, 0))}
    asked = [tuple(named[c] for c in t) for t in asked.split()]
    out, n = _computed(doubled, lambda: [doubled.rep_residual(*t) for t in asked])
    assert out == [_fresh(doubled, *t) for t in asked]
    assert not out[0].is_zero() and n == computed


def test_rep_residual_twin_of_two_odd_generators_keeps_the_sign(doubled):
    sv = doubled.algebra
    u, w, v = sv.G((HALF, 0)), sv.G((-HALF, 1)), doubled.x((HALF, 0))
    (r, twin), computed = _computed(doubled, lambda: (doubled.rep_residual(u, w, v),
                                                       doubled.rep_residual(w, u, v)))
    assert not r.is_zero() and twin == r == _fresh(doubled, w, u, v)
    assert computed == 1


def test_rep_residual_fills_no_slot_for_a_repeated_generator(doubled):
    sv = doubled.algebra
    u, v = sv.G((HALF, 0)), doubled.x((HALF, 0))
    out, computed = _computed(doubled, lambda: [doubled.rep_residual(u, u, v)
                                                for _ in range(2)])
    assert not out[0].is_zero() and out == [_fresh(doubled, u, u, v)] * 2
    assert computed == 2


def test_rep_residual_fills_no_slot_for_a_sum_or_a_broken_pair(lean_cfg, doubled):
    sv = doubled.algebra
    v = doubled.x((HALF, 0))
    total = sv.element(sv.G((HALF, 0))) + sv.element(sv.G((-HALF, 1)))
    w = sv.G((HALF, 1))
    out, computed = _computed(doubled, lambda: [doubled.rep_residual(total, w, v),
                                                doubled.rep_residual(w, total, v)])
    assert not out[0].is_zero()
    assert out == [_fresh(doubled, total, w, v), _fresh(doubled, w, total, v)]
    assert computed == 2
    broken = _module(lean_cfg, Family.SBPRIME, _OnePairBroken(lean_cfg), cls=_DoubledGOnX)
    u, w = broken.algebra.G((-HALF, -1)), broken.algebra.G((-HALF, 0))
    assert not broken.algebra.antisymmetric(u, w)
    out, computed = _computed(broken, lambda: [broken.rep_residual(u, w, v),
                                               broken.rep_residual(w, u, v)])
    assert out == [_fresh(broken, u, w, v), _fresh(broken, w, u, v)]
    assert out[0].is_zero() and not out[1].is_zero()
    assert computed == 2


def test_rep_failures_leave_at_most_one_kept_residual(lean_cfg, elems, doubled):
    names = set(vars(doubled))
    v = doubled.x((HALF, 0))
    doubled.rep_residual(elems[0], elems[1], v)
    assert doubled._twin[:3] == (elems[1], elems[0], v)
    assert len(doubled.rep_failures(elems, doubled.basis_in_box(BoxSpec(1)))) == 516
    # one slot, emptied by the last check, (elems[-1], elems[-1], v)
    assert set(vars(doubled)) == names and doubled._twin is None


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
    expected = _brute_force(module.rep_residual, elems, vectors)
    failures, calls = _twins(module.algebra, module.rep_residual, elems, vectors)
    assert failures == expected
    assert (calls, len(failures)) == (2040 + len(vectors), nonzero)
    # rep_failures computes the broken pair's swap too, one more residual per vector
    failures, computed = _computed(module, lambda: module.rep_failures(elems, vectors))
    assert (failures, computed) == (expected, 2040 + len(vectors))


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
