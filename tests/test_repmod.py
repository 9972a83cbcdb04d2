import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svir.algebra import CENTRAL
from svir.formal import Symbol
from svir.lattice import EVEN, ODD, AlgebraConfig, LatticeBasis
from svir.repmod import BoxSpec, Family, SeriesModule
from svir.scalar import InputError

HALF = Fraction(1, 2)


def test_family_parity_of_x_and_y():
    assert [(f.parity("x"), f.parity("y")) for f in Family] == [
        (EVEN, ODD), (EVEN, ODD), (ODD, EVEN)]


def test_sa_action_table(cfg, sa, sv):
    a, b, d1, d2 = cfg.var("a"), cfg.var("b"), cfg.var("d1"), cfg.var("d2")
    out = sa.act_basis(sv.L((1, 0)), sa.x((0, 1)))
    assert out.terms == {sa.x((1, 1)): a + d2 + d1 * b}
    out = sa.act_basis(sv.L((1, 0)), sa.y((HALF, 0)))
    assert out.terms == {sa.y((Fraction(3, 2), 0)): a + d1 / 2 + d1 * (b - HALF)}
    out = sa.act_basis(sv.G((HALF, 0)), sa.x((1, 1)))
    assert out.terms == {sa.y((Fraction(3, 2), 1)): cfg.ctx.one}
    out = sa.act_basis(sv.G((HALF, 0)), sa.y((-HALF, 1)))
    assert out.terms == {sa.x((0, 1)): a - d1 / 2 + d2 + d1 * (b - HALF)}


def test_central_element_annihilates_everything(cfg, sa, sa_prime, sb_prime):
    for module in (sa, sa_prime, sb_prime):
        for v in module.basis_in_box(BoxSpec(1)):
            assert module.act_basis(CENTRAL, v).is_zero()


def test_sa_prime_special_cases(cfg, sa_prime, sv):
    ap, d1 = cfg.var("a'"), cfg.var("d1")
    out = sa_prime.act_basis(sv.L((1, 0)), sa_prime.x((0, 0)))
    assert out.terms == {sa_prime.x((1, 0)): d1 * (d1 + ap)}
    out = sa_prime.act_basis(sv.G((HALF, 0)), sa_prime.x((0, 0)))
    assert out.terms == {sa_prime.y((HALF, 0)): d1 + ap}
    # generic entries
    out = sa_prime.act_basis(sv.L((1, 0)), sa_prime.x((0, 1)))
    d2 = cfg.var("d2")
    assert out.terms == {sa_prime.x((1, 1)): d2 + d1}
    # G on y at lambda + eta = 0 lands on x_0 with coefficient 0
    out = sa_prime.act_basis(sv.G((HALF, 0)), sa_prime.y((-HALF, 0)))
    assert out.is_zero()


def test_sb_prime_special_cases(cfg, sb_prime, sv):
    ap, d1 = cfg.var("a'"), cfg.var("d1")
    out = sb_prime.act_basis(sv.L((1, 0)), sb_prime.y((-1, 0)))
    assert out.terms == {sb_prime.y((0, 0)): -(d1 * (d1 + ap))}
    out = sb_prime.act_basis(sv.G((HALF, 0)), sb_prime.x((-HALF, 0)))
    assert out.terms == {sb_prime.y((0, 0)): d1 + ap}
    # generic y is scaled by its own index
    out = sb_prime.act_basis(sv.L((1, 0)), sb_prime.y((0, 1)))
    d2 = cfg.var("d2")
    assert out.terms == {sb_prime.y((1, 1)): d2}
    assert sb_prime.act_basis(sv.G((HALF, 0)), sb_prime.y((0, 0))).is_zero()


def test_act_is_bilinear(cfg, sa, sv):
    a = cfg.var("a")
    x0 = sa.vector(sa.x((0, 0)))
    assert sa.act(sv.L((0, 0)), x0).terms == {sa.x((0, 0)): a}
    combined = sv.element(sv.L((1, 0))) + sv.element(sv.L((0, 1)))
    total = sa.act(combined, x0)
    assert total == sa.act(sv.L((1, 0)), x0) + sa.act(sv.L((0, 1)), x0)
    zero = sv.element(sv.L((1, 0))) - sv.element(sv.L((1, 0)))
    assert sa.act(zero, x0).is_zero()


def test_rep_residual_examples(cfg, sa, sb_prime, sv):
    # odd-odd pair on SA, symbolic parameters
    assert sa.rep_residual(sv.G((HALF, 0)), sv.G((-HALF, 1)),
                           sa.x((1, 0))).is_zero()
    # edge triple through the x_{-lambda} special case of SB'
    assert sb_prime.rep_residual(sv.L((1, 0)), sv.G((HALF, 0)),
                                 sb_prime.x((-HALF, 0))).is_zero()
    # the central element acts as zero and is central
    assert sa.rep_residual(CENTRAL, sv.L((1, 1)), sa.x((0, 0))).is_zero()


def test_rep_residual_rejects_mixed_parity(cfg, sa, sv):
    mixed = sv.element(sv.L((1, 0))) + sv.element(sv.G((HALF, 0)))
    with pytest.raises(ValueError):
        sa.rep_residual(mixed, sv.L((0, 0)), sa.x((0, 0)))


def test_basis_arguments_are_checked_without_being_wrapped(sa, sv):
    mixed = sv.element(sv.L((1, 0))) + sv.element(sv.G((HALF, 0)))
    with pytest.raises(InputError, match="homogeneous generators"):
        sa.rep_residual(sv.L((0, 0)), mixed, sa.x((0, 0)))
    misplaced = Symbol("x", sa.y((HALF, 0)).index)
    with pytest.raises(InputError, match="x carries even indices in SA"):
        sa.rep_residual(sv.L((0, 0)), sv.L((1, 0)), misplaced)
    with pytest.raises(InputError, match="x carries even indices in SA"):
        sa.act(sv.L((1, 0)), misplaced)
    assert sa.act(sv.L((1, 0)), sa.x((0, 0))) is sa.act_basis(sv.L((1, 0)), sa.x((0, 0)))


def test_weights(cfg, sa, sa_prime, sb_prime):
    a, d1, d2 = cfg.var("a"), cfg.var("d1"), cfg.var("d2")
    assert sa.weight_of(sa.x((1, -1))) == a + d1 - d2
    assert sa.weight_of(sa.y((HALF, 0))) == a + d1 / 2
    assert sa_prime.weight_of(sa_prime.x((0, 0))) == cfg.ctx.zero
    assert sb_prime.weight_of(sb_prime.y((0, 0))) == cfg.ctx.zero
    assert sb_prime.weight_of(sb_prime.x((HALF, 2))) == d1 / 2 + 2 * d2


@pytest.mark.parametrize("sigma", [(HALF, 0), (0, 0)], ids=["sigma-half", "sigma-integral"])
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_weight_is_the_l0_coefficient(family, sigma):
    cfg = AlgebraConfig(2, ("d1", "d2"), sigma, extra_names=("a", "b", "a'"))
    module = SeriesModule(cfg, family, {name: cfg.var(name) for name in family.param_names})
    l0 = Symbol("L", cfg.even((0, 0)))
    for v in module.basis_in_box(BoxSpec(2)):
        image = module.act_basis(l0, v).coefficient(v)
        assert module.weight_of(v) == (cfg.ctx.zero if image is None else image), v


def test_weight_additivity_and_injectivity(cfg, sa, sv):
    box = BoxSpec(1)
    for v in sa.basis_in_box(box):
        for g in [sv.L((1, 0)), sv.G((HALF, -1))]:
            image = sa.act_basis(g, v)
            for term in image.terms:
                assert term.index.coords == (g.index + v.index).coords
    for parity in (EVEN, ODD):
        weights = [sa.weight_of(v) for v in sa.basis_in_box(box)
                   if v.index.parity == parity]
        assert len(set(weights)) == len(weights)


def test_parity_validation(cfg, sa, sb_prime):
    with pytest.raises(InputError, match="are not in the even class"):
        sa.x((HALF, 0))
    with pytest.raises(InputError, match="are not in the odd class"):
        sb_prime.x((1, 0))
    # a vector built for SA cannot be fed to SB'
    with pytest.raises(InputError, match="x carries odd indices in SBprime"):
        sb_prime.vector(sa.x((0, 0)))


def test_module_basis_vectors_are_interned(cfg, sa, sb_prime):
    assert sa.x((1, 0)) is Symbol("x", cfg.even((1, 0)))
    assert sb_prime.y((1, 0)) is Symbol("y", cfg.even((1, 0)))
    assert sa.y((HALF, 0)) is not sb_prime.x((HALF, 0))
    other = AlgebraConfig(2, ("e1", "e2"), (-HALF, 0), extra_names=("a'",))
    module = SeriesModule(other, Family.SAPRIME, {"a'": other.var("a'")})
    assert module.y((HALF, 0)) is sa.y((HALF, 0))


def test_module_basis_vector_validation_runs_after_interning(cfg, sa):
    sa.x((0, 0))
    for _ in range(2):
        with pytest.raises(InputError, match="module basis symbols are x and y"):
            Symbol("z", cfg.even((0, 0)))


@pytest.mark.parametrize("field", ["letter", "index"])
def test_module_basis_vector_fields_cannot_be_assigned(sa, field):
    v = sa.x((1, 0))
    with pytest.raises(AttributeError):
        setattr(v, field, getattr(v, field))
    assert v.letter == "x" and v is sa.x((1, 0))


def test_module_basis_vector_repr_shows_its_fields(sa):
    assert repr(sa.y((HALF, 0))) == ("Symbol(letter='y', index=IndexVector("
                                     "twice=(1, 0), parity=1), parity=1)")


def test_a_symbol_of_the_other_family_is_refused(sa, sv):
    # algebra and module symbols are one type; the letters keep them apart
    l0, x0 = sv.L((0, 0)), sa.x((0, 0))
    calls = [lambda: sv.element(x0), lambda: sa.vector(l0), lambda: sa.vector(sv.element(l0)),
             lambda: sv.bracket(x0, l0), lambda: sv.bracket(l0, x0),
             lambda: sa.act(x0, x0), lambda: sa.act(l0, l0),
             lambda: sv.super_jacobi_residual(x0, l0, l0),
             lambda: sv.super_jacobi_residual(l0, x0, l0),
             lambda: sv.super_jacobi_residual(l0, l0, x0),
             lambda: sa.rep_residual(x0, l0, x0), lambda: sa.rep_residual(l0, x0, x0),
             lambda: sa.rep_residual(l0, l0, l0)]
    for call in calls:
        with pytest.raises(TypeError, match="cannot coerce"):
            call()


def test_a_symbol_has_the_parity_of_its_index(cfg, sa, sb_prime):
    box = BoxSpec(1)
    generators = [Symbol(letter, v) for letter, parity in (("L", EVEN), ("G", ODD))
                  for v in cfg.box(1, parity)]
    symbols = generators + list(sa.basis_in_box(box)) + list(sb_prime.basis_in_box(box))
    assert all(sym.parity == sym.index.parity for sym in symbols)
    assert {sym.parity for sym in generators if sym.letter == "G"} == {ODD}
    assert {sym.parity for sym in sb_prime.basis_in_box(box) if sym.letter == "x"} == {ODD}
    assert CENTRAL.parity == EVEN == 0


def test_closure_sb_prime_fixed_point(cfg, sb_prime, sv):
    """Independent oracle: every in-box generator image of y_0 has a zero
    coefficient, so the closure must be exactly {y_0}."""
    box = BoxSpec(2)
    y0 = sb_prime.y((0, 0))
    for target in sb_prime.basis_in_box(box):
        if target == y0:
            continue
        letter = "L" if target.letter == "y" else "G"
        op = Symbol(letter, target.index - y0.index)
        assert sb_prime.act_basis(op, y0).is_zero()
    assert sb_prime.closure([y0], box) == frozenset([y0])


def test_closure_sa_reaches_the_full_box(cfg, sa):
    box = BoxSpec(1)
    full = frozenset(sa.basis_in_box(box))
    assert len(full) == 15
    assert sa.closure([sa.x((0, 0))], box) == full


def test_closure_empty_monotone_idempotent(cfg, sa):
    box = BoxSpec(1)
    assert sa.closure([], box) == frozenset()
    small = sa.closure([sa.y((HALF, 0))], box)
    bigger = sa.closure([sa.y((HALF, 0)), sa.x((1, 1))], box)
    assert small <= bigger
    assert sa.closure(small, box) == small


def test_closure_rejects_out_of_box_seed(cfg, sa):
    with pytest.raises(ValueError):
        sa.closure([sa.x((3, 0))], BoxSpec(1))


def test_simplicity_probe(cfg, sa, sb_prime):
    _, candidates = sb_prime.simplicity_probe(BoxSpec(2))
    assert len(candidates) == 1
    assert [str(b) for b in candidates[0]] == ["y[0,0]"]
    assert sa.simplicity_probe(BoxSpec(1))[1] == ()


def test_simplicity_probe_specialized_parameters():
    """At a = 0, b = 1/2 with an integral coset, the odd zero-weight line
    becomes invariant because both acting coefficients vanish."""
    cfg0 = AlgebraConfig(2, ("d1", "d2"), (0, 0), extra_names=("a", "b"))
    module = SeriesModule(cfg0, Family.SA, {"a": cfg0.scalar(0), "b": cfg0.scalar(HALF)})
    _, candidates = module.simplicity_probe(BoxSpec(1))
    assert [[str(b) for b in cand] for cand in candidates] == [["y[0,0]"]]


# -- box closures against the direct worklist ----------------------------------

def reference_closure(module, seeds, box):
    """Box closure by the direct worklist: each popped vector probes every
    in-box target not yet reached."""
    targets = module.basis_in_box(box)
    current = set(seeds)
    frontier = list(seeds)
    while frontier:
        src = frontier.pop()
        for tgt in targets:
            if tgt in current:
                continue
            letter = "L" if tgt.letter == src.letter else "G"
            image = module.act_basis(Symbol(letter, tgt.index - src.index), src)
            if image.coefficient(tgt) is not None:
                current.add(tgt)
                frontier.append(tgt)
    return frozenset(current)


def _probe_modules():
    cfg = AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b", "a'"))
    cfg0 = AlgebraConfig(2, ("d1", "d2"), (0, 0), extra_names=("a", "b"))
    ap, zero, minus_d1 = cfg.var("a'"), cfg.scalar(0), -cfg.var("d1")
    return {
        "SA": SeriesModule(cfg, Family.SA, {"a": cfg.var("a"), "b": cfg.var("b")}),
        "SAprime": SeriesModule(cfg, Family.SAPRIME, {"a'": ap}),
        "SBprime": SeriesModule(cfg, Family.SBPRIME, {"a'": ap}),
        # a = 0, b = 1/2 on an integral coset: y_0 becomes invariant
        "SA-a=0,b=1/2": SeriesModule(cfg0, Family.SA, {"a": cfg0.scalar(0),
                                                        "b": cfg0.scalar(HALF)}),
        "SAprime-a'=0": SeriesModule(cfg, Family.SAPRIME, {"a'": zero}),
        "SBprime-a'=0": SeriesModule(cfg, Family.SBPRIME, {"a'": zero}),
        # a' = -d1 zeroes the index-0 special cases at mu = [1,0], lambda = [1/2,0]
        "SAprime-a'=-d1": SeriesModule(cfg, Family.SAPRIME, {"a'": minus_d1}),
        "SBprime-a'=-d1": SeriesModule(cfg, Family.SBPRIME, {"a'": minus_d1}),
    }


_PROBE_MODULES = _probe_modules()
_PROBE_BOXES = [BoxSpec(1), BoxSpec(Fraction(3, 2)), BoxSpec(2)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_PROBE_MODULES)), st.sampled_from(_PROBE_BOXES), st.data())
def test_closure_matches_the_direct_worklist(name, box, data):
    module = _PROBE_MODULES[name]
    basis = module.basis_in_box(box)
    seeds = data.draw(st.lists(st.sampled_from(basis), max_size=4))
    expected = reference_closure(module, seeds, box)
    assert module.closure(seeds, box) == expected
    if expected == frozenset(seeds):
        rows = module.quotient_dims(set(seeds), box)
        assert [v for v, dim in rows if dim == 0] == sorted(
            expected, key=lambda b: b.sort_key())
    else:
        with pytest.raises(InputError, match="not closure-invariant"):
            module.quotient_dims(set(seeds), box)


@pytest.mark.parametrize("box", _PROBE_BOXES, ids=["r1", "r3/2", "r2"])
@pytest.mark.parametrize("name", sorted(_PROBE_MODULES))
def test_simplicity_probe_matches_the_direct_worklist(name, box):
    module = _PROBE_MODULES[name]
    basis = module.basis_in_box(box)
    closures = [reference_closure(module, [v], box) for v in basis]
    candidates = sorted({tuple(sorted(cl, key=lambda b: b.sort_key()))
                         for cl in closures if len(cl) < len(basis)},
                        key=lambda c: (len(c), [b.sort_key() for b in c]))
    got_closures, got_candidates = module.simplicity_probe(box)
    assert len(got_closures) == len(basis)
    assert got_closures == tuple((v, len(cl)) for v, cl in zip(basis, closures))
    assert got_candidates == tuple(candidates)


def test_ghw_probe(cfg, sa, sb_prime):
    box = BoxSpec(4)
    x0 = sa.vector(sa.x((0, 0)))
    annihilated, witness = sa.ghw_probe(x0, LatticeBasis.identity(2), 1, box)
    assert not annihilated
    assert str(witness) == "L[1,1]"
    ok, none = sb_prime.ghw_probe(sb_prime.vector(sb_prime.y((0, 0))),
                                  LatticeBasis.identity(2), 0, BoxSpec(2))
    assert ok and none is None


def test_ghw_probe_refuses_a_cone_that_misses_the_box(cfg, sa):
    # level-2 cone of a deep basis has no members with targets in radius 2,
    # so the probe would check nothing
    from svir.lattice import nested_cone_basis
    with pytest.raises(InputError, match="no generator of the level-2 cone keeps the "
                                         "vector inside the box of radius 2"):
        sa.ghw_probe(sa.vector(sa.x((0, 0))), nested_cone_basis(2, 2), 2, BoxSpec(2))


def test_ghw_probe_zero_vector(cfg, sa):
    zero = sa.vector(sa.x((0, 0))) - sa.vector(sa.x((0, 0)))
    with pytest.raises(ValueError):
        sa.ghw_probe(zero, LatticeBasis.identity(2), 0, BoxSpec(2))


def test_quotient_dims(cfg, sb_prime):
    box = BoxSpec(2)
    y0 = sb_prime.y((0, 0))
    rows = sb_prime.quotient_dims({y0}, box)
    zero_even = [(v, dim) for v, dim in rows
                 if v.index.parity == EVEN and sb_prime.weight_of(v).is_zero()]
    assert len(zero_even) == 1 and zero_even[0][1] == 0
    others = [dim for v, dim in rows if v != y0]
    assert all(dim == 1 for dim in others)
    assert len(rows) == len(sb_prime.basis_in_box(box))

    everything = sb_prime.quotient_dims(set(sb_prime.basis_in_box(box)), box)
    assert all(dim == 0 for _, dim in everything)

    untouched = sb_prime.quotient_dims(set(), box)
    assert all(dim <= 1 for _, dim in untouched)


def test_quotient_requires_invariant_subset(cfg, sa):
    with pytest.raises(InputError, match="not closure-invariant"):
        sa.quotient_dims({sa.x((0, 0))}, BoxSpec(1))


def test_box_spec_validation(cfg):
    with pytest.raises(ValueError):
        BoxSpec(Fraction(1, 2))
    with pytest.raises(ValueError):
        BoxSpec(Fraction(4, 3))
    box = BoxSpec(Fraction(3, 2))
    assert box.contains(cfg.odd((Fraction(3, 2), 1)))
    assert not box.contains(cfg.even((2, 0)))


def test_module_parameter_validation(cfg):
    with pytest.raises(ValueError, match="^SA takes the parameters a, b$"):
        SeriesModule(cfg, Family.SA, {"a": cfg.var("a")})
    with pytest.raises(ValueError, match="^SBprime takes the parameters a'$"):
        SeriesModule(cfg, Family.SBPRIME, {"a": cfg.var("a"), "a'": cfg.var("a'")})
