"""Acceptance suite: every criterion is exact (tolerance zero) and runs at
desk scale.  Each test prints one PASS/FAIL line (visible with -s).

Criterion 1 pins the one defect of the defining bracket table exactly.  The
two central coefficients are mutually inconsistent (graded Jacobi needs
B = -4A, the table has A = -1/12, B = -1/3), so the graded Jacobi residual is
-(1/3)(mu^3 - mu) c, signed by kind order, on one-L-two-G triples whose
indices sum to zero with mu != 0, and zero on every other triple.  The test
asserts that closed form term for term, so it passes on the table as written
and fails if a sign in the bracket is changed; `svir jacobi-fuzz` still exits
1 and lists the same residuals.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from svir.algebra import AlgebraElement, CENTRAL, SuperVirasoro
from svir.cli import _basis_elements
from svir.lattice import (EVEN, ODD, AlgebraConfig, LatticeBasis, adapted_cone_basis,
                          cone_inclusion_check, iso_check, nested_cone_basis,
                          unimodular_det)
from svir.repmod import BoxSpec, Family, SeriesModule
from svir.scalar import InputError

from jacobi_defect import DEFECT, expected_jacobi_residual, kind_order

HALF = Fraction(1, 2)


def _line(num, description, ok):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


@pytest.fixture(scope="module")
def lean_cfg():
    # two indeterminates keep the big enumerations fast
    return AlgebraConfig(2, ("d1", "d2"), (HALF, 0))


def test_criterion_01_super_jacobi_suite(lean_cfg):
    sv = SuperVirasoro(lean_cfg)
    elems = _basis_elements(lean_cfg, 2)
    total = len(elems) ** 3
    family = 0
    departures = Counter()
    samples = []
    direct = []
    for x, y, z in itertools.product(elems, repeat=3):
        expected = expected_jacobi_residual(lean_cfg, x, y, z)
        family += bool(expected)
        residual = sv.super_jacobi_residual(x, y, z)
        if not residual.is_zero():
            direct.append((x, y, z, residual))
        if residual.terms != expected:
            departures[kind_order(x, y, z)] += 1
            if len(samples) < 3:
                samples.append(f"[{x}, {y}, {z}] -> {residual}, expected "
                               f"{AlgebraElement(expected)}")
    closed_form = f"{'-' if DEFECT < 0 else ''}({abs(DEFECT)})(mu^3 - mu) c"
    ok = _line(1, f"graded Jacobi on all {total} homogeneous basis triples in "
                  f"radius 2: {total - family} triples zero; {family} carry "
                  f"(2A + B/2)(mu^3 - mu) c = {closed_form}; B = -4A fails",
               not departures)
    if not ok:
        counts = ", ".join(f"{order} {n}" for order, n in sorted(departures.items()))
        pytest.fail(
            f"{sum(departures.values())} of {total} triples depart from the "
            f"closed-form graded Jacobi residual ({counts}), e.g. "
            + "; ".join(samples))
    # the defect is real: B = -4A fails, and radius 2 witnesses it
    assert DEFECT != 0
    assert (total, family) == (97336, 738)
    # the enumeration jacobi-fuzz reports, which derives each swapped pair,
    # lists exactly the direct nonzero residuals, in the same order
    assert list(sv.twin_failures(sv.super_jacobi_residual, elems, elems)) == direct


def test_criterion_02_antisymmetry_and_centrality(lean_cfg):
    sv = SuperVirasoro(lean_cfg)
    elems = _basis_elements(lean_cfg, 2)
    bad_pairs = []
    for x, y in itertools.product(elems, repeat=2):
        lhs = sv.bracket_basis(x, y)
        rhs = sv.bracket_basis(y, x)
        expected = rhs if (x.parity and y.parity) else -rhs
        if lhs != expected:
            bad_pairs.append((x, y))
    central_bad = [x for x in elems
                   if not sv.bracket_basis(CENTRAL, x).is_zero()
                   or not sv.bracket_basis(x, CENTRAL).is_zero()]
    ok = _line(2, f"graded antisymmetry and centrality on {len(elems) ** 2} "
                  "basis pairs in radius 2", not bad_pairs and not central_bad)
    assert ok, (bad_pairs[:3], central_bad[:3])


def _rep_suite(module, gen_radius, vec_radius):
    elems = _basis_elements(module.config, gen_radius)
    vectors = module.basis_in_box(BoxSpec(vec_radius))
    failures = []
    count = 0
    for u, w in itertools.product(elems, repeat=2):
        for v in vectors:
            count += 1
            residual = module.rep_residual(u, w, v)
            if not residual.is_zero():
                failures.append((u, w, v, residual))
    return count, failures


def test_criterion_03_representation_suite_sa():
    cfg = AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b"))
    module = SeriesModule(cfg, Family.SA, {"a": cfg.var("a"), "b": cfg.var("b")})
    count, failures = _rep_suite(module, 2, 1)
    ok = _line(3, f"SA module axiom: {count} triples, symbolic a and b",
               not failures)
    if not ok:
        u, w, v, r = failures[0]
        pytest.fail(f"first nonzero residual ({u}, {w}, {v}) = {r}")
    assert ok


@pytest.mark.parametrize("family", ["SAprime", "SBprime"])
def test_criterion_04_representation_suite_primed(family):
    cfg = AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a'",))
    module = SeriesModule(cfg, Family(family), {"a'": cfg.var("a'")})
    count, failures = _rep_suite(module, 2, 1)
    ok = _line(4, f"{family} module axiom: {count} triples, symbolic a'",
               not failures)
    if not ok:
        u, w, v, r = failures[0]
        pytest.fail(f"first nonzero residual ({u}, {w}, {v}) = {r}")
    assert ok


def test_criterion_05_nested_cone_basis():
    ok = True
    for n in (2, 3):
        for k in range(5):
            basis = nested_cone_basis(n, k)
            if unimodular_det(basis) != 1:
                ok = False
            if cone_inclusion_check(k, basis):
                ok = False
    assert _line(5, "nested cone bases: det exactly +1 and cone inclusion for "
                    "every nonnegative combination, n in {2,3}, k in 0..4", ok)


def test_criterion_06_adapted_basis_and_witness(lean_cfg):
    sv = SuperVirasoro(lean_cfg)
    ok = True
    for coords in itertools.product(range(4), repeat=2):
        mu = lean_cfg.even(coords)
        adapted = adapted_cone_basis(mu)
        if abs(unimodular_det(adapted.basis)) != 1:
            ok = False
        _, entries, witness_ok = sv.bracket_generation_witness(mu)
        if not witness_ok:
            ok = False
        if adapted.case == "some_zero":
            if any(e.copies != 0 or not e.step_in_neighborhood
                   for e in entries):
                ok = False
    assert _line(6, "adapted bases unimodular with exact bracket witnesses "
                    "for all mu in [0,3]^2", ok)


def test_criterion_07_ladder_identities(lean_cfg):
    sv = SuperVirasoro(lean_cfg)
    mu = lean_cfg.even((1, 0))
    d = lean_cfg.even((0, 1))
    ok = all(sv.ladder_checks(d, mu, 4))
    assert _line(7, "ad-ladder identities for m = 1..4 in both the even and "
                    "odd form with symbolic mu", ok)


def test_criterion_08_sb_prime_submodule_and_sa_fullness():
    cfg = AlgebraConfig(2, ("d1", "d2"), (HALF, 0),
                        extra_names=("a", "b", "a'"))
    sb = SeriesModule(cfg, Family.SBPRIME, {"a'": cfg.var("a'")})
    box2 = BoxSpec(2)
    y0 = sb.y((0, 0))
    closure_ok = sb.closure([y0], box2) == frozenset([y0])
    rows = sb.quotient_dims({y0}, box2)
    zero_even = [(v, dim) for v, dim in rows
                 if v.index.parity == EVEN and sb.weight_of(v).is_zero()]
    quotient_ok = (len(zero_even) == 1 and zero_even[0][1] == 0
                   and all(dim == 1 for v, dim in rows if v != y0))
    sa = SeriesModule(cfg, Family.SA, {"a": cfg.var("a"), "b": cfg.var("b")})
    box1 = BoxSpec(1)
    full = frozenset(sa.basis_in_box(box1))
    sa_ok = sa.closure([sa.x((0, 0))], box1) == full and len(full) == 15
    assert _line(8, "SB' keeps {y_0} invariant with the even zero weight "
                    "removed in the quotient; symbolic SA fills its box "
                    "from x_0", closure_ok and quotient_ok and sa_ok)


def _cone_meets_box(config, bprime, k, box):
    """True when some nonzero level-k cone operator has its target in the box
    (independent enumeration mirroring the probe's candidate set)."""
    from svir.lattice import change_of_coords
    for v in (config.box(2 * box.radius, EVEN)
              + config.box(2 * box.radius, ODD)):
        if v.is_zero() or not box.contains(v):
            continue
        if all(c >= k for c in change_of_coords(v, bprime)):
            return True
    return False


def test_criterion_09_ghw_probe_rejects_sa():
    cfg = AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b"))
    sa = SeriesModule(cfg, Family.SA, {"a": cfg.var("a"), "b": cfg.var("b")})
    x0 = sa.vector(sa.x((0, 0)))
    box = BoxSpec(4)
    bases = [LatticeBasis.identity(2),
             nested_cone_basis(2, 1),
             nested_cone_basis(2, 2),
             adapted_cone_basis(cfg.even((1, 1))).basis,
             LatticeBasis(((1, 1), (0, 1)))]
    ok = True
    decidable = 0
    for bprime in bases:
        for k in (0, 1, 2):
            if _cone_meets_box(cfg, bprime, k, box):
                decidable += 1
                annihilated, witness = sa.ghw_probe(x0, bprime, k, box)
                if annihilated or witness is None:
                    ok = False
            else:
                # the level-k cone misses the radius-4 box entirely, so the
                # probe would check nothing and refuses to run
                with pytest.raises(InputError, match="would check nothing"):
                    sa.ghw_probe(x0, bprime, k, box)
    # the pinned example (identity basis, k = 1) must be among the decided
    annihilated, witness = sa.ghw_probe(x0, LatticeBasis.identity(2), 1, box)
    ok = ok and not annihilated and str(witness) == "L[1,1]"
    assert _line(9, f"generalized-highest-weight probe rejects symbolic SA "
                    f"from x_0 on all {decidable} non-vacuous (basis, k<=2) "
                    "pairs, with explicit counterexamples", ok and decidable >= 10)


def test_criterion_10_iso_criterion():
    accept = iso_check([[1]], [HALF], [[2]], [1], 2)
    reject = not iso_check([[1]], [HALF], [[3]], [1], 2)
    assert _line(10, "isomorphism criterion accepts alpha=2 onto the doubled "
                     "lattice and rejects the tripled one",
                 accept and reject)
