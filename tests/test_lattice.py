import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svir.lattice import (AlgebraConfig, ConeSpec, IndexVector, LatticeBasis, Parity,
                          adapted_cone_basis, change_of_coords,
                          cone_inclusion_check, cone_member, iso_check,
                          nested_cone_basis, unimodular_det)
from svir.parse import parse_index
from svir.scalar import InputError

HALF = Fraction(1, 2)


def test_embed_examples(cfg):
    d1, d2 = cfg.var("d1"), cfg.var("d2")
    assert cfg.embed(cfg.even((1, 0))) == d1
    assert cfg.embed(cfg.even((2, -3))) == 2 * d1 - 3 * d2
    assert cfg.embed(cfg.odd((HALF, 0))) == d1 / 2


def test_embed_is_injective_on_a_box(cfg):
    vectors = cfg.box(2, Parity.EVEN) + cfg.box(2, Parity.ODD)
    embeds = {cfg.embed(v) for v in vectors}
    assert len(embeds) == len(vectors)


@pytest.mark.parametrize("sigma", [(0,), (HALF, 0), (HALF, HALF, 0)])
def test_box_size_counts_the_box(sigma):
    n = len(sigma)
    cfg = AlgebraConfig(n, [f"d{i + 1}" for i in range(n)], sigma)
    for radius in (0, HALF, 1, Fraction(3, 2), 2, Fraction(5, 2), -1):
        for parity in Parity:
            assert cfg.box_size(radius, parity) == len(cfg.box(radius, parity))


def test_parity_validation(cfg):
    with pytest.raises(InputError, match="are not in the even class"):
        cfg.even((HALF, 0))
    with pytest.raises(InputError, match="are not in the odd class"):
        cfg.odd((1, 0))
    with pytest.raises(InputError, match="are not in the odd class"):
        cfg.odd((HALF, HALF))


def test_config_requires_half_integral_sigma():
    with pytest.raises(ValueError):
        AlgebraConfig(1, ("d1",), (Fraction(1, 3),))


def test_nested_cone_basis_rows():
    assert nested_cone_basis(2, 2).rows == ((3, 2), (4, 3))
    assert nested_cone_basis(2, 0).rows == ((1, 0), (2, 1))
    assert nested_cone_basis(3, 1).rows == ((2, 1, 1), (3, 2, 1), (4, 3, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", range(7))
def test_nested_cone_basis_det_is_plus_one(n, k):
    assert unimodular_det(nested_cone_basis(n, k)) == 1


def test_nested_cone_basis_needs_rank_two():
    with pytest.raises(ValueError):
        nested_cone_basis(1, 2)


def test_cone_member(cfg):
    even_cone = ConeSpec(LatticeBasis.identity(2), 2, Parity.EVEN)
    assert cone_member(cfg.even((2, 3)), even_cone)
    assert not cone_member(cfg.even((2, 1)), even_cone)
    odd_cone = ConeSpec(LatticeBasis.identity(2), 0, Parity.ODD)
    assert cone_member(cfg.odd((Fraction(3, 2), 2)), odd_cone)
    with pytest.raises(InputError, match="does not match the cone parity"):
        cone_member(cfg.even((1, 1)), odd_cone)


def test_cone_inclusion_frozen_coordinates():
    basis = nested_cone_basis(2, 2)
    # m' = (1,0) lands on (3,2); m' = (1,1) on (7,5); all entries >= 2
    assert basis.rows[0] == (3, 2)
    combined = tuple(a + b for a, b in zip(*basis.rows))
    assert combined == (7, 5)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", range(5))
def test_cone_inclusion_exhaustive(n, k):
    assert cone_inclusion_check(k, nested_cone_basis(n, k)) == ()


def _bounded_violations(k, rows, bound):
    """Every nonzero nonnegative combination of rows with coefficient sum
    <= bound whose coordinates are not all >= k, found by enumeration."""
    n = len(rows)
    violations = []
    for m in itertools.product(range(bound + 1), repeat=n):
        if 0 < sum(m) <= bound:
            coords = tuple(sum(mi * row[j] for mi, row in zip(m, rows)) for j in range(n))
            if any(c < k for c in coords):
                violations.append((m, coords))
    return violations


@given(st.integers(1, 3).flatmap(
           lambda n: st.lists(st.lists(st.integers(-2, 5), min_size=n, max_size=n),
                              min_size=n, max_size=n)),
       st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_cone_inclusion_matches_bounded_enumeration(rows, k):
    violations = cone_inclusion_check(k, LatticeBasis(tuple(map(tuple, rows))))
    bounded = _bounded_violations(k, rows, 4)
    assert (not violations) == (not bounded)
    assert set(violations) <= set(bounded)
    assert {m for m, _ in violations} == {
        m for m, _ in bounded if sum(m) == 1}


def test_cone_inclusion_reports_rows_as_unit_combinations():
    violations = cone_inclusion_check(2, LatticeBasis(((3, 2), (1, 4))))
    assert violations == (((0, 1), (1, 4)),)
    with pytest.raises(InputError, match="nonnegative"):
        cone_inclusion_check(-1, LatticeBasis.identity(2))


def test_unimodular_det_examples():
    assert unimodular_det(LatticeBasis.identity(3)) == 1
    assert unimodular_det(LatticeBasis(((3, 2), (4, 3)))) == 1
    assert unimodular_det(LatticeBasis(((2, 0), (0, 1)))) == 2
    assert unimodular_det(LatticeBasis(((0, 1), (0, 2)))) == 0
    # a zero pivot swaps rows, and each swap flips the sign
    assert unimodular_det(LatticeBasis(((0, 1), (1, 0)))) == -1
    assert unimodular_det(LatticeBasis(((0, 0, 1), (0, 1, 0), (1, 0, 0)))) == -1


def _leibniz_det(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3) | st.just(0), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_unimodular_det_matches_the_leibniz_formula(rows):
    assert unimodular_det(LatticeBasis(tuple(map(tuple, rows)))) == _leibniz_det(rows)


def test_adapted_basis_examples(cfg):
    ab = adapted_cone_basis(cfg.even((1, 1)))
    assert ab.case == "two_nonzero"
    assert ab.basis.rows == ((2, 1), (1, 0))
    assert unimodular_det(ab.basis) == -1

    ab = adapted_cone_basis(cfg.even((0, 2)))
    assert ab.case == "some_zero"
    assert ab.basis.rows == ((1, 2), (1, 3))
    assert unimodular_det(ab.basis) == 1

    ab = adapted_cone_basis(cfg.even((1, 2)))
    assert ab.basis.rows == ((3, 4), (1, 1))
    assert abs(unimodular_det(ab.basis)) == 1


def test_adapted_basis_sign_and_permutation_bookkeeping(cfg):
    ab = adapted_cone_basis(cfg.even((-1, 2)))
    assert ab.sign_flips == (-1, 1)
    assert ab.case == "two_nonzero"
    assert abs(unimodular_det(ab.basis)) == 1

    ab = adapted_cone_basis(cfg.even((2, 0)))
    assert ab.case == "some_zero"
    assert ab.permutation == (1, 0)
    assert abs(unimodular_det(ab.basis)) == 1

    ab = adapted_cone_basis(cfg.even((0, 0)))
    assert ab.case == "some_zero"
    assert abs(unimodular_det(ab.basis)) == 1


def test_adapted_basis_unimodular_rank2(cfg):
    for coords in itertools.product(range(-4, 5), repeat=2):
        ab = adapted_cone_basis(cfg.even(coords))
        assert abs(unimodular_det(ab.basis)) == 1, coords


def test_adapted_basis_unimodular_rank3():
    cfg3 = AlgebraConfig(3, ("d1", "d2", "d3"), (0, 0, 0))
    for coords in itertools.product(range(-4, 5), repeat=3):
        ab = adapted_cone_basis(cfg3.even(coords))
        assert abs(unimodular_det(ab.basis)) == 1, coords


def test_adapted_basis_rows_are_recorded_chains():
    cfg3 = AlgebraConfig(3, ("d1", "d2", "d3"), (0, 0, 0))
    for coords in itertools.product(range(-3, 4), repeat=3):
        mu = cfg3.even(coords)
        ab = adapted_cone_basis(mu)
        assert len(ab.chains) == 3, coords
        for row, (step, copies) in enumerate(ab.chains):
            assert ab.basis.row_vector(row) == mu.scale(copies + 1) + step, coords
            assert copies >= 0 and all(abs(t) <= 2 for t in step.twice), coords


def test_adapted_basis_needs_rank_two():
    cfg1 = AlgebraConfig(1, ("d1",), (0,))
    with pytest.raises(ValueError):
        adapted_cone_basis(cfg1.even((3,)))


def test_change_of_coords(cfg):
    bprime = LatticeBasis(((2, 1), (1, 0)))
    assert change_of_coords(cfg.even((1, 1)), bprime) == (1, -1)
    v = cfg.even((3, -2))
    assert change_of_coords(v, LatticeBasis.identity(2)) == v.coords
    with pytest.raises(InputError, match="needs a unimodular basis"):
        change_of_coords(v, LatticeBasis(((2, 0), (0, 1))))


def test_change_of_coords_round_trips_with_embed(cfg):
    bprime = nested_cone_basis(2, 3)
    for v in cfg.box(2, Parity.EVEN) + cfg.box(2, Parity.ODD):
        coords = change_of_coords(v, bprime)
        total = cfg.ctx.zero
        for c, i in zip(coords, range(2)):
            total = total + cfg.embed(bprime.row_vector(i)) * c
        assert total == cfg.embed(v)


def test_iso_check_examples():
    # alpha = 2 carries (Zu, u/2) onto (2Zu, u)
    assert iso_check([[1]], [HALF], [[2]], [1], 2)
    # identity always works
    assert iso_check([[1, 0], [0, 1]], [HALF, 0], [[1, 0], [0, 1]], [HALF, 0], 1)
    # 2 * Zu is not 3Zu
    assert not iso_check([[1]], [HALF], [[3]], [1], 2)
    # 2Zu sits inside Zu only as an index-2 sublattice
    assert not iso_check([[1]], [0], [[2]], [0], 1)


def test_iso_check_shift_condition():
    # lattices match but the shifted offset misses the target lattice
    assert not iso_check([[1]], [Fraction(1, 4)], [[2]], [1], 2)
    assert iso_check([[1]], [Fraction(1, 4)], [[2]], [HALF], 2)


def test_iso_check_alpha_zero():
    with pytest.raises(ValueError):
        iso_check([[1]], [0], [[1]], [0], 0)


def test_iso_check_rank_two_ambient():
    m = [[1, 0], [0, 1]]
    doubled = [[2, 0], [0, 2]]
    assert iso_check(m, [HALF, 0], doubled, [1, 0], 2)
    # a relabeled basis of the same scaled lattice is still accepted
    assert iso_check(m, [HALF, 0], [[2, 2], [0, 2]], [1, 2], 2)
    # mixed scaling is not a lattice multiple
    assert not iso_check(m, [0, 0], [[2, 0], [0, 3]], [0, 0], 2)
    with pytest.raises(ValueError):
        iso_check([[1, 0], [2, 0]], [0, 0], doubled, [0, 0], 2)
    # a row of M' outside the span of alpha*M
    assert not iso_check([[1, 0]], [0, 0], [[0, 1]], [0, 0], 1)
    with pytest.raises(InputError, match="same rank"):
        iso_check(m, [0, 0], [[1, 0]], [0, 0], 1)


def test_index_vector_arithmetic(cfg):
    v = cfg.even((1, 2)) + cfg.odd((HALF, 0))
    assert v.parity is Parity.ODD
    assert v.coords == (Fraction(3, 2), Fraction(2))
    w = cfg.odd((HALF, 0)) + cfg.odd((HALF, 1))
    assert w.parity is Parity.EVEN
    with pytest.raises(InputError, match="only even index vectors"):
        cfg.odd((HALF, 0)).scale(2)


def test_index_vectors_are_interned(cfg):
    v = cfg.even((1, 0))
    assert v is IndexVector((2, 0), Parity.EVEN)
    other = AlgebraConfig(2, ("e1", "e2"), (-HALF, 0))
    assert other.even((1, 0)) is v
    assert other.odd((HALF, 0)) is cfg.odd((HALF, 0))
    assert cfg.odd((HALF, 0)) is not cfg.odd((-HALF, 0))
    assert IndexVector((1, 0), Parity.ODD) is not IndexVector((1, 0), Parity.EVEN)
    a, b = cfg.even((2, -1)), cfg.odd((-HALF, 3))
    assert a + b is cfg.odd((Fraction(3, 2), 2))
    assert a - a is cfg.even((0, 0))
    assert (b - a) + a is b


@pytest.mark.parametrize("field", ["twice", "parity"])
def test_index_vector_fields_cannot_be_assigned(cfg, field):
    v = cfg.even((1, 0))
    with pytest.raises(AttributeError):
        setattr(v, field, getattr(v, field))
    with pytest.raises(AttributeError):
        delattr(v, field)
    assert v is cfg.even((1, 0)) and v.twice == (2, 0)


def test_index_vector_repr_shows_its_fields(cfg):
    assert repr(cfg.odd((HALF, -1))) == \
        "IndexVector(twice=(1, -2), parity=<Parity.ODD: 'odd'>)"


def test_basis_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="integers"):
        LatticeBasis(((Fraction(3, 2), 0), (0, 1)))
    assert LatticeBasis(((Fraction(2), 0), (0, 1))).rows == ((2, 0), (0, 1))


@st.composite
def _lattice_cases(draw):
    """A rank, a sigma (possibly zero, where the two cosets coincide), and
    two indices of random parity given by their Fraction coordinates."""
    n = draw(st.integers(1, 3))
    halves = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    sigma = tuple(Fraction(t, 2) for t in draw(st.just([0] * n) | halves))
    points = []
    for _ in range(2):
        parity = draw(st.sampled_from(Parity))
        offset = sigma if parity is Parity.ODD else (0,) * n
        shift = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        points.append((tuple(s + k for s, k in zip(offset, shift)), parity))
    return n, sigma, points


@given(_lattice_cases(), st.integers(-3, 3), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_index_vectors_agree_with_fraction_coordinates(case, m, twice_radius):
    n, sigma, ((cu, pu), (cv, pv)) = case
    cfg = AlgebraConfig(n, [f"d{i + 1}" for i in range(n)], sigma)
    assert cfg.sigma_index.coords == sigma
    u, v = cfg.index(cu, pu), cfg.index(cv, pv)
    assert u.coords == cu and v.coords == cv
    with pytest.raises(InputError, match=f"are not in the {pu.value} class"):
        cfg.index((cu[0] + HALF,) + cu[1:], pu)
    assert parse_index(cfg, str(u), pu) == u
    total, diff = u + v, u - v
    assert total.coords == tuple(a + b for a, b in zip(cu, cv))
    assert diff.coords == tuple(a - b for a, b in zip(cu, cv))
    assert total.parity is diff.parity is pu + pv
    assert cfg.index(total.coords, total.parity) == total
    assert cfg.index(diff.coords, diff.parity) == diff
    if pu is Parity.EVEN:
        assert u.scale(m).coords == tuple(m * a for a in cu)

    radius = Fraction(twice_radius, 2)
    grid = [Fraction(k, 2) for k in range(-twice_radius, twice_radius + 1)]
    for parity in Parity:
        offset = sigma if parity is Parity.ODD else (0,) * n
        expected = [c for c in itertools.product(grid, repeat=n)
                    if all((x - s).denominator == 1 for x, s in zip(c, offset))]
        box = cfg.box(radius, parity)
        assert [w.coords for w in box] == expected
        assert all(w.parity is parity for w in box)
