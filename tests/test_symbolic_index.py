"""Symbolic indices run the bracket and action tables as written.

The tables use an index only through the index protocol of
``svir.lattice.IndexVector``: +, -, is_zero(), parity, twice, str, hashing
and the config's embed and embed_plus.  ``Form`` below implements just
that for a linear form over m1, m2, m3 with a parity bit, and an
``AlgebraConfig`` whose d-names are m1, m2, m3 embeds it as that form.  So
one check here covers every lattice point the form stands for, special
vertices aside, and the vertices are the forms that are zero.
"""

from fractions import Fraction
from itertools import product

import pytest

from svir.algebra import SuperVirasoro
from svir.formal import Symbol
from svir.lattice import EVEN, ODD, AlgebraConfig
from svir.repmod import Family, SeriesModule


class Form:
    """sum(twice[i] * m_i) / 2 with a parity bit; equal and hashed by value."""

    __slots__ = ("twice", "parity")

    def __init__(self, twice, parity):
        self.twice = tuple(Fraction(t) for t in twice)
        self.parity = parity

    def __add__(self, other):
        return Form([a + b for a, b in zip(self.twice, other.twice)], self.parity ^ other.parity)

    def __neg__(self):
        return Form([-a for a in self.twice], self.parity)

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not any(self.twice)

    def __eq__(self, other):
        return (type(other) is Form and self.twice == other.twice
                and self.parity == other.parity)

    def __hash__(self):
        return hash((self.twice, self.parity))

    def __str__(self):
        return "[" + " + ".join(f"{t / 2}*m{i + 1}" for i, t in enumerate(self.twice) if t) + "]"


def form(coords, parity):
    return Form([2 * Fraction(c) for c in coords], parity)


M1, M2, M3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
ZERO = (0, 0, 0)
PARITY = {"L": EVEN, "G": ODD}


@pytest.fixture(scope="module")
def cfg():
    return AlgebraConfig(3, ("m1", "m2", "m3"), (Fraction(1, 2), 0, 0),
                         extra_names=("a", "b", "a'"))


@pytest.fixture(scope="module")
def sv(cfg):
    return SuperVirasoro(cfg)


def symbol(letter, coords, parity=None):
    return Symbol(letter, form(coords, PARITY[letter] if parity is None else parity))


def _neg(coords):
    return tuple(-c for c in coords)


def _sum(*vecs):
    return tuple(map(sum, zip(*vecs)))


def test_jacobi_vanishes_on_independent_indices(sv):
    for kinds in product("LG", repeat=3):
        x, y, z = (symbol(k, c) for k, c in zip(kinds, (M1, M2, M3)))
        assert sv.super_jacobi_residual(x, y, z).is_zero(), kinds


def test_jacobi_residual_on_the_dependent_third_index(sv):
    # criterion 01's -(1/3)(mu^3 - mu) c, mu the L index, negated on GLG
    want = {"LGG": "(-1/3*m1^3 + 1/3*m1)*c",
            "GLG": "(1/3*m2^3 - 1/3*m2)*c",
            "GGL": "(1/3*m1^3 + m1^2*m2 + m1*m2^2 - 1/3*m1 + 1/3*m2^3 - 1/3*m2)*c"}
    third = _neg(_sum(M1, M2))
    got = {}
    for kinds in product("LG", repeat=3):
        x, y, z = (symbol(k, c) for k, c in zip(kinds, (M1, M2, third)))
        r = sv.super_jacobi_residual(x, y, z)
        if not r.is_zero():
            got["".join(kinds)] = str(r)
    assert got == want


@pytest.mark.parametrize("family", list(Family))
def test_module_axioms_hold_on_symbolic_indices(cfg, family):
    params = {name: cfg.var(name) for name in family.param_names}
    module = SeriesModule(cfg, family, params)
    thirds = (M3, ZERO, _neg(M1), _neg(M2), _neg(_sum(M1, M2)))
    checks = 0
    for (ku, kw), letter, third in product(product("LG", repeat=2), "xy", thirds):
        u, w = symbol(ku, M1), symbol(kw, M2)
        v = Symbol(letter, form(third, family.parity(letter)))
        assert module.rep_residual(u, w, v).is_zero(), (ku, kw, letter, third)
        checks += 1
    assert checks == 40


def test_rational_coordinates_embed_exactly(cfg, sv):
    # [L_mu, G_eta] = (eta - mu/2) G_{mu+eta}, at mu = m1/3 and eta = m2
    x, y = symbol("L", (Fraction(1, 3), 0, 0)), symbol("G", M2)
    image = sv.bracket_basis(x, y)
    assert image.terms == {Symbol("G", x.index + y.index): cfg.var("m2") - cfg.var("m1") / 6}
