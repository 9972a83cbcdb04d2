from fractions import Fraction

import pytest

from svir.lattice import AlgebraConfig
from svir.algebra import SuperVirasoro
from svir.repmod import Family, SeriesModule

HALF = Fraction(1, 2)


@pytest.fixture(scope="session")
def cfg():
    """Rank 2, sigma (1/2, 0), all family parameters declared."""
    return AlgebraConfig(2, ("d1", "d2"), (HALF, 0), extra_names=("a", "b", "a'"))


@pytest.fixture(scope="session")
def sv(cfg):
    return SuperVirasoro(cfg)


@pytest.fixture(scope="session")
def sa(cfg):
    return SeriesModule(cfg, Family.SA, {"a": cfg.var("a"), "b": cfg.var("b")})


@pytest.fixture(scope="session")
def sa_prime(cfg):
    return SeriesModule(cfg, Family.SAPRIME, {"a'": cfg.var("a'")})


@pytest.fixture(scope="session")
def sb_prime(cfg):
    return SeriesModule(cfg, Family.SBPRIME, {"a'": cfg.var("a'")})
