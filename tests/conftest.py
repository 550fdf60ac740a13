import numpy as np
import pytest

import gflowlab as gf


@pytest.fixture(scope="session")
def sum3():
    return gf.SpeedFunction("sum", 3)


@pytest.fixture(scope="session")
def bh3():
    return gf.SpeedFunction("bh", 3)


@pytest.fixture(scope="session")
def sr24():
    return gf.SpeedFunction("sigma_ratio", 4, 2)


@pytest.fixture(scope="session")
def all_speeds(sum3, bh3, sr24):
    return [sum3, bh3, sr24]


@pytest.fixture(scope="session")
def bowl_sum3(sum3):
    return gf.solve_bowl(sum3, rho_max=1000.0, tol=1e-10)


@pytest.fixture(scope="session")
def bowl_bh3(bh3):
    return gf.solve_bowl(bh3, rho_max=1000.0, tol=1e-10)


@pytest.fixture(scope="session")
def shrinker_sum3_a50(sum3):
    return gf.solve_shrinker(sum3, 50.0, theta=0.9, tol=1e-8)


@pytest.fixture(scope="session")
def shrinker_sum3_a100(sum3):
    return gf.solve_shrinker(sum3, 100.0, theta=0.9, tol=1e-8)


@pytest.fixture(scope="session")
def shrinker_sum3_sweep(sum3, shrinker_sum3_a50, shrinker_sum3_a100):
    """sum n=3 caps for a = 50, 100, 200, 400 at tol 1e-8."""
    return [shrinker_sum3_a50, shrinker_sum3_a100,
            gf.solve_shrinker(sum3, 200.0, theta=0.9, tol=1e-8),
            gf.solve_shrinker(sum3, 400.0, theta=0.9, tol=1e-8)]


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
