import warnings

import numpy as np
import pytest

from pfcurv import MetricComplex, NonWellCenteredWarning, build_complex, perturb_lengths
from pfcurv.meshgen import gen_boundary_of_simplex, gen_flat_grid, gen_icosphere


@pytest.fixture(scope="session")
def ico():
    return gen_icosphere(0)


@pytest.fixture(scope="session")
def icospheres():
    return {level: gen_icosphere(level) for level in range(4)}


@pytest.fixture(scope="session")
def tet_boundary():
    return gen_boundary_of_simplex(3)


@pytest.fixture(scope="session")
def cell5():
    # boundary of the 4-simplex: the closed 3-manifold with 5 tetrahedra
    return gen_boundary_of_simplex(4)


@pytest.fixture(scope="session")
def simplex5_boundary():
    return gen_boundary_of_simplex(5)


@pytest.fixture(scope="session")
def grid2():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return gen_flat_grid(2, 3)


@pytest.fixture(scope="session")
def grid3():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return gen_flat_grid(3, 3)


@pytest.fixture(scope="session")
def perturbed_grid(grid3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return perturb_lengths(grid3, 0.05, seed=0)


@pytest.fixture(scope="session")
def perturbed_grid4():
    # d=4 with boundary and no zero dual measure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return perturb_lengths(gen_flat_grid(4, 2), 0.05, seed=1)


@pytest.fixture(scope="session")
def long_cycle():
    # d=1 with more elements than numpy's 8,192-element reduction buffer,
    # where a strided layout would change the order of a pairing's sum
    n = 10_000
    c = build_complex(1, [[i, (i + 1) % n] for i in range(n)])
    return MetricComplex(c, 1.0 + 0.5 * np.sin(np.arange(n)) ** 2)
