"""The batched dihedral-angle table: every entry against the per-pair QR
oracle, the Schläfli identity on fixed and random meshes, and invariance
under length scaling across the float64 range."""

import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from pfcurv import (
    MetricComplex,
    NonWellCenteredWarning,
    SimplexId,
    deficit,
    gen_boundary_of_simplex,
    gen_flat_grid,
    gen_icosphere,
    perturb_lengths,
)


MESHES = {
    "5-cell": lambda: gen_boundary_of_simplex(4),
    "5-simplex boundary": lambda: gen_boundary_of_simplex(5),
    "perturbed grid3": lambda: perturb_lengths(gen_flat_grid(3, 3), 0.05, seed=0),
    "perturbed icosphere": lambda: perturb_lengths(gen_icosphere(2), 0.05, seed=1),
    "delaunay 3d": lambda: oracles.random_delaunay(3, 24, 1),
    "perturbed grid4": lambda: perturb_lengths(gen_flat_grid(4, 2), 0.05, seed=2),
}


@pytest.fixture(scope="module", params=list(MESHES))
def mesh(request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return MESHES[request.param]()


def _deficits(m):
    return np.array(
        [
            deficit(m, SimplexId(m.dim - 2, i), allow_boundary=True)
            for i in range(m.complex.n_simplices(m.dim - 2))
        ]
    )


def test_every_angle_matches_qr_oracle(mesh):
    c = mesh.complex
    d = c.dim
    pairs = list(itertools.combinations(range(d + 1), 2))
    worst = 0.0
    for t in range(c.n_simplices(d)):
        tv = c.simplices[d][t]
        for col, (i, j) in enumerate(pairs):
            h = SimplexId(d - 2, int(c.top_hinges[t, col]))
            assert set(c.simplex(h)) == set(tv) - {tv[i], tv[j]}
            got = mesh.dihedral_angle(h, SimplexId(d, t))
            assert got == mesh.dihedral_angles[t, col]
            worst = max(worst, abs(got - oracles.dihedral_qr(mesh, h, SimplexId(d, t))))
    assert worst <= 1e-13


def test_angle_sums_follow_hinge_stars(mesh):
    d = mesh.dim
    for i, (cells, _) in enumerate(oracles.hinge_stars(mesh.complex)):
        total = sum(mesh.dihedral_angle(SimplexId(d - 2, i), t) for t in cells)
        assert mesh.hinge_angle_sums[i] == pytest.approx(
            total, abs=1e-13
        )


def test_schlaefli_identity(mesh):
    # sum_h |h| d(eps_h) = 0 to first order; it holds cell by cell, so
    # boundary hinges take part with their exterior-angle deficits
    rng = np.random.default_rng(7)
    l2 = mesh.edge_lengths_sq
    step = 1e-6 * l2 * rng.uniform(-1.0, 1.0, size=l2.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        up = MetricComplex(mesh.complex, l2 + step)
        down = MetricComplex(mesh.complex, l2 - step)
    d_eps = (_deficits(up) - _deficits(down)) / 2.0
    area = mesh.volumes[mesh.dim - 2]
    assert abs(area @ d_eps) <= 1e-6 * (area @ np.abs(d_eps))


@pytest.fixture(scope="module")
def scale_meshes(icospheres, perturbed_grid, simplex5_boundary):
    """An icosphere (d=2), a perturbed grid (d=3), and the 5-simplex
    boundary and a perturbed grid in d=4."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        grid4 = MESHES["perturbed grid4"]()
    return [icospheres[2], perturbed_grid, simplex5_boundary, grid4]


def _assert_scale_invariant(m, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        scaled = MetricComplex(m.complex, scale * m.edge_lengths_sq)
    assert np.abs(_deficits(scaled) - _deficits(m)).max() <= 1e-12
    for k in range(m.dim + 1):
        np.testing.assert_allclose(
            scaled.volumes[k] / scale ** (k / 2), m.volumes[k], rtol=1e-12, atol=0.0
        )


@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e120, 1e-120])
def test_deficits_scale_invariant(scale_meshes, scale):
    for m in scale_meshes:
        _assert_scale_invariant(m, scale)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_icosphere_scale_invariant_far(icospheres, scale):
    _assert_scale_invariant(icospheres[1], scale)


# Base meshes of the randomized Schläfli property: grids with boundary and
# closed spheres in d = 2, 3, 4.  The search is seeded and keeps no example
# database, so every run draws the same perturbations.
SCHLAEFLI_BASES = {
    "grid2": lambda: gen_flat_grid(2, 3),
    "icosphere": lambda: gen_icosphere(1),
    "grid3": lambda: gen_flat_grid(3, 2),
    "5-cell": lambda: gen_boundary_of_simplex(4),
    "grid4": lambda: gen_flat_grid(4, 1),
    "5-simplex boundary": lambda: gen_boundary_of_simplex(5),
}


@functools.cache
def _schlaefli_base(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return SCHLAEFLI_BASES[name]()


@seed(20261018)
@settings(max_examples=12, deadline=None, database=None)
@given(
    name=st.sampled_from(list(SCHLAEFLI_BASES)),
    perturb_seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(0.01, 0.1),
)
def test_schlaefli_identity_random(name, perturb_seed, amplitude):
    # as test_schlaefli_identity, on a randomly perturbed mesh; deficits
    # are constants minus angle sums, so their differences are the sums'
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        m = perturb_lengths(_schlaefli_base(name), amplitude, perturb_seed)
        l2 = m.edge_lengths_sq
        rng = np.random.default_rng(perturb_seed)
        step = 1e-6 * l2 * rng.uniform(-1.0, 1.0, size=l2.shape)
        up = MetricComplex(m.complex, l2 + step)
        down = MetricComplex(m.complex, l2 - step)
    d_eps = (down.hinge_angle_sums - up.hinge_angle_sums) / 2.0
    area = m.volumes[m.dim - 2]
    assert abs(area @ d_eps) <= 1e-6 * (area @ np.abs(d_eps)), (
        f"{name}: perturb_lengths seed {perturb_seed}, amplitude {amplitude!r}"
    )


def test_angle_tables_are_read_only(cell5):
    with pytest.raises(ValueError):
        cell5.dihedral_angles[0, 0] = 0.0
    with pytest.raises(ValueError):
        cell5.hinge_angle_sums[0] = 0.0
    with pytest.raises(ValueError):
        cell5.complex.top_hinges[0, 0] = 0
