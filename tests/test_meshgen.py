import math
import warnings

import numpy as np
import pytest

import oracles
from pfcurv import DegenerateSimplex, NonWellCenteredWarning, perturb_lengths
from pfcurv.meshgen import gen_boundary_of_simplex, gen_flat_grid, gen_icosphere
from pfcurv.suites import run_suite


def test_flat_grid_2d_counts(grid2):
    c = grid2.complex
    assert c.n_simplices(0) == 16
    assert c.n_simplices(2) == 18  # 9 unit squares, two triangles each
    assert c.n_simplices(1) == 33
    assert c.euler_characteristic() == 1
    assert grid2.volumes[2].sum() == pytest.approx(9.0, abs=1e-13)


def test_flat_grid_3d_counts(grid3):
    c = grid3.complex
    assert c.n_simplices(0) == 64
    assert c.n_simplices(3) == 162  # 27 unit cubes, six tetrahedra each
    assert c.euler_characteristic() == 1
    assert grid3.volumes[3].sum() == pytest.approx(27.0, rel=1e-13)


def test_flat_grid_boundary(grid2):
    c = grid2.complex
    assert int(c.is_boundary[1].sum()) == 12  # 4 sides, 3 edges each
    assert int(c.is_boundary[0].sum()) == 12


def test_flat_grid_has_coordinates(grid2):
    pts = grid2.coordinates
    assert pts is not None and pts.shape == (16, 2)
    e = grid2.complex.simplices[1]
    derived = ((pts[e[:, 0]] - pts[e[:, 1]]) ** 2).sum(axis=1)
    assert np.allclose(derived, grid2.edge_lengths_sq, rtol=1e-15)


def test_flat_grid_4d_is_flat_and_passes_checks():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        m = gen_flat_grid(4, 2)
        results = run_suite(m, "all")
    c = m.complex
    assert [c.n_simplices(k) for k in (0, 4)] == [81, 384]
    assert m.volumes[4].sum() == pytest.approx(16.0, rel=1e-14)
    interior = ~c.is_boundary[2]
    assert interior.any()
    assert np.abs(2.0 * math.pi - m.hinge_angle_sums[interior]).max() <= 1e-14
    assert results and all(r.passed for r in results), [r for r in results if not r.passed]


def test_flat_grid_validation():
    with pytest.raises(ValueError):
        gen_flat_grid(1, 2)
    with pytest.raises(ValueError):
        gen_flat_grid(2, 0)


def test_simplex_boundary_counts(tet_boundary, cell5, simplex5_boundary):
    assert tet_boundary.complex.dim == 2
    assert [tet_boundary.complex.n_simplices(k) for k in range(3)] == [4, 6, 4]
    assert [cell5.complex.n_simplices(k) for k in range(4)] == [5, 10, 10, 5]
    assert [simplex5_boundary.complex.n_simplices(k) for k in range(5)] == [
        6,
        15,
        20,
        15,
        6,
    ]
    assert (cell5.edge_lengths_sq == 1.0).all()
    for m in (tet_boundary, cell5, simplex5_boundary):
        assert not m.complex.is_boundary[m.dim - 1].any()


def test_icosphere_counts():
    for level in range(3):
        m = gen_icosphere(level)
        f = 20 * 4**level
        assert m.complex.n_simplices(2) == f
        assert m.complex.n_simplices(1) == 30 * 4**level
        assert m.complex.n_simplices(0) == 10 * 4**level + 2
        assert m.complex.euler_characteristic() == 2


def test_icosphere_vertices_on_sphere():
    m = gen_icosphere(2, radius=1.5)
    r = np.linalg.norm(m.coordinates, axis=1)
    assert np.allclose(r, 1.5, rtol=1e-13)


def test_icosahedron_is_equilateral(ico):
    assert np.allclose(ico.edge_lengths_sq, ico.edge_lengths_sq[0], rtol=1e-13)


def test_icospheres_are_well_centered(icospheres):
    for m in icospheres.values():
        assert m.well_centered_fraction() == 1.0


def test_icosphere_validation():
    with pytest.raises(ValueError):
        gen_icosphere(7)
    with pytest.raises(ValueError):
        gen_icosphere(0, radius=0.0)


def _assert_same_mesh(m, ref):
    assert np.array_equal(m.coordinates, ref.coordinates)
    for k in range(m.dim + 1):
        assert np.array_equal(m.complex.simplices[k], ref.complex.simplices[k])
    assert np.array_equal(m.edge_lengths_sq, ref.edge_lengths_sq)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_grid_matches_loop_oracle(dim, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        _assert_same_mesh(gen_flat_grid(dim, n), oracles.flat_grid_loop(dim, n))


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("radius", [1.0, 2.5, 1e-3])
def test_icosphere_matches_loop_oracle(level, radius):
    _assert_same_mesh(gen_icosphere(level, radius), oracles.icosphere_loop(level, radius))


def test_perturb_reproducible(grid2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        a = perturb_lengths(grid2, 0.05, seed=11)
        b = perturb_lengths(grid2, 0.05, seed=11)
        other = perturb_lengths(grid2, 0.05, seed=12)
    assert np.array_equal(a.edge_lengths_sq, b.edge_lengths_sq)
    assert not np.array_equal(a.edge_lengths_sq, other.edge_lengths_sq)


def test_perturb_amplitude_bounds(grid2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        a = perturb_lengths(grid2, 0.05, seed=3)
    ratio = a.edge_lengths_sq / grid2.edge_lengths_sq - 1.0
    assert np.abs(ratio).max() <= 0.05
    assert np.abs(ratio).max() > 0.0


def test_perturb_zero_amplitude_identity(ico):
    out = perturb_lengths(ico, 0.0, seed=0)
    assert np.array_equal(out.edge_lengths_sq, ico.edge_lengths_sq)


def test_perturb_gives_up_on_hopeless_amplitude(ico):
    with pytest.raises(DegenerateSimplex):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonWellCenteredWarning)
            perturb_lengths(ico, 2.0, seed=1)


def test_perturb_keeps_combinatorics(grid3, perturbed_grid):
    assert perturbed_grid.complex is grid3.complex
    assert math.isclose(
        perturbed_grid.volumes[3].sum(), grid3.volumes[3].sum(), rel_tol=0.2
    )
