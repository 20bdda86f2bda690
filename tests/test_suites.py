import pytest

import oracles
from pfcurv import MetricComplex, build_complex, gen_boundary_of_simplex, gen_icosphere
from pfcurv.suites import CheckResult, curvature_checks, dec_checks, run_suite, volume_checks

pytestmark = pytest.mark.filterwarnings(
    "ignore::pfcurv.errors.NonWellCenteredWarning"
)


def test_check_result_passed():
    assert CheckResult("x", 0.5, 1.0).passed
    assert CheckResult("x", 1.0, 1.0).passed
    assert not CheckResult("x", 2.0, 1.0).passed


def test_all_suites_pass_on_curved_meshes(ico, cell5, simplex5_boundary):
    for m in (ico, cell5, simplex5_boundary):
        results = run_suite(m, "all")
        assert results
        names = [r.name for r in results]
        assert len(names) == len(set(names))
        for r in results:
            assert r.passed, f"{r.name}: residual {r.residual} tol {r.tol}"


def test_all_suites_pass_on_flat_and_perturbed(grid3, perturbed_grid):
    for m in (grid3, perturbed_grid):
        results = run_suite(m, "all")
        for r in results:
            assert r.passed, f"{r.name}: residual {r.residual} tol {r.tol}"


def test_dec_suite_on_a_cycle():
    # d=1: no degree k + 2 for d after d and no transfer between the
    # lattices; the adjointness and Hodge checks still apply
    c = build_complex(1, [[0, 1], [1, 2], [2, 3], [0, 3]])
    m = MetricComplex(c, [1.0, 0.5, 2.0, 1.5])
    results = dec_checks(m)
    assert [r.name for r in results] == ["measured adjointness", "hodge round trip", "hodge density preservation"]
    assert all(r.passed for r in results)
    assert results[0].residual == oracles.looped_adjointness(m)
    with pytest.raises(ValueError, match="dimension >= 2"):
        run_suite(m, "all")


def test_suite_selection(ico):
    vol = run_suite(ico, "volumes")
    dec = run_suite(ico, "dec")
    cur = run_suite(ico, "curvature")
    both = run_suite(ico, "all")
    assert [r.name for r in both] == [r.name for r in vol + dec + cur]
    assert any("volume partition" in r.name for r in vol)
    assert any("d after d vanishes" in r.name for r in dec)
    assert any(r.name == "gauss-bonnet" for r in cur)


def test_corrupted_dual_volume_fails_volume_checks():
    # a deliberately inconsistent cache must trip the partition identity
    m = gen_icosphere(0)
    m.dual_volumes[1] = m.dual_volumes[1].copy()
    m.dual_volumes[1][0] *= 1.1
    results = volume_checks(m)
    failed = {r.name for r in results if not r.passed}
    assert "volume partition k=1" in failed


def test_corrupted_dual_volume_fails_curvature_checks():
    # the hinge dual area cancels from the action but not from the edge
    # Ricci averages, so conservation across lattices breaks
    m = gen_boundary_of_simplex(4)
    m.dual_volumes[1] = m.dual_volumes[1].copy()
    m.dual_volumes[1][0] *= 1.5
    results = curvature_checks(m)
    failed = {r.name for r in results if not r.passed}
    assert "action conservation across lattices" in failed


def test_projection_law_holds_and_catches_a_corrupted_facet(cell5, grid3, perturbed_grid):
    for m in (cell5, grid3, perturbed_grid):
        law = {r.name: r for r in curvature_checks(m)}["facet projection law"]
        assert law.passed and law.residual < 1e-13
    # facet volumes and dihedral angles are computed independently, so a
    # wrong facet volume breaks the law in the cells around that facet
    m = gen_boundary_of_simplex(4)
    m.volumes[2] = m.volumes[2].copy()
    m.volumes[2][3] *= 1.0 + 1e-9
    law = {r.name: r for r in curvature_checks(m)}["facet projection law"]
    assert not law.passed


@pytest.mark.parametrize("dim", [3, 4])
def test_flat_torus_leaves_out_only_action_conservation(dim, cell5):
    m = oracles.periodic_torus(dim, 3)
    d = m.dim
    assert not m.complex.is_boundary[d - 1].any()
    assert (m.dual_volumes[d - 2] == 0).any()
    names = [r.name for r in curvature_checks(m)]
    assert names == ["facet projection law", "deficit scale invariance"]
    assert all(r.passed for r in run_suite(m, "all"))
    # on a closed mesh with no zero dual area the check runs
    assert "action conservation across lattices" in [r.name for r in curvature_checks(cell5)]
