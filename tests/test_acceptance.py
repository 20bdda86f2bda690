"""End-to-end checks of the headline identities, one summary line each.

Each test prints a single PASS/FAIL line with the measured worst case and
the tolerance it was held to, so a full run reads as a scorecard.
"""

import math

import numpy as np
import pytest

import oracles
from pfcurv import (
    DUAL,
    SIMPLICIAL,
    Cochain,
    MetricComplex,
    SimplexId,
    coderivative,
    deficit,
    exterior_derivative,
    hodge,
    l2_inner_product,
    regge_action,
    ricci_dual_edge,
    ricci_simplicial_edge,
    riemann_hinge,
    scalar_vertex,
    transfer_density,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::pfcurv.errors.NonWellCenteredWarning"
)

FOUR_PI = 4.0 * math.pi


def hinges(m):
    d = m.dim
    return [SimplexId(d - 2, i) for i in range(m.complex.n_simplices(d - 2))]


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def rel(diff, scale):
    return float(np.max(np.abs(diff))) / max(scale, 1e-300)


def test_total_curvature_of_spheres(capsys, icospheres):
    worst = 0.0
    for m in icospheres.values():
        total = sum(deficit(m, h) for h in hinges(m))
        worst = max(worst, abs(total - FOUR_PI))
    report(
        capsys,
        "sphere total curvature",
        worst < 1e-9,
        f"max |sum eps - 4 pi| = {worst:.3g} over levels 0-3 (tol 1e-9)",
    )


def test_regular_polytope_deficits(capsys, tet_boundary, cell5):
    worst_tet = max(
        abs(deficit(tet_boundary, h) - math.pi)
        for h in hinges(tet_boundary)
    )
    want = 2.0 * math.pi - 3.0 * math.acos(1.0 / 3.0)
    worst_cell = max(
        abs(deficit(cell5, h) - want) for h in hinges(cell5)
    )
    worst = max(worst_tet, worst_cell)
    report(
        capsys,
        "regular polytope deficits",
        worst < 1e-12,
        f"tetrahedron vs pi {worst_tet:.3g}, 5-cell vs {want:.10g} "
        f"{worst_cell:.3g} (tol 1e-12)",
    )


def test_flat_grid_is_flat(capsys, grid3):
    worst = max(
        abs(deficit(grid3, h))
        for h in hinges(grid3)
        if not grid3.complex.is_boundary[1][h.index]
    )
    action = abs(regge_action(grid3))
    report(
        capsys,
        "flat grid",
        worst < 1e-9 and action < 1e-9,
        f"max interior |eps| = {worst:.3g}, |S| = {action:.3g} (tol 1e-9)",
    )


def _partition_meshes(icospheres, cell5, perturbed_grid):
    return {
        "icosphere-2": icospheres[2],
        "5-cell": cell5,
        "perturbed grid": perturbed_grid,
    }


def test_volume_partition(capsys, icospheres, cell5, perturbed_grid):
    worst = 0.0
    for m in _partition_meshes(icospheres, cell5, perturbed_grid).values():
        total = float(m.volumes[m.dim].sum())
        for k in range(m.dim + 1):
            hyb = m.volumes[k] * m.dual_volumes[k] / math.comb(m.dim, k)
            worst = max(worst, abs(float(hyb.sum()) - total) / total)
    report(
        capsys,
        "volume partition",
        worst < 1e-9,
        f"worst skeleton total vs mesh volume = {worst:.3g} relative (tol 1e-9)",
    )


def test_hybrid_volume_two_paths(capsys, icospheres, cell5, perturbed_grid):
    worst = 0.0
    for m in _partition_meshes(icospheres, cell5, perturbed_grid).values():
        for k in range(m.dim + 1):
            direct = m.volumes[k] * m.dual_volumes[k] / math.comb(m.dim, k)
            flags = np.array(
                [
                    m.hybrid_volume_from_flags(SimplexId(k, i))
                    for i in range(m.complex.n_simplices(k))
                ]
            )
            worst = max(worst, rel(direct - flags, float(np.abs(direct).max())))
    report(
        capsys,
        "hybrid volume two paths",
        worst < 1e-10,
        f"worst closed form vs flag sum = {worst:.3g} relative (tol 1e-10)",
    )


def test_against_coordinate_oracles(capsys):
    meshes = [oracles.random_delaunay(2, 12, s) for s in range(10)]
    meshes += [oracles.random_delaunay(3, 10, s) for s in range(10)]
    worst = 0.0
    for m in meshes:
        pts = m.coordinates
        c = m.complex
        oracle_dual = oracles.dual_volumes(c, pts)
        for k in range(m.dim + 1):
            tuples = c.simplex_tuples[k]
            if k >= 1:
                vols = np.array(
                    [oracles.simplex_volume(pts[list(t)]) for t in tuples]
                )
                worst = max(worst, rel(m.volumes[k] - vols, float(vols.max())))
                centers = np.array(
                    [oracles.circumcenter(pts[list(t)])[0] for t in tuples]
                )
                r2 = np.array(
                    [oracles.circumcenter(pts[list(t)])[1] for t in tuples]
                )
                mine = np.array(
                    [
                        (m.barycentric[k][i][:, None] * pts[list(t)]).sum(axis=0)
                        for i, t in enumerate(tuples)
                    ]
                )
                worst = max(
                    worst, rel(mine - centers, float(np.abs(centers).max()))
                )
                worst = max(
                    worst, rel(m.circumradius_sq[k] - r2, float(r2.max()))
                )
            scale = float(np.abs(oracle_dual[k]).max())
            worst = max(worst, rel(m.dual_volumes[k] - oracle_dual[k], scale))
    report(
        capsys,
        "coordinate oracle agreement",
        worst < 1e-8,
        f"worst of volumes/circumcenters/duals on 20 random meshes = "
        f"{worst:.3g} relative (tol 1e-8)",
    )


def test_cochain_calculus(capsys, ico, cell5, simplex5_boundary):
    rng = np.random.default_rng(11)
    dd_worst = 0
    adj_worst = 0.0
    star_worst = 0.0
    for m in (ico, cell5, simplex5_boundary):
        d = m.dim
        c = m.complex
        for lattice in (SIMPLICIAL, DUAL):
            for k in range(d - 1):
                kp = k if lattice == SIMPLICIAL else d - k
                w = Cochain(m, lattice, k, rng.integers(-9, 10, c.n_simplices(kp)))
                dd = exterior_derivative(exterior_derivative(w))
                dd_worst = max(dd_worst, int(np.abs(dd.values).max()))
        n_each = math.ceil(100 / (2 * d))
        for lattice in (SIMPLICIAL, DUAL):
            for k in range(d):
                kp = k if lattice == SIMPLICIAL else d - k
                kq = kp + 1 if lattice == SIMPLICIAL else kp - 1
                for _ in range(n_each):
                    a = Cochain(m, lattice, k, rng.standard_normal(c.n_simplices(kp)))
                    b = Cochain(
                        m, lattice, k + 1, rng.standard_normal(c.n_simplices(kq))
                    )
                    lhs = l2_inner_product(exterior_derivative(a), b)
                    rhs = l2_inner_product(a, coderivative(b))
                    adj_worst = max(
                        adj_worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
                    )
        for k in range(d + 1):
            w = Cochain(m, SIMPLICIAL, k, rng.standard_normal(c.n_simplices(k)))
            back = hodge(hodge(w))
            star_worst = max(
                star_worst, rel(back.values - w.values, float(np.abs(w.values).max()))
            )
    ok = dd_worst == 0 and adj_worst < 1e-10 and star_worst < 1e-13
    report(
        capsys,
        "cochain calculus",
        ok,
        f"|dd| = {dd_worst} (exact), adjointness {adj_worst:.3g} (tol 1e-10), "
        f"star round trip {star_worst:.3g} (tol 1e-13)",
    )


def test_ricci_across_lattices(capsys, cell5, simplex5_boundary):
    path_worst = 0.0
    sum_worst = 0.0
    for m in (cell5, simplex5_boundary):
        d = m.dim
        c = m.complex
        ric_dual = np.array(
            [ricci_dual_edge(m, i) for i in range(c.n_simplices(d - 1))]
        )
        w = Cochain(m, DUAL, 1, ric_dual * m.dual_volumes[d - 1])
        moved = transfer_density(w, SIMPLICIAL, 1).densities()
        ric_edge = np.array(
            [ricci_simplicial_edge(m, i) for i in range(c.n_simplices(1))]
        )
        path_worst = max(
            path_worst, rel(moved - ric_edge, float(np.abs(ric_edge).max()))
        )
        s = regge_action(m)
        sums = (
            sum(
                riemann_hinge(m, h) * m.hybrid_volume(h)
                for h in hinges(m)
            ),
            float((ric_dual * [
                m.hybrid_volume(SimplexId(d - 1, i))
                for i in range(c.n_simplices(d - 1))
            ]).sum()),
            float((ric_edge * [
                m.hybrid_volume(SimplexId(1, i))
                for i in range(c.n_simplices(1))
            ]).sum()),
        )
        sum_worst = max(sum_worst, max(abs(t - s) for t in sums) / abs(s))
    ok = path_worst < 1e-12 and sum_worst < 1e-10
    report(
        capsys,
        "ricci across lattices",
        ok,
        f"transfer vs edge values {path_worst:.3g} (tol 1e-12), "
        f"lattice sums vs action {sum_worst:.3g} (tol 1e-10)",
    )


def test_edge_volume_split(capsys, cell5, simplex5_boundary, grid3, perturbed_grid):
    worst = 0.0
    for m in (cell5, simplex5_boundary, grid3, perturbed_grid):
        d = m.dim
        c = m.complex
        scale = float(np.abs(m.volumes[1] * m.dual_volumes[1]).max()) / d
        for i in range(c.n_simplices(1)):
            ell = SimplexId(1, i)
            parts = sum(
                m.restricted_hinge_area(h, ell) * m.dual_volume(h) / math.comb(d, 2)
                for h in c.cofaces(ell, d - 2)
            )
            whole = m.volumes[1][i] * m.dual_volumes[1][i] / d
            worst = max(worst, abs(parts - whole) / scale)
    report(
        capsys,
        "edge volume split",
        worst < 1e-10,
        f"worst hinge-restricted sum vs |l||*l|/d = {worst:.3g} relative "
        f"(tol 1e-10)",
    )


def test_sphere_scalar_convergence(capsys, icospheres):
    medians = []
    for level in range(4):
        m = icospheres[level]
        scal = np.array(
            [scalar_vertex(m, v) for v in range(m.complex.n_simplices(0))]
        )
        medians.append(float(np.median(np.abs(scal - 2.0) / 2.0)))
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    ok = monotone and medians[-1] < 0.10
    report(
        capsys,
        "sphere scalar convergence",
        ok,
        "median |R - 2|/2 by level = "
        + ", ".join(f"{v:.4f}" for v in medians)
        + " (monotone, final < 0.10)",
    )


def test_scaling_covariance(capsys, ico, cell5, simplex5_boundary):
    eps_worst = 0.0
    act_worst = 0.0
    for m in (ico, cell5, simplex5_boundary):
        d = m.dim
        s1 = regge_action(m)
        for s in (0.5, 3.0):
            scaled = MetricComplex(m.complex, s * s * m.edge_lengths_sq)
            for h in hinges(m):
                eps_worst = max(
                    eps_worst, abs(deficit(m, h) - deficit(scaled, h))
                )
            act_worst = max(
                act_worst,
                abs(regge_action(scaled) - s ** (d - 2) * s1) / abs(s1),
            )
    ok = eps_worst < 1e-12 and act_worst < 1e-10
    report(
        capsys,
        "scaling covariance",
        ok,
        f"deficit drift {eps_worst:.3g} (tol 1e-12), action vs s^(d-2) "
        f"{act_worst:.3g} relative (tol 1e-10)",
    )
