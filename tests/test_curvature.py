import math
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from pfcurv import (
    DUAL,
    SIMPLICIAL,
    BoundaryElement,
    BoundaryHinge,
    Cochain,
    MetricComplex,
    NonWellCenteredWarning,
    SimplexId,
    build_complex,
    curvature_report,
    deficit,
    gen_boundary_of_simplex,
    gen_icosphere,
    perturb_lengths,
    regge_action,
    ricci_dual_edge,
    ricci_simplicial_edge,
    riemann_hinge,
    scalar_vertex,
    sectional,
    target_columns,
    transfer_density,
)
from pfcurv.curvature import TARGETS

# Boundary of the regular 4-simplex with unit edges: three tetrahedra
# around every edge, dihedral angle arccos(1/3).
DEFICIT_5CELL = 2.0 * math.pi - 3.0 * math.acos(1.0 / 3.0)
EDGE_DUAL_5CELL = 0.17677669529663687  # 1 / (4 sqrt 2)
ACTION_5CELL = 25.903070551572615

# Radius-1 icosahedron: deficit pi/3 at each of the 12 vertices.
VERTEX_DUAL_ICO = 0.79787844860616153
SCALAR_ICO = 2.6249550994289419


def hinges(m):
    d = m.dim
    return [SimplexId(d - 2, i) for i in range(m.complex.n_simplices(d - 2))]


def test_deficit_tetrahedron_boundary(tet_boundary):
    # three equilateral corners meet at each vertex: 2 pi - 3 pi/3 = pi
    for hg in hinges(tet_boundary):
        assert deficit(tet_boundary, hg) == pytest.approx(math.pi, abs=1e-12)


def test_deficit_five_cell(cell5):
    hs = hinges(cell5)
    assert len(hs) == 10
    for hg in hs:
        assert deficit(cell5, hg) == pytest.approx(DEFICIT_5CELL, abs=1e-12)
    assert DEFICIT_5CELL == pytest.approx(2.5903070551572615, abs=1e-15)


def test_deficit_icosahedron(ico):
    for hg in hinges(ico):
        assert deficit(ico, hg) == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_deficit_four_dim_simplex_boundary(simplex5_boundary):
    # three 4-cells around every triangle, dihedral angle arccos(1/4)
    want = 2.0 * math.pi - 3.0 * math.acos(0.25)
    for hg in hinges(simplex5_boundary):
        assert deficit(simplex5_boundary, hg) == pytest.approx(want, abs=1e-12)


def test_deficit_flat_interior(grid3):
    for hg in hinges(grid3):
        if not grid3.complex.is_boundary[1][hg.index]:
            assert abs(deficit(grid3, hg)) < 1e-12


def test_deficit_boundary_hinge(grid2):
    ext = []
    for hg in hinges(grid2):
        if grid2.complex.is_boundary[0][hg.index]:
            with pytest.raises(BoundaryHinge):
                deficit(grid2, hg)
            ext.append(deficit(grid2, hg, allow_boundary=True))
    # 3x3 flat square patch: pi/2 turning at the four corners, straight
    # elsewhere, total turning 2 pi
    ext.sort()
    assert len(ext) == 12
    assert np.allclose(ext[:8], 0.0, atol=1e-12)
    assert np.allclose(ext[8:], math.pi / 2.0, atol=1e-12)
    assert sum(ext) == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_deficit_rejects_non_hinge(ico):
    with pytest.raises(ValueError):
        deficit(ico, SimplexId(1, 0))


def test_sectional_and_riemann_five_cell(cell5):
    want = DEFICIT_5CELL / EDGE_DUAL_5CELL
    for hg in hinges(cell5):
        assert sectional(cell5, hg) == pytest.approx(want, rel=1e-12)
        assert riemann_hinge(cell5, hg) == pytest.approx(3.0 * want, rel=1e-12)
        assert riemann_hinge(cell5, hg, normalized=True) == pytest.approx(
            want, rel=1e-12
        )
        assert riemann_hinge(cell5, hg, both_orientations=True) == pytest.approx(
            6.0 * want, rel=1e-12
        )


def test_sectional_icosahedron(ico):
    # C(2,2) = 1: Riemann and sectional coincide in dimension 2
    want = (math.pi / 3.0) / VERTEX_DUAL_ICO
    for hg in hinges(ico):
        assert sectional(ico, hg) == pytest.approx(want, rel=1e-12)
        assert riemann_hinge(ico, hg) == pytest.approx(want, rel=1e-12)
        assert riemann_hinge(ico, hg, normalized=True) == pytest.approx(
            want, rel=1e-12
        )


def test_ricci_five_cell(cell5):
    # every hinge of a face or an edge carries the same sectional value,
    # so both Ricci flavours collapse to C(3,2) deficit / dual area
    want = 3.0 * DEFICIT_5CELL / EDGE_DUAL_5CELL
    c = cell5.complex
    for i in range(c.n_simplices(1)):
        assert ricci_simplicial_edge(cell5, i) == pytest.approx(want, rel=1e-12)
        assert ricci_simplicial_edge(cell5, i, normalized=True) == pytest.approx(
            want / 3.0, rel=1e-12
        )
        assert ricci_simplicial_edge(cell5, i, both_orientations=True) == pytest.approx(
            2.0 * want, rel=1e-12
        )
    for i in range(c.n_simplices(2)):
        assert ricci_dual_edge(cell5, i) == pytest.approx(want, rel=1e-12)
        assert ricci_dual_edge(cell5, i, normalized=True) == pytest.approx(
            want / 3.0, rel=1e-12
        )


def test_ricci_rejects_dimension_two(ico):
    with pytest.raises(ValueError):
        ricci_dual_edge(ico, 0)
    with pytest.raises(ValueError):
        ricci_simplicial_edge(ico, 0)


def test_ricci_rejects_boundary(grid3):
    c = grid3.complex
    eb = c.is_boundary[1]
    fb = c.is_boundary[2]
    with pytest.raises(BoundaryElement):
        ricci_simplicial_edge(grid3, int(np.flatnonzero(eb)[0]))
    with pytest.raises(BoundaryElement):
        ricci_dual_edge(grid3, int(np.flatnonzero(fb)[0]))


def test_scalar_vertex_icosahedron(ico):
    for v in range(12):
        assert scalar_vertex(ico, v) == pytest.approx(SCALAR_ICO, rel=1e-12)
    for t in range(20):
        assert scalar_vertex(ico, t, lattice="dual") == pytest.approx(
            SCALAR_ICO, rel=1e-12
        )


def test_scalar_vertex_five_cell(cell5):
    want = 6.0 * DEFICIT_5CELL / EDGE_DUAL_5CELL
    for v in range(5):
        assert scalar_vertex(cell5, v) == pytest.approx(want, rel=1e-12)
    for t in range(5):
        assert scalar_vertex(cell5, t, lattice="dual") == pytest.approx(
            want, rel=1e-12
        )
    assert want == pytest.approx(87.917936834738711, rel=1e-14)


def test_scalar_vertex_rejections(grid3):
    vb = grid3.complex.is_boundary[0]
    with pytest.raises(BoundaryElement):
        scalar_vertex(grid3, int(np.flatnonzero(vb)[0]))
    with pytest.raises(ValueError):
        scalar_vertex(grid3, 0, lattice="diagonal")


def test_gauss_bonnet_icospheres(icospheres):
    for level, m in icospheres.items():
        total = sum(deficit(m, hg) for hg in hinges(m))
        assert total == pytest.approx(4.0 * math.pi, abs=1e-9), level


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gauss_bonnet_perturbed_icospheres(level, seed):
    m = perturb_lengths(gen_icosphere(level), 0.05, seed)
    total = sum(deficit(m, hg) for hg in hinges(m))
    assert total == pytest.approx(2.0 * math.pi * m.complex.euler_characteristic(), abs=1e-9)


@pytest.mark.parametrize("n, seed", [(20, 1), (100, 2), (400, 3)])
def test_gauss_bonnet_random_sphere_hulls(n, seed):
    # seeded Gaussian points pushed onto S^2; their hull is a closed
    # triangulated sphere whose squared lengths are the squared chords
    x = np.random.default_rng(seed).standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    c = build_complex(2, ConvexHull(x).simplices)
    e = c.simplices[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        m = MetricComplex(c, ((x[e[:, 0]] - x[e[:, 1]]) ** 2).sum(axis=1))
    assert c.euler_characteristic() == 2
    total = sum(deficit(m, hg) for hg in hinges(m))
    assert total == pytest.approx(4.0 * math.pi, abs=1e-9)


def test_regge_action_closed(ico, cell5):
    # vertex hinges have unit measure: S = 12 pi/3 on the icosahedron
    assert regge_action(ico) == pytest.approx(4.0 * math.pi, abs=1e-12)
    assert regge_action(cell5) == pytest.approx(ACTION_5CELL, abs=1e-12)
    assert regge_action(cell5, prefactor=0.5) == pytest.approx(
        ACTION_5CELL / 2.0, abs=1e-12
    )


def test_regge_action_flat(grid2, grid3):
    assert abs(regge_action(grid3)) < 1e-9
    # with the boundary term the flat patch keeps only its total turning
    assert regge_action(grid2, include_boundary=True) == pytest.approx(
        2.0 * math.pi, abs=1e-12
    )


def test_deficit_scale_invariance(cell5):
    # squared lengths times 3: a power of two would be divided out exactly
    scaled = MetricComplex(cell5.complex, 3.0 * cell5.edge_lengths_sq)
    for hg in hinges(cell5):
        assert deficit(scaled, hg) == pytest.approx(
            deficit(cell5, hg), abs=1e-12
        )
    # S picks up s**(d-2) = sqrt(3) from the hinge measures
    assert regge_action(scaled) == pytest.approx(math.sqrt(3.0) * ACTION_5CELL, rel=1e-12)


def test_action_scale_invariant_dimension_two(ico):
    scaled = MetricComplex(ico.complex, 9.0 * ico.edge_lengths_sq)
    assert regge_action(scaled) == pytest.approx(regge_action(ico), rel=1e-12)


def _lattice_sums(m):
    d = m.dim
    c = m.complex
    hinge = sum(
        riemann_hinge(m, hg) * m.hybrid_volume(hg)
        for hg in hinges(m)
    )
    dual_edge = sum(
        ricci_dual_edge(m, i) * m.hybrid_volume(SimplexId(d - 1, i))
        for i in range(c.n_simplices(d - 1))
    )
    edge = sum(
        ricci_simplicial_edge(m, i) * m.hybrid_volume(SimplexId(1, i))
        for i in range(c.n_simplices(1))
    )
    return hinge, dual_edge, edge


def test_volume_weighted_sums_telescope(cell5, simplex5_boundary):
    for m in (cell5, simplex5_boundary):
        s = regge_action(m)
        for total in _lattice_sums(m):
            assert total == pytest.approx(s, rel=1e-10)


def test_transfer_matches_edge_ricci(cell5, simplex5_boundary):
    # integrating the dual-edge Ricci density and moving it across the
    # lattices reproduces the simplicial-edge Ricci pointwise
    for m in (cell5, simplex5_boundary):
        d = m.dim
        nf = m.complex.n_simplices(d - 1)
        ric = np.array([ricci_dual_edge(m, i) for i in range(nf)])
        w = Cochain(m, DUAL, 1, ric * m.dual_volumes[d - 1])
        moved = transfer_density(w, SIMPLICIAL, 1)
        got = moved.densities()
        want = np.array(
            [ricci_simplicial_edge(m, i) for i in range(m.complex.n_simplices(1))]
        )
        assert np.allclose(got, want, rtol=1e-12)


def test_curvature_report_five_cell(cell5):
    rep = curvature_report(cell5)
    assert rep.dim == 3
    assert rep.action == pytest.approx(ACTION_5CELL, abs=1e-12)
    assert np.allclose(rep.hinge_deficit, DEFICIT_5CELL, atol=1e-12)
    assert np.allclose(rep.hinge_dual_area, EDGE_DUAL_5CELL, rtol=1e-12)
    assert not rep.hinge_is_boundary.any()
    want = 3.0 * DEFICIT_5CELL / EDGE_DUAL_5CELL
    assert np.allclose(rep.dual_edge_ricci, want, rtol=1e-12)
    assert np.allclose(rep.edge_ricci, want, rtol=1e-12)
    assert np.allclose(rep.edge_ricci_normalized, want / 3.0, rtol=1e-12)
    assert np.allclose(rep.vertex_scalar, 2.0 * want, rtol=1e-12)
    assert np.allclose(rep.dual_vertex_scalar, 2.0 * want, rtol=1e-12)
    assert rep.metadata["orientation_factor"] == 2.0
    cols = rep.target_columns("hinges")
    assert list(cols) == [
        "deficit",
        "sectional",
        "riemann",
        "riemann_normalized",
        "area",
        "dual_area",
        "is_boundary",
    ]


def test_curvature_report_flat_grid(grid3):
    rep = curvature_report(grid3)
    assert np.isfinite(rep.hinge_deficit).all()
    assert np.abs(rep.hinge_deficit[~rep.hinge_is_boundary]).max() < 1e-12
    # boundary rows carry nan in the ratio columns
    assert np.isnan(rep.hinge_sectional[rep.hinge_is_boundary]).all()
    assert np.isnan(rep.vertex_scalar[rep.vertex_is_boundary]).all()
    assert np.isnan(rep.edge_ricci[rep.edge_is_boundary]).all()
    assert rep.action == pytest.approx(0.0, abs=1e-9)


def test_dual_scalar_without_interior_hinge(grid2):
    # two corner triangles have only boundary vertices, so no hinge
    # curvature reaches their dual vertex: an error, and nan in reports
    c = grid2.complex
    lonely = [
        t for t in range(c.n_simplices(2))
        if c.is_boundary[0][c.simplices[2][t]].all()
    ]
    assert len(lonely) == 2
    for t in lonely:
        with pytest.raises(BoundaryElement):
            scalar_vertex(grid2, t, lattice="dual")
    rep = curvature_report(grid2)
    assert np.isnan(rep.dual_vertex_scalar[lonely]).all()
    assert np.isfinite(np.delete(rep.dual_vertex_scalar, lonely)).all()


def test_curvature_report_dimension_two_targets(ico):
    rep = curvature_report(ico)
    assert rep.dual_edge_ricci is None and rep.edge_ricci is None
    with pytest.raises(ValueError):
        rep.target_columns("dual-edges")
    with pytest.raises(ValueError):
        rep.target_columns("edges")
    with pytest.raises(ValueError):
        rep.target_columns("moments")
    assert list(rep.target_columns("vertices")) == ["scalar", "is_boundary"]
    assert list(rep.target_columns("dual-vertices")) == ["scalar"]


def test_target_columns_compute_only_their_own():
    m = gen_boundary_of_simplex(4)
    k, cols = target_columns(m, "vertices")
    assert k == 0 and list(cols) == ["scalar", "is_boundary"]
    k, cols = target_columns(m, "hinges")
    assert k == 1
    assert list(cols) == ["deficit", "sectional", "riemann", "area", "dual_area", "is_boundary"]
    # only the vertex scalar column was built and cached
    assert list(m._cache) == ["vertices"]
    assert target_columns(m, "dual-edges")[0] == 2 and target_columns(m, "dual-vertices")[0] == 3
    with pytest.raises(ValueError):
        target_columns(m, "moments")
    with pytest.raises(ValueError):
        target_columns(gen_icosphere(0), "edges")


def test_column_conventions(cell5):
    _, cols = target_columns(cell5, "hinges")
    riem, sec = cols["riemann"], cols["sectional"]
    # normalized Riemann is the sectional column itself, not riemann / C(d, 2)
    assert riem.normalized is sec.values
    assert riem.label("riemann", True) == "riemann_normalized"
    assert riem.label("riemann") == "riemann" and sec.label("sectional", True) == "sectional"
    assert np.array_equal(riem.view(both_orientations=True), 2.0 * riem.values)
    assert sec.view(True, True) is sec.values
    ric = target_columns(cell5, "edges")[1]["ricci"]
    assert np.array_equal(ric.view(True, True), 2.0 * ric.values / 3)
    # the report holds the same arrays, normalized twins as fields of their own
    rep = curvature_report(cell5)
    for at in TARGETS:
        want = {}
        for name, col in target_columns(cell5, at)[1].items():
            want[name] = col.values
            if col.normalized is not None:
                want[col.label(name, True)] = col.normalized
        got = rep.target_columns(at)
        assert list(got) == list(want)
        for name in want:
            assert np.array_equal(got[name], want[name], equal_nan=want[name].dtype != bool)
