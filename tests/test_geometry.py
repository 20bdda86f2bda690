import itertools
import math
import warnings

import numpy as np
import pytest

import oracles
from pfcurv import (
    DegenerateSimplex,
    MetricComplex,
    NonWellCenteredWarning,
    NotIncident,
    SimplexId,
    build_complex,
    gen_flat_grid,
    perturb_lengths,
    read_mesh,
    target_columns,
    write_mesh,
)
from pfcurv import geometry

SQRT3 = math.sqrt(3.0)


def triangle(l01, l02, l12):
    # obtuse and right test triangles warn about centeredness by design
    c = build_complex(2, [(0, 1, 2)])
    order = [c.index[1][e] for e in [(0, 1), (0, 2), (1, 2)]]
    l2 = np.empty(3)
    l2[order] = [l01, l02, l12]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return MetricComplex(c, l2)


@pytest.fixture(scope="module")
def equilateral():
    return triangle(1.0, 1.0, 1.0)


def test_embed_equilateral_exact(equilateral):
    coords = equilateral.embed_simplex(SimplexId(2, 0))
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2]])
    assert np.array_equal(coords, expected)


def test_embed_single_edge():
    c = build_complex(1, [(0, 1)])
    m = MetricComplex(c, [4.0])
    coords = m.embed_simplex(SimplexId(1, 0))
    assert np.array_equal(coords, [[0.0], [2.0]])


def test_triangle_inequality_violation_rejected():
    with pytest.raises(DegenerateSimplex):
        triangle(1.0, 1.0, 9.0)


def test_needle_tetrahedron_rejected():
    c = build_complex(3, [(0, 1, 2, 3)])
    l2 = np.ones(6)
    l2[c.index[1][(2, 3)]] = 4.0  # forces the fourth vertex onto a line
    with pytest.raises(DegenerateSimplex):
        MetricComplex(c, l2)


def test_volumes_closed_forms(equilateral):
    assert equilateral.simplex_volume(SimplexId(2, 0)) == pytest.approx(
        SQRT3 / 4, abs=1e-15
    )
    assert equilateral.simplex_volume(SimplexId(0, 1)) == 1.0
    c = build_complex(3, [(0, 1, 2, 3)])
    m = MetricComplex(c, np.ones(6))
    assert m.simplex_volume(SimplexId(3, 0)) == pytest.approx(
        1 / (6 * math.sqrt(2)), abs=1e-15
    )


def test_circumcenter_equilateral(equilateral):
    bary, r2 = equilateral.circumcenter(SimplexId(2, 0))
    assert np.allclose(bary, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert r2 == pytest.approx(1 / 3, abs=1e-15)


def test_circumcenter_right_triangle_on_hypotenuse():
    m = triangle(1.0, 1.0, 2.0)
    bary, r2 = m.circumcenter(SimplexId(2, 0))
    assert np.allclose(bary, [0.0, 0.5, 0.5], atol=1e-15)
    assert r2 == pytest.approx(0.5, abs=1e-15)


def test_circumcenter_obtuse_negative_coordinate():
    m = triangle(1.0, 1.0, 3.8)
    bary, _ = m.circumcenter(SimplexId(2, 0))
    assert bary[0] < 0  # center beyond the long edge
    # the coordinate embedding agrees on the barycentrics
    pts = m.embed_simplex(SimplexId(2, 0))
    center, r2o = oracles.circumcenter(pts)
    assert np.allclose(bary, oracles.barycentric(pts, center), atol=1e-12)
    assert m.circumradius_sq[2][0] == pytest.approx(r2o, rel=1e-12)


def test_elevation_equilateral(equilateral):
    t = SimplexId(2, 0)
    for e in equilateral.complex.faces(t, 1):
        assert equilateral.elevation(e, t) == pytest.approx(1 / (2 * SQRT3), abs=1e-15)


def test_elevation_right_triangle_hypotenuse_zero():
    m = triangle(1.0, 1.0, 2.0)
    hyp = m.complex.id_of((1, 2))
    assert m.elevation(hyp, SimplexId(2, 0)) == 0.0


def test_elevation_obtuse_sign_pattern():
    m = triangle(1.0, 1.0, 3.8)
    t = SimplexId(2, 0)
    long_edge = m.complex.id_of((1, 2))
    assert m.elevation(long_edge, t) < 0
    for e in [(0, 1), (0, 2)]:
        assert m.elevation(m.complex.id_of(e), t) > 0


def test_elevation_pythagoras(equilateral):
    t = SimplexId(2, 0)
    e = equilateral.complex.faces(t, 1)[0]
    h = equilateral.elevation(e, t)
    assert h * h == pytest.approx(
        equilateral.circumradius_sq[2][0] - equilateral.circumradius_sq[1][e.index],
        abs=1e-15,
    )


def test_elevation_requires_incidence(equilateral):
    with pytest.raises(NotIncident):
        equilateral.elevation(SimplexId(0, 0), SimplexId(2, 0))  # skips a level


def test_dual_volume_grid_interior_vertex(grid2):
    c = grid2.complex
    interior = [
        v for v in range(c.n_simplices(0)) if not c.is_boundary[0][v]
    ]
    assert interior
    for v in interior:
        # Voronoi cell of a unit-grid vertex is the unit square
        assert grid2.dual_volume(SimplexId(0, v)) == pytest.approx(1.0, abs=1e-13)


def test_dual_volume_icosahedron_edge(ico):
    # two equilateral wings, each contributing the centroid elevation;
    # rescale the radius-1 sphere to unit edges for the closed form
    unit = MetricComplex(ico.complex, ico.edge_lengths_sq / ico.edge_lengths_sq[0])
    a = math.sqrt(ico.edge_lengths_sq[0])
    for e in range(ico.complex.n_simplices(1)):
        assert unit.dual_volume(SimplexId(1, e)) == pytest.approx(
            1 / SQRT3, rel=1e-13
        )
        assert ico.dual_volume(SimplexId(1, e)) == pytest.approx(
            a / SQRT3, rel=1e-13
        )


def test_dual_volume_top_is_one(cell5):
    assert cell5.dual_volume(SimplexId(3, 0)) == 1.0


def test_dual_volume_matches_voronoi_oracle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        m = oracles.random_delaunay(2, 40, 0)
    from scipy.spatial import Voronoi

    vor = Voronoi(m.coordinates)
    checked = 0
    for v in range(m.complex.n_simplices(0)):
        if m.complex.is_boundary[0][v]:
            continue
        region = vor.regions[vor.point_region[v]]
        if -1 in region or not region:
            continue
        area = oracles.shoelace(vor.vertices[region])
        assert m.dual_volume(SimplexId(0, v)) == pytest.approx(area, rel=1e-10)
        checked += 1
    assert checked > 10


def test_irreducible_cell_equilateral(equilateral):
    c = equilateral.complex
    v = SimplexId(0, 0)
    e = c.id_of((0, 1))
    t = SimplexId(2, 0)
    val = equilateral.irreducible_cell_volume([v, e, t])
    assert val == pytest.approx(1 / (8 * SQRT3), abs=1e-15)
    total = 0.0
    for ei in range(3):
        eid = SimplexId(1, ei)
        for vid in c.faces(eid, 0):
            total += equilateral.irreducible_cell_volume([vid, eid, t])
    assert total == pytest.approx(SQRT3 / 4, abs=1e-14)


def test_irreducible_cell_right_triangle_zero_leg():
    m = triangle(1.0, 1.0, 2.0)
    hyp = m.complex.id_of((1, 2))
    v = SimplexId(0, 1)
    assert m.irreducible_cell_volume([v, hyp, SimplexId(2, 0)]) == 0.0


def test_irreducible_cells_obtuse_signed_partition():
    m = triangle(1.0, 1.0, 3.8)
    c = m.complex
    t = SimplexId(2, 0)
    flags = []
    for ei in range(3):
        eid = SimplexId(1, ei)
        for vid in c.faces(eid, 0):
            flags.append(m.irreducible_cell_volume([vid, eid, t]))
    assert min(flags) < 0
    assert sum(flags) == pytest.approx(m.simplex_volume(t), rel=1e-13)


def test_hybrid_volume_lone_triangle(equilateral):
    t = SimplexId(2, 0)
    vals = [equilateral.hybrid_volume(SimplexId(1, i)) for i in range(3)]
    assert vals == pytest.approx([1 / (4 * SQRT3)] * 3, abs=1e-15)
    assert sum(vals) == pytest.approx(SQRT3 / 4, abs=1e-14)
    assert equilateral.hybrid_volume(t) == pytest.approx(SQRT3 / 4, abs=1e-15)


def test_hybrid_volume_two_paths_agree(ico, cell5, perturbed_grid):
    for m in (ico, cell5, perturbed_grid):
        d = m.dim
        for k in range(d + 1):
            for i in range(m.complex.n_simplices(k)):
                s = SimplexId(k, i)
                a = m.hybrid_volume(s)
                b = m.hybrid_volume_from_flags(s)
                assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_volume_partition_every_k(ico, cell5, grid3):
    for m in (ico, cell5, grid3):
        d = m.dim
        total = m.volumes[d].sum()
        for k in range(d + 1):
            s = sum(
                m.hybrid_volume(SimplexId(k, i))
                for i in range(m.complex.n_simplices(k))
            )
            assert s == pytest.approx(total, rel=1e-12)


def test_shared_hybrid_lone_triangle(equilateral):
    t = SimplexId(2, 0)
    for i in range(3):
        e = SimplexId(1, i)
        assert equilateral.shared_hybrid_volume(e, t) == pytest.approx(
            equilateral.hybrid_volume(e), abs=1e-15
        )
    total = sum(
        equilateral.shared_hybrid_volume(SimplexId(1, i), t) for i in range(3)
    )
    assert total == pytest.approx(equilateral.simplex_volume(t), abs=1e-14)


def test_shared_hybrid_grid_vertex_edge_shoelace(grid2):
    # oracle: the shared cell of (v, edge) is the union of the coordinate
    # triangles [v, midpoint, triangle circumcenter]; shoelace signed area
    c = grid2.complex
    pts = grid2.coordinates
    e = next(
        SimplexId(1, i)
        for i in range(c.n_simplices(1))
        if not c.is_boundary[1][i]
    )
    u, v = c.simplices[1][e.index]
    mid = (pts[u] + pts[v]) / 2
    for vid in (u, v):
        expected = 0.0
        for t in c.cofaces(e, 2):
            center, _ = oracles.circumcenter(pts[list(c.simplex(t))])
            expected += oracles.shoelace([pts[vid], mid, center])
        got = grid2.shared_hybrid_volume(SimplexId(0, vid), e)
        assert got == pytest.approx(expected, rel=1e-12)


def test_shared_hybrid_requires_nesting(equilateral):
    with pytest.raises(NotIncident):
        equilateral.shared_hybrid_volume(
            equilateral.complex.id_of((0,)), equilateral.complex.id_of((1, 2))
        )


def test_restricted_hinge_area_d3_is_edge_length(cell5):
    c = cell5.complex
    for h in range(c.n_simplices(1)):
        hid = SimplexId(1, h)
        assert cell5.restricted_hinge_area(hid, hid) == pytest.approx(1.0, abs=1e-14)


def test_restricted_hinge_area_d4_partition(simplex5_boundary):
    m = simplex5_boundary
    c = m.complex
    hid = SimplexId(2, 0)
    parts = [m.restricted_hinge_area(hid, e) for e in c.faces(hid, 1)]
    assert parts == pytest.approx([1 / (4 * SQRT3)] * 3, abs=1e-14)
    assert sum(parts) == pytest.approx(m.simplex_volume(hid), abs=1e-14)


def test_restricted_hinge_area_rejected_in_2d(equilateral):
    with pytest.raises(ValueError):
        equilateral.restricted_hinge_area(SimplexId(0, 0), SimplexId(1, 0))


def test_moment_arm_edge_with_own_dual(equilateral, cell5):
    e = SimplexId(1, 0)
    assert equilateral.moment_arm(e, e) == pytest.approx(1.0, abs=1e-14)
    assert cell5.moment_arm(e, e) == pytest.approx(1.0, abs=1e-14)


def test_moment_arm_edge_to_face_dual_is_center_distance(cell5):
    # |m| between an edge and the dual edge of an incident unit triangle
    # equals the circumcenter separation sqrt(1/3 - 1/4)
    c = cell5.complex
    e = SimplexId(1, 0)
    t = c.cofaces(e, 2)[0]
    assert cell5.moment_arm(e, t) == pytest.approx(1 / (2 * SQRT3), rel=1e-13)


def test_dihedral_angles_closed_forms(equilateral, cell5):
    assert equilateral.dihedral_angle(
        SimplexId(0, 0), SimplexId(2, 0)
    ) == pytest.approx(math.pi / 3, abs=1e-14)
    e = SimplexId(1, 0)
    t = cell5.complex.cofaces(e, 3)[0]
    assert cell5.dihedral_angle(e, t) == pytest.approx(math.acos(1 / 3), abs=1e-14)


def test_dihedral_matches_normal_oracle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        m = oracles.random_delaunay(3, 24, 1)
    c, pts = m.complex, m.coordinates
    checked = 0
    for h in range(c.n_simplices(1)):
        hid = SimplexId(1, h)
        for t in c.cofaces(hid, 3)[:2]:
            got = m.dihedral_angle(hid, t)
            want = oracles.dihedral_from_normals(
                pts, c.simplex(hid), c.simplex(t)
            )
            assert got == pytest.approx(want, abs=1e-10)
            checked += 1
        if checked > 60:
            break
    assert checked > 60


def test_well_centered_fraction(ico, perturbed_grid):
    assert ico.well_centered_fraction() == 1.0
    assert perturbed_grid.well_centered_fraction() < 1.0


def test_non_well_centered_warning(grid2):
    with pytest.warns(NonWellCenteredWarning) as record:
        MetricComplex(grid2.complex, grid2.edge_lengths_sq)
    # the warning names the line that built the MetricComplex
    assert record[0].filename == __file__


def test_non_well_centered_warning_names_the_caller(tmp_path, grid2):
    # the warning skips every frame inside the package, so it names this
    # file also when the MetricComplex is built by a reader or generator
    path = tmp_path / "grid2.json"
    write_mesh(path, grid2)
    builds = {
        "MetricComplex": lambda: MetricComplex(grid2.complex, grid2.edge_lengths_sq),
        "read_mesh": lambda: read_mesh(path),
        "perturb_lengths": lambda: perturb_lengths(grid2, 0.0, seed=0),
        "gen_flat_grid": lambda: gen_flat_grid(2, 3),
    }
    for name, build in builds.items():
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always", NonWellCenteredWarning)
            build()
        assert [w.filename for w in record] == [__file__], name


def test_scaling_of_measures(ico):
    # squared lengths times 3: a power of two would be divided out exactly
    m2 = MetricComplex(ico.complex, 3.0 * ico.edge_lengths_sq)
    s = math.sqrt(3.0)
    for k in range(3):
        assert np.allclose(m2.volumes[k], s**k * ico.volumes[k], rtol=1e-13)
        assert np.allclose(
            m2.dual_volumes[k], s ** (2 - k) * ico.dual_volumes[k], rtol=1e-13
        )


# -- the component-plane kernel against the (n, k, k) one ---------------------
#
# ``oracles.simplex_gram_stacked`` and ``oracles.dihedral_angles_stacked``
# are the kernel and angle formula the plane layout replaced.  Sums of two
# or fewer terms are the same operations in the same order, so k <= 3
# agrees bit for bit; from k = 4 on, sums of three or more terms may round
# differently, within a few units of roundoff times the cell's condition.

EPS = np.finfo(np.float64).eps


def same_bits(a, b) -> bool:
    """Equal arrays down to the sign of zero; nan matches nan."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a) if a.dtype.kind == "f" else np.zeros(a.shape, bool)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) & ~nan, np.signbit(b) & ~nan))


def random_simplexes(k: int, n: int, seed: int, noise: float) -> np.ndarray:
    """Squared lengths (n, C(k+1, 2)) of the unit right-corner k-simplex
    with every vertex moved by Gaussian noise."""
    rng = np.random.default_rng([k, seed])
    X = np.vstack([np.zeros(k), np.eye(k)]) + noise * rng.standard_normal((n, k + 1, k))
    i, j = np.array(list(itertools.combinations(range(k + 1), 2))).T
    return ((X[:, i] - X[:, j]) ** 2).sum(axis=-1)


def both_kernels(pair_l2: np.ndarray, k: int):
    """The plane kernel's result and the stacked kernel's on (n, C(k+1, 2))
    squared lengths, fields named as in ``SimplexGram``, all stacked."""
    g = geometry.simplex_gram(pair_l2.T, k)
    new = g._replace(L=np.moveaxis(g.L, 2, 0), p=g.p.T)
    return new, geometry.SimplexGram(*oracles.simplex_gram_stacked(pair_l2, k))


FIELDS = ("p", "degenerate", "volume", "barycentric", "circumradius_sq")


@pytest.fixture(scope="module")
def kernel_meshes(ico, icospheres, tet_boundary, cell5, simplex5_boundary, grid2, grid3,
                  perturbed_grid, perturbed_grid4):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        delaunay = {"delaunay 2d": oracles.random_delaunay(2, 40, 0),
                    "delaunay 3d": oracles.random_delaunay(3, 24, 1)}
    return {"icosahedron": ico, "icosphere 3": icospheres[3], "tet boundary": tet_boundary,
            "5-cell": cell5, "5-simplex boundary": simplex5_boundary, "grid2": grid2,
            "grid3": grid3, "perturbed grid3": perturbed_grid, "perturbed grid4": perturbed_grid4,
            **delaunay}


def test_plane_kernel_bit_identical_up_to_k3(kernel_meshes):
    cases = [(f"{name} k={k}", m.edge_lengths_sq[m.complex.edge_ids(k)], k)
             for name, m in kernel_meshes.items() for k in range(1, min(m.dim, 3) + 1)]
    for k in (1, 2, 3):
        for noise in (0.05, 0.3, 1.0):  # from well shaped to degenerate
            cases.append((f"random k={k} noise {noise}", random_simplexes(k, 2000, 0, noise), k))
        # independent lengths, many breaking the triangle inequality
        lengths = np.random.default_rng(k).uniform(0.1, 2, (2000, k * (k + 1) // 2))
        cases.append((f"uniform k={k}", lengths, k))
    for label, pair_l2, k in cases:
        new, old = both_kernels(pair_l2, k)
        for field in FIELDS:
            assert same_bits(getattr(new, field), getattr(old, field)), f"{label}: {field}"


def test_plane_angles_bit_identical_up_to_d3(kernel_meshes):
    for name, m in kernel_meshes.items():
        if m.dim > 3:
            continue
        _, old = both_kernels(m.edge_lengths_sq[m.complex.edge_ids(m.dim)], m.dim)
        assert same_bits(m.dihedral_angles, oracles.dihedral_angles_stacked(old.L, old.p)), name


def test_plane_kernel_within_roundoff_for_k4_k5(perturbed_grid4, simplex5_boundary):
    # tolerance 4 EPS kappa, kappa = (largest squared length) / (smallest
    # pivot) in units of s: the cancellation a pivot's sum can suffer
    cases = [("perturbed grid4", perturbed_grid4, 4), ("5-simplex boundary", simplex5_boundary, 4)]
    cases = [(name, m.edge_lengths_sq[m.complex.edge_ids(k)], k, m) for name, m, k in cases]
    cases += [(f"random k={k}", random_simplexes(k, 2000, 1, 0.05), k, None) for k in (4, 5)]
    for label, pair_l2, k, m in cases:
        new, old = both_kernels(pair_l2, k)
        assert not old.degenerate.any()
        kappa = pair_l2.max(axis=1) / np.ldexp(old.p.min(axis=1), old.exp)
        tol = 4 * EPS * kappa
        rel = {
            "p": np.abs(new.p - old.p).max(axis=1) / np.abs(old.p).max(axis=1),
            "volume": np.abs(new.volume - old.volume) / old.volume,
            "circumradius_sq": np.abs(new.circumradius_sq - old.circumradius_sq) / old.circumradius_sq,
            "barycentric": np.abs(new.barycentric - old.barycentric).max(axis=1)
            / np.maximum(1.0, np.abs(old.barycentric).max(axis=1)),
        }
        if m is not None:
            want = oracles.dihedral_angles_stacked(old.L, old.p)
            rel["dihedral"] = np.abs(m.dihedral_angles - want).max(axis=1) / want.max(axis=1)
        for field, err in rel.items():
            assert (err <= tol).all(), f"{label}: {field} off by {np.max(err / tol):.2f} x tolerance"
        assert same_bits(new.degenerate, old.degenerate), label


def degenerate_cases(k: int) -> dict[str, np.ndarray]:
    """Squared lengths (n, C(k+1, 2)) of k-simplexes on both sides of the
    degeneracy test: vertices on a line, and the last vertex at heights
    1e-12..1 above the facet of the others (a needle where it is small)."""
    rng = np.random.default_rng([7, k])
    i, j = np.array(list(itertools.combinations(range(k + 1), 2))).T
    line = rng.uniform(-1, 1, (500, k + 1, 1))
    X = np.vstack([np.zeros(k), np.eye(k)]) + 0.1 * rng.standard_normal((500, k + 1, k))
    X[:, -1, -1] = np.logspace(-12, 0, 500) * rng.choice([-1, 1], 500)
    X[:, :-1, -1] = 0.0
    return {"collinear": ((line[:, i] - line[:, j]) ** 2).sum(axis=-1),
            "needle": ((X[:, i] - X[:, j]) ** 2).sum(axis=-1)}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_plane_kernel_degenerate_flags_match():
    for k in (2, 3, 4, 5):
        for name, pair_l2 in degenerate_cases(k).items():
            for scale in (1.0, 1e120, 1e-120):
                new, old = both_kernels(pair_l2 * scale, k)
                assert same_bits(new.degenerate, old.degenerate), f"{name} k={k} scale {scale}"
                if name == "needle":  # both sides of the threshold are exercised
                    assert 0 < new.degenerate.sum() < len(pair_l2), f"k={k} scale {scale}"
                else:
                    assert new.degenerate.all()


def zero_and_nan_patterns(m) -> dict:
    """Exact-zero barycentrics, zero and negative dual-volume counts and the
    nan cells of every report column of every target."""
    out = {f"zero bary k={k}": m.barycentric[k] == 0 for k in range(1, m.dim + 1)}
    for k, dv in enumerate(m.dual_volumes):
        out[f"dual k={k}"] = (int((dv == 0).sum()), int((dv < 0).sum()))
    targets = ["hinges", "vertices", "dual-vertices"] + (["edges", "dual-edges"] if m.dim > 2 else [])
    for at in targets:
        for name, col in target_columns(m, at)[1].items():
            for twin, values in (("", col.values), (" normalized", col.normalized)):
                if values is not None:
                    out[f"nan {at} {name}{twin}"] = np.isnan(np.asarray(values, dtype=float))
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_flat_grid_zero_and_nan_patterns_match_stacked(d, monkeypatch):
    # right-angled Freudenthal cells: circumcenters on facets give exact
    # zero barycentrics and zero dual volumes, and these give nan ratios
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        m = gen_flat_grid(d, 2)
        new = zero_and_nan_patterns(m)

        def gram(pair_l2, k):
            L, p, *rest = oracles.simplex_gram_stacked(np.ascontiguousarray(pair_l2.T), k)
            return geometry.SimplexGram(np.moveaxis(L, 0, 2), p.T, *rest)

        def angles(mc):
            g = mc._gram[mc.dim]
            return oracles.dihedral_angles_stacked(np.moveaxis(g.L, 2, 0), g.p.T)

        monkeypatch.setattr(geometry, "simplex_gram", gram)
        monkeypatch.setattr(MetricComplex, "dihedral_angles", property(angles))
        old = zero_and_nan_patterns(MetricComplex(m.complex, m.edge_lengths_sq))
    assert new.keys() == old.keys()
    for key in new:
        assert np.array_equal(new[key], old[key]), key
    assert any(new[f"zero bary k={k}"].any() for k in range(2, d + 1))
    assert any(v.any() for key, v in new.items() if key.startswith("nan "))
