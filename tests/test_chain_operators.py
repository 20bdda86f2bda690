"""The matrix-free elevation chain operators, the per-pair hybrid volumes
and the batched curvature columns built on them, against the per-element
chain-sum loops in ``oracles``."""

import itertools
import warnings

import numpy as np
import pytest

import oracles
from pfcurv import (
    BoundaryElement,
    MetricComplex,
    NonWellCenteredWarning,
    SimplexId,
    ZeroMeasureElement,
    curvature_report,
    gen_boundary_of_simplex,
    gen_flat_grid,
    perturb_lengths,
    ricci_dual_edge,
    ricci_simplicial_edge,
    scalar_vertex,
)
from pfcurv.dec import DUAL, SIMPLICIAL, Cochain, transfer_density

MESHES = {
    "5-cell": lambda: gen_boundary_of_simplex(4),
    "5-simplex boundary": lambda: gen_boundary_of_simplex(5),
    "perturbed grid3": lambda: perturb_lengths(gen_flat_grid(3, 3), 0.05, seed=0),
    "flat grid2": lambda: gen_flat_grid(2, 3),
    "flat grid3": lambda: gen_flat_grid(3, 3),
    "flat grid4": lambda: gen_flat_grid(4, 2),
    "delaunay 3d": lambda: oracles.random_delaunay(3, 24, 1),
}

RTOL = 1e-12


@pytest.fixture(scope="module", params=list(MESHES))
def mesh(request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return MESHES[request.param]()


def _fresh(m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return MetricComplex(m.complex, m.edge_lengths_sq)


def _faces_of(c, k, kp, j):
    """Indices of the k-faces of the kp-simplex j."""
    return [c.index[k][f] for f in itertools.combinations(c.simplex_tuples[kp][j], k + 1)]


def test_chain_operator_entries_match_recursion(mesh):
    c = mesh.complex
    d = c.dim
    ref = oracles.ChainSums(mesh)
    rng = np.random.default_rng(3)
    for k, kp in itertools.combinations_with_replacement(range(d + 1), 2):
        C = np.zeros((c.n_simplices(k), c.n_simplices(kp)))
        for j in range(c.n_simplices(kp)):
            for i in _faces_of(c, k, kp, j):
                C[i, j] = ref.chain(k, i, kp, j)
        x = rng.standard_normal(c.n_simplices(kp))
        y = rng.standard_normal(c.n_simplices(k))
        Cx, Cty = mesh.chain_apply(k, kp, x), mesh.chain_apply_t(k, kp, y)
        # sums that cancel to roundoff are compared on the scale of the
        # magnitudes they sum
        np.testing.assert_allclose(Cx, C @ x, rtol=RTOL, atol=RTOL * (np.abs(C) @ np.abs(x)).max())
        np.testing.assert_allclose(Cty, C.T @ y, rtol=RTOL, atol=RTOL * (np.abs(C).T @ np.abs(y)).max())
        assert y @ Cx == pytest.approx(Cty @ x, rel=RTOL, abs=RTOL * np.abs(y) @ np.abs(C) @ np.abs(x))


def test_shared_and_restricted_volumes_match_recursion(mesh):
    c = mesh.complex
    d = c.dim
    ref = oracles.ChainSums(mesh)
    for k, kp in itertools.combinations_with_replacement(range(d + 1), 2):
        pairs = [
            (SimplexId(k, i), SimplexId(kp, j))
            for j in range(c.n_simplices(kp))
            for i in _faces_of(c, k, kp, j)
        ]
        V = np.array([ref.shared(s, big) for s, big in pairs])
        A = np.array([ref.restricted(big, s) for s, big in pairs])
        atol_v, atol_a = RTOL * np.abs(V).max(), RTOL * np.abs(A).max()
        for (s, big), v, a in zip(pairs, V, A):
            assert mesh.shared_hybrid_volume(s, big) == pytest.approx(v, rel=RTOL, abs=atol_v)
            assert mesh.restricted_measure(big, s) == pytest.approx(a, rel=RTOL, abs=atol_a)


def _oracle_column(fn, n):
    out = np.full(n, np.nan)
    for i in range(n):
        try:
            out[i] = fn(i)
        except (BoundaryElement, ZeroMeasureElement):
            pass
    return out


def _targets(m):
    """(report column, per-element function, oracle, element count)."""
    ref = oracles.ChainSums(m)
    c = m.complex
    d = m.dim
    out = [
        ("vertex_scalar", lambda i: scalar_vertex(m, i), ref.scalar_vertex, c.n_simplices(0)),
        (
            "dual_vertex_scalar",
            lambda i: scalar_vertex(m, i, lattice="dual"),
            ref.scalar_dual_vertex,
            c.n_simplices(d),
        ),
    ]
    if d >= 3:
        out += [
            ("dual_edge_ricci", lambda i: ricci_dual_edge(m, i), ref.ricci_dual_edge, c.n_simplices(d - 1)),
            ("edge_ricci", lambda i: ricci_simplicial_edge(m, i), ref.ricci_simplicial_edge, c.n_simplices(1)),
        ]
    return out


def _assert_column(got, want):
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    # roundoff-level curvature (flat meshes) is compared on its column's scale
    scale = np.abs(want[~nan]).max() if (~nan).any() else 0.0
    np.testing.assert_allclose(got[~nan], want[~nan], rtol=RTOL, atol=RTOL * scale)


def test_report_columns_match_per_element_loops(mesh):
    m = _fresh(mesh)
    rep = curvature_report(m)
    for name, _, oracle, n in _targets(m):
        want = _oracle_column(oracle, n)
        _assert_column(getattr(rep, name), want)
    if m.dim >= 3:
        d = m.dim
        np.testing.assert_array_equal(rep.dual_edge_ricci_normalized, rep.dual_edge_ricci / d)
        np.testing.assert_array_equal(rep.edge_ricci_normalized, rep.edge_ricci / d)


def test_per_element_functions_raise_like_the_oracle(mesh):
    m = _fresh(mesh)
    rep = curvature_report(m)
    for name, fn, oracle, n in _targets(m):
        for i in range(n):
            try:
                oracle(i)
            except (BoundaryElement, ZeroMeasureElement) as exc:
                with pytest.raises(type(exc)):
                    fn(i)
                continue
            assert fn(i) == getattr(rep, name)[i], (name, i)


def test_per_element_conventions(mesh):
    if mesh.dim < 3:
        pytest.skip("edge Ricci needs dimension >= 3")
    m = mesh
    d = m.dim
    for fn, n in ((ricci_dual_edge, m.complex.n_simplices(d - 1)), (ricci_simplicial_edge, m.complex.n_simplices(1))):
        for i in range(n):
            try:
                base = fn(m, i)
            except (BoundaryElement, ZeroMeasureElement):
                continue
            assert fn(m, i, normalized=True) == base / d
            assert fn(m, i, both_orientations=True) == 2.0 * base
            assert fn(m, i, normalized=True, both_orientations=True) == 2.0 * base / d


def test_transfer_density_matches_per_element_loop(mesh):
    d = mesh.dim
    if d < 3:
        pytest.skip("degree-1 transfer is tested on d >= 3 meshes")
    ref = oracles.ChainSums(mesh)
    rng = np.random.default_rng(7)
    c = mesh.complex
    for src, n, to_edges in ((DUAL, c.n_simplices(d - 1), True), (SIMPLICIAL, c.n_simplices(1), False)):
        w = Cochain(mesh, src, 1, rng.standard_normal(n))
        target = SIMPLICIAL if to_edges else DUAL
        try:
            want = ref.transfer_density(w.densities(), to_edges)
        except ZeroMeasureElement:
            with pytest.raises(ZeroMeasureElement):
                transfer_density(w, target)
            continue
        got = transfer_density(w, target).values
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(want).max())


def test_columns_and_operators_are_cached_read_only(mesh):
    m = _fresh(mesh)
    assert m._cache == {}  # construction builds no column
    a = curvature_report(m)
    b = curvature_report(m)
    assert a.vertex_scalar is b.vertex_scalar
    assert not a.vertex_scalar.flags.writeable
    # hybrid volumes are built on first use, and every cache is read-only
    assert "hybrid_volumes" not in vars(m)
    assert m.hybrid_volumes is m.hybrid_volumes
    c = m.complex
    for arrays in (m.volumes, m.dual_volumes, m.barycentric, m.circumradius_sq, m._elev[1:],
                   m._up, m._down, m.hybrid_volumes, c.simplices, c.facets[1:], c.is_boundary):
        assert not any(a.flags.writeable for a in arrays)


def test_chain_operator_rejects_bad_dimensions(cell5):
    for k, kp in ((2, 1), (-1, 2), (0, 4)):
        with pytest.raises(ValueError):
            cell5.chain_apply(k, kp, np.ones(1))
        with pytest.raises(ValueError):
            cell5.chain_apply_t(k, kp, np.ones(1))
