import numpy as np
import pytest

import oracles
from pfcurv import (
    DUAL,
    SIMPLICIAL,
    BrokenCycle,
    Cochain,
    DegenerateSimplex,
    DuplicateCell,
    InconsistentOrientation,
    MetricComplex,
    NonManifold,
    SimplexId,
    build_complex,
    exterior_derivative,
)

# two triangles sharing an edge: the smallest mesh with a boundary
TWO_TRIANGLES = [(0, 1, 2), (1, 2, 3)]


def test_skeleton_counts():
    c = build_complex(2, TWO_TRIANGLES)
    assert c.n_simplices(0) == 4
    assert c.n_simplices(1) == 5
    assert c.n_simplices(2) == 2
    assert c.euler_characteristic() == 1


def test_simplex_tuples_sorted_and_indexed():
    c = build_complex(2, [(2, 1, 0), (3, 2, 1)])
    assert c.simplex_tuples[2] == [(0, 1, 2), (1, 2, 3)]
    for k in range(3):
        for i, t in enumerate(c.simplex_tuples[k]):
            assert c.id_of(t) == SimplexId(k, i)
            assert c.simplex(SimplexId(k, i)) == t


def test_faces_and_cofaces():
    c = build_complex(2, TWO_TRIANGLES)
    tri = c.id_of((0, 1, 2))
    edges = {c.simplex(f) for f in c.faces(tri, 1)}
    assert edges == {(0, 1), (0, 2), (1, 2)}
    shared = c.id_of((1, 2))
    tops = {c.simplex(x) for x in c.cofaces(shared, 2)}
    assert tops == {(0, 1, 2), (1, 2, 3)}
    # vertex cofaces reach every dimension
    assert {c.simplex(x) for x in c.cofaces(c.id_of((1,)), 2)} == set(TWO_TRIANGLES)


def test_facet_opposite_vertex_convention():
    c = build_complex(2, TWO_TRIANGLES)
    tri = c.index[2][(0, 1, 2)]
    verts = c.simplices[2][tri]
    for j in range(3):
        facet = c.simplex_tuples[1][c.facets[2][tri, j]]
        assert verts[j] not in facet


def test_boundary_flags():
    c = build_complex(2, TWO_TRIANGLES)
    assert c.is_boundary[1].sum() == 4  # all edges but the shared one
    assert not c.is_boundary[1][c.index[1][(1, 2)]]
    # boundary propagates down to vertices
    assert c.is_boundary[0].all()


def test_boundary_matrix_squares_to_zero(cell5):
    c = cell5.complex
    for k in range(2, c.dim + 1):
        prod = oracles.boundary_matrix(c, k - 1) @ oracles.boundary_matrix(c, k)
        assert not prod.any()


def test_boundary_matrix_entries():
    c = build_complex(2, TWO_TRIANGLES)
    B2 = oracles.boundary_matrix(c, 2)
    assert B2.shape == (5, 2)
    assert set(np.abs(B2[:, 0])) <= {0, 1}
    # each column has alternating signs across its three edges
    col = B2[:, c.index[2][(0, 1, 2)]]
    nz = col[col != 0]
    assert sorted(nz) == [-1, 1, 1]
    for k in (0, 3):
        with pytest.raises(ValueError):
            c.scatter(k, np.ones(1))
        with pytest.raises(ValueError):
            c.gather(k, np.ones(1))


@pytest.mark.parametrize("name", ["ico", "cell5", "simplex5_boundary", "grid2", "grid3"])
def test_exterior_derivative_is_boundary_transpose(name, request):
    m = request.getfixturevalue(name)
    c = m.complex
    d = c.dim
    rng = np.random.default_rng(4)
    for k in range(d):
        # simplicial k-cochains live on k-simplexes, dual ones on (d-k)-simplexes
        x = rng.integers(-9, 10, size=c.n_simplices(k))
        dx = exterior_derivative(Cochain(m, SIMPLICIAL, k, x)).values
        assert dx.dtype.kind == "i"
        assert (dx == oracles.boundary_matrix(c, k + 1).T @ x).all()
        y = rng.integers(-9, 10, size=c.n_simplices(d - k))
        dy = exterior_derivative(Cochain(m, DUAL, k, y)).values
        assert dy.dtype.kind == "i"
        assert (dy == oracles.boundary_matrix(c, d - k) @ y).all()


def test_duplicate_cell_rejected():
    with pytest.raises(DuplicateCell):
        build_complex(2, [(0, 1, 2), (2, 1, 0)])


def test_three_triangles_on_one_edge_rejected():
    with pytest.raises(NonManifold):
        build_complex(2, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_broken_vertex_star_rejected():
    # two triangle fans meeting only at vertex 0: the hinge star at 0
    # is neither a cycle nor a single chain
    cells = [(0, 1, 2), (0, 3, 4)]
    with pytest.raises(BrokenCycle):
        build_complex(2, cells)


def test_pinched_edge_rejected():
    # two closed fans of three tetrahedra around the edge (0, 1) that share
    # no triangle: every triangle has at most two cofaces, but the star of
    # the edge splits into two cycles
    cells = [
        (0, 1, 2, 3), (0, 1, 3, 4), (0, 1, 4, 2),
        (0, 1, 5, 6), (0, 1, 6, 7), (0, 1, 7, 5),
    ]
    with pytest.raises(BrokenCycle):
        build_complex(3, cells)


MOBIUS = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]


def test_mobius_strip_is_not_orientable():
    c = build_complex(2, MOBIUS)
    assert not c.orientable
    assert c.orientation is None
    with pytest.raises(InconsistentOrientation):
        build_complex(2, MOBIUS, require_orientation=True)


@pytest.mark.parametrize("name", ["ico", "cell5", "simplex5_boundary", "grid2", "grid3"])
def test_orientation_cancels_on_interior_ridges(name, request):
    c = request.getfixturevalue(name).complex
    d = c.dim
    assert c.orientable
    assert set(np.unique(c.orientation)) <= {-1, 1}
    flux = oracles.boundary_matrix(c, d) @ c.orientation
    assert not flux[~c.is_boundary[d - 1]].any()
    assert (np.abs(flux[c.is_boundary[d - 1]]) == 1).all()


@pytest.mark.parametrize("name", ["ico", "cell5", "simplex5_boundary", "grid2", "grid3"])
def test_hinge_stars_are_chains_or_cycles(name, request):
    c = request.getfixturevalue(name).complex
    d = c.dim
    stars = oracles.hinge_stars(c)
    assert len(stars) == c.n_simplices(d - 2)
    for i, (cells, is_open) in enumerate(stars):
        h = SimplexId(d - 2, i)
        hv = set(c.simplex(h))
        star = [set(c.simplex(t)) for t in cells]
        assert sorted(cells) == c.cofaces(h, d)
        assert is_open == bool(c.is_boundary[d - 2][i])
        links = list(zip(star, star[1:]))
        if not is_open:
            links.append((star[-1], star[0]))
        for a, b in links:
            shared = a & b
            assert len(shared) == d and hv <= shared
            assert not c.is_boundary[d - 1][c.id_of(shared).index]


def test_messages_name_plain_integers():
    bad = [
        (DuplicateCell, lambda: build_complex(2, np.array([(0, 1, 2), (2, 1, 0)]))),
        (NonManifold, lambda: build_complex(2, np.array([(0, 1, 2), (0, 1, 3), (0, 1, 4)]))),
        (BrokenCycle, lambda: build_complex(2, np.array([(0, 1, 2), (0, 3, 4)]))),
        (
            DegenerateSimplex,
            lambda: MetricComplex(build_complex(2, np.array([(0, 1, 2)])), [1.0, 1.0, 4.0]),
        ),
    ]
    for kind, make in bad:
        with pytest.raises(kind) as err:
            make()
        assert "np.int64" not in str(err.value) and "(0," in str(err.value)


def test_hinges_icosahedron(ico):
    c = ico.complex
    stars = oracles.hinge_stars(c)
    assert len(stars) == 12
    for i, (cells, is_open) in enumerate(stars):
        assert not is_open
        assert len(cells) == 5
        # consecutive star members share a face containing the hinge
        star = [set(c.simplex(t)) for t in cells]
        v = c.simplex(SimplexId(0, i))[0]
        for a, b in zip(star, star[1:] + star[:1]):
            assert v in a & b and len(a & b) == 2


def test_hinges_open_chain(grid2):
    c = grid2.complex
    boundary = [cells for cells, is_open in oracles.hinge_stars(c) if is_open]
    assert boundary
    for cells in boundary:
        star = [set(c.simplex(t)) for t in cells]
        # open chain: consecutive triangles share an edge, ends do not wrap
        for a, b in zip(star, star[1:]):
            assert len(a & b) == 2
        if len(star) > 1:
            assert len(star[0] & star[-1]) < 2 or len(star) == 2


def test_orientability():
    c = build_complex(2, TWO_TRIANGLES, require_orientation=True)
    # both boundaries carry +(1, 2), so the two cells take opposite signs
    assert c.orientation.tolist() == [1, -1]
    # the 5-cell boundary is an orientable closed 3-manifold
    cells = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]
    build_complex(3, cells, require_orientation=True)


def test_euler_characteristic_closed(ico, cell5):
    assert ico.complex.euler_characteristic() == 2
    assert cell5.complex.euler_characteristic() == 0


@pytest.mark.parametrize("name", ["ico", "cell5", "perturbed_grid4"])
def test_gather_sums_each_row_as_numpy_does(name, request):
    # the reference is the whole (..., n, k+1) array of terms reduced by
    # numpy; gather adds the slots in the same order without building it
    m = request.getfixturevalue(name)
    c = m.complex
    rng = np.random.default_rng(6)
    for k in range(1, c.dim + 1):
        table = c.facets[k]
        for weights in (None, m._elev[k]):
            w = (-1) ** np.arange(k + 1) if weights is None else weights
            for shape in ((c.n_simplices(k - 1),), (3, c.n_simplices(k - 1))):
                y = rng.standard_normal(shape) * np.exp(4.0 * rng.standard_normal(shape))
                got = c.gather(k, y, weights)
                assert got.flags.c_contiguous
                assert got.tobytes() == (y[..., table] * w).sum(axis=-1).tobytes()
