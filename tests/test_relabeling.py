"""Relabeling invariance of the complex build, as a hypothesis property.

Permuting the vertex ids, the order of the cells and the order of the
vertices inside each cell must permute every simplex, facet table entry,
boundary flag and hinge deficit, and change nothing else.  The base
meshes are small perturbed Freudenthal grids in d = 2, 3, 4.  The search
is seeded (``@seed(20261018)``) and keeps no example database, so every
run draws the same relabelings.
"""

import functools
import warnings

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from pfcurv import MetricComplex, NonWellCenteredWarning, SimplexId, build_complex, deficit, perturb_lengths
from pfcurv.meshgen import gen_flat_grid

GRID_N = {2: 3, 3: 2, 4: 1}


@functools.cache
def base_mesh(dim, perturb_seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return perturb_lengths(gen_flat_grid(dim, GRID_N[dim]), 0.05, perturb_seed)


def relabel(m, rng):
    """The mesh of ``m`` with permuted vertex ids, cell order and vertex
    order in each cell; returns the new metric complex and the vertex map."""
    c = m.complex
    d = c.dim
    ids = rng.permutation(c.n_simplices(0))
    cells = ids[c.simplices[d]][rng.permutation(c.n_simplices(d))]
    cells = np.take_along_axis(cells, rng.permuted(np.tile(np.arange(d + 1), (len(cells), 1)), axis=1), axis=1)
    c2 = build_complex(d, cells.tolist())
    # lengths follow their edges
    edge_map = simplex_map(c, c2, ids, 1)
    l2 = np.empty_like(m.edge_lengths_sq)
    l2[edge_map] = m.edge_lengths_sq
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        return MetricComplex(c2, l2), ids


def simplex_map(c, c2, ids, k):
    """sigma with c2 simplex sigma[i] = the image of c simplex i."""
    rows = np.sort(ids[c.simplices[k]], axis=1)
    return np.array([c2.index[k][tuple(r)] for r in rows.tolist()])


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(
    dim=st.sampled_from([2, 3, 4]),
    perturb_seed=st.integers(0, 2),
    relabel_seed=st.integers(0, 2**32 - 1),
)
def test_relabeling_permutes_everything(dim, perturb_seed, relabel_seed):
    m = base_mesh(dim, perturb_seed)
    m2, ids = relabel(m, np.random.default_rng(relabel_seed))
    c, c2 = m.complex, m2.complex
    sigma = [simplex_map(c, c2, ids, k) for k in range(dim + 1)]
    for k in range(dim + 1):
        # a bijection between the skeletons
        assert np.array_equal(np.sort(sigma[k]), np.arange(c.n_simplices(k)))
        assert np.array_equal(c2.is_boundary[k][sigma[k]], c.is_boundary[k])
        scale = max(float(np.abs(m.dual_volumes[k]).max()), 1e-300)
        assert np.allclose(m2.volumes[k][sigma[k]], m.volumes[k], rtol=1e-12, atol=0)
        assert np.allclose(m2.dual_volumes[k][sigma[k]], m.dual_volumes[k], rtol=0, atol=1e-12 * scale)
    for k in range(1, dim + 1):
        # the facet opposite vertex v of s maps to the facet opposite ids[v]
        # of the image of s
        old = [
            {(int(ids[v]), int(sigma[k - 1][f])) for v, f in zip(s, fs)}
            for s, fs in zip(c.simplices[k].tolist(), c.facets[k].tolist())
        ]
        new = [
            set(zip(s, fs))
            for s, fs in zip(c2.simplices[k][sigma[k]].tolist(), c2.facets[k][sigma[k]].tolist())
        ]
        assert new == old
    hinges = [SimplexId(dim - 2, i) for i in range(c.n_simplices(dim - 2))]
    for hg in hinges:
        moved = SimplexId(dim - 2, int(sigma[dim - 2][hg.index]))
        assert abs(deficit(m2, moved, allow_boundary=True) - deficit(m, hg, allow_boundary=True)) <= 1e-12
    h = sigma[dim - 2]
    stars = [len(cells) for cells, _ in oracles.hinge_stars(c)]
    stars2 = oracles.hinge_stars(c2)
    assert [len(stars2[i][0]) for i in h] == stars
    assert c2.euler_characteristic() == c.euler_characteristic()
    assert c2.orientable == c.orientable
