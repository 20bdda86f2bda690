"""Deterministic mesh generators for flat, curved and perturbed test meshes.

Every generator returns a :class:`MetricComplex`; generators that place
vertices in coordinates also attach them as ``m.coordinates`` so callers
can serialize or cross-check against coordinate computations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.random import Generator, Philox

from .complex import build_complex
from .errors import DegenerateSimplex, UnsupportedRequest
from .geometry import MetricComplex, simplex_gram

MAX_RESAMPLE_ATTEMPTS = 50


def _from_coordinates(dim: int, points: np.ndarray, cells) -> MetricComplex:
    c = build_complex(dim, cells)
    edges = c.simplices[1]
    diff = points[edges[:, 0]] - points[edges[:, 1]]
    m = MetricComplex(c, (diff * diff).sum(axis=1))
    m.coordinates = points
    return m


def gen_flat_grid(dim: int, n: int) -> MetricComplex:
    """Flat unit-spacing grid triangulation of [0, n]^dim, dim >= 2.

    Each unit cube is split into dim! simplexes along the permutation
    (Freudenthal) pattern: two triangles per square, six tetrahedra per
    cube, 24 pentatopes per 4-cube.  Neighboring cells match face to face
    and every interior hinge is flat.
    """
    if dim < 2:
        raise UnsupportedRequest("flat grids need dimension >= 2")
    if n < 1:
        raise UnsupportedRequest("need at least one cell per axis")
    corners = np.indices((n,) * dim).reshape(dim, -1).T
    perms = np.array(list(itertools.permutations(range(dim))))
    # row p lists the dim + 1 offsets of the Kuhn walk that steps along perms[p]
    walk = np.cumsum(np.eye(dim, dtype=int)[perms], axis=1)
    walk = np.concatenate([np.zeros((len(perms), 1, dim), dtype=int), walk], axis=1)
    steps = corners[:, None, None, :] + walk
    cells = np.ravel_multi_index(np.moveaxis(steps, -1, 0), (n + 1,) * dim)
    grid = np.indices((n + 1,) * dim).reshape(dim, -1).T
    return _from_coordinates(dim, grid.astype(np.float64), cells.reshape(-1, dim + 1))


def gen_boundary_of_simplex(ambient_dim: int) -> MetricComplex:
    """Boundary of the regular unit-edge simplex on ``ambient_dim + 1``
    vertices: a closed (ambient_dim - 1)-sphere, e.g. 4 -> the 5-cell
    boundary."""
    if ambient_dim < 3:
        raise UnsupportedRequest("need ambient dimension >= 3 for a boundary of dimension >= 2")
    verts = range(ambient_dim + 1)
    cells = list(itertools.combinations(verts, ambient_dim))
    c = build_complex(ambient_dim - 1, cells)
    return MetricComplex(c, np.ones(c.n_simplices(1)))


def _icosahedron_points() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for a, b in itertools.product((-1.0, 1.0), (-phi, phi)):
        pts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return np.array(pts) / 2.0  # unit edge length


def gen_icosphere(level: int, radius: float = 1.0) -> MetricComplex:
    """Geodesic sphere: icosahedron subdivided ``level`` times, with all
    vertices projected to the sphere of the given radius.

    Edge lengths come from the projected coordinates.  Level 0 is the
    icosahedron itself; each level quadruples the face count.  Levels up
    to 6 are supported.
    """
    if not 0 <= level <= 6:
        raise UnsupportedRequest("subdivision level must be in 0..6")
    if not 0 < radius < math.inf:
        raise UnsupportedRequest("radius must be positive and finite")
    pts = _icosahedron_points()
    # faces: triangles whose three pairwise distances all equal the edge
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    faces = np.array(list(itertools.combinations(range(len(pts)), 3)))
    faces = faces[(d2[faces, np.roll(faces, -1, axis=1)] < 1.0 + 1e-9).all(axis=1)]

    def project(p):
        # a matrix product keeps the bits of np.linalg.norm(row); norm(axis=1) does not
        return radius * p / np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]

    pts = project(pts)
    for _ in range(level):
        # the edges ij, jk, ki of every face, numbered by first encounter
        ends = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1), axis=-1)
        _, first, inverse = np.unique(
            ends[..., 0] * len(pts) + ends[..., 1], return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.argsort(order)
        a, b = ends.reshape(-1, 2)[first[order]].T
        (i, j, k), (ij, jk, ki) = faces.T, (len(pts) + rank[inverse.reshape(-1, 3)]).T
        pts = np.concatenate([pts, project((pts[a] + pts[b]) / 2.0)])
        faces = np.stack([i, ij, ki, j, jk, ij, k, ki, jk, ij, jk, ki], axis=1).reshape(-1, 3)
    return _from_coordinates(2, pts, faces)


def perturb_lengths(m: MetricComplex, amplitude: float, seed: int) -> MetricComplex:
    """New mesh with each squared length scaled by (1 + u), u drawn
    uniformly from [-amplitude, amplitude].

    Draws come from the counter-based Philox generator keyed by ``seed``,
    so results are reproducible bit for bit.  Edges of any simplex that
    becomes degenerate are redrawn (one full deterministic round per
    retry); :class:`DegenerateSimplex` propagates after
    ``MAX_RESAMPLE_ATTEMPTS`` rounds.
    """
    if not (0 <= amplitude < math.inf and 0 <= seed < 2**128):
        raise UnsupportedRequest("amplitude must be in [0, inf) and seed in [0, 2**128)")
    base = m.edge_lengths_sq
    c = m.complex
    n = base.shape[0]
    rng = Generator(Philox(key=seed))
    l2 = base * (1.0 + rng.uniform(-amplitude, amplitude, size=n))
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        bad = _degenerate_edges(m, l2)
        if not bad.any():
            return MetricComplex(c, l2)
        fresh = base * (1.0 + rng.uniform(-amplitude, amplitude, size=n))
        l2 = np.where(bad, fresh, l2)
    raise DegenerateSimplex(
        f"perturbation amplitude {amplitude} left degenerate simplexes after "
        f"{MAX_RESAMPLE_ATTEMPTS} resampling rounds"
    )


def _degenerate_edges(m: MetricComplex, l2: np.ndarray) -> np.ndarray:
    """Mask of edges participating in some degenerate simplex under the
    candidate squared lengths."""
    c = m.complex
    bad = l2 <= 0
    for k in range(2, c.dim + 1):
        eids = c.edge_ids(k)
        bad[eids[simplex_gram(l2[eids.T], k).degenerate]] = True
    return bad
