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
from .errors import DegenerateSimplex
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
        raise ValueError("flat grids need dimension >= 2")
    if n < 1:
        raise ValueError("need at least one cell per axis")
    axes = [np.arange(n + 1)] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    vid = {tuple(p): i for i, p in enumerate(grid)}
    cells = []
    for corner in itertools.product(range(n), repeat=dim):
        base = np.array(corner)
        for perm in itertools.permutations(range(dim)):
            walk = [base]
            for ax in perm:
                step = walk[-1].copy()
                step[ax] += 1
                walk.append(step)
            cells.append([vid[tuple(p)] for p in walk])
    return _from_coordinates(dim, grid.astype(np.float64), cells)


def gen_boundary_of_simplex(ambient_dim: int) -> MetricComplex:
    """Boundary of the regular unit-edge simplex on ``ambient_dim + 1``
    vertices: a closed (ambient_dim - 1)-sphere, e.g. 4 -> the 5-cell
    boundary."""
    if ambient_dim < 3:
        raise ValueError("need ambient dimension >= 3 for a boundary of dimension >= 2")
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
        raise ValueError("subdivision level must be in 0..6")
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = _icosahedron_points()
    # faces: triangles whose three pairwise distances all equal the edge
    edge2 = 1.0 + 1e-9
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    faces = [
        (i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if d2[i, j] < edge2 and d2[i, k] < edge2 and d2[j, k] < edge2
    ]
    def project(p):
        p = np.asarray(p, dtype=np.float64)
        return tuple(radius * p / np.linalg.norm(p))

    pts = [project(p) for p in pts]
    for _ in range(level):
        mid: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in mid:
                pts.append(project((np.array(pts[a]) + np.array(pts[b])) / 2.0))
                mid[key] = len(pts) - 1
            return mid[key]

        nxt = []
        for i, j, k in faces:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            nxt += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        faces = nxt
    return _from_coordinates(2, np.array(pts), faces)


def perturb_lengths(m: MetricComplex, amplitude: float, seed: int) -> MetricComplex:
    """New mesh with each squared length scaled by (1 + u), u drawn
    uniformly from [-amplitude, amplitude].

    Draws come from the counter-based Philox generator keyed by ``seed``,
    so results are reproducible bit for bit.  Edges of any simplex that
    becomes degenerate are redrawn (one full deterministic round per
    retry); :class:`DegenerateSimplex` propagates after
    ``MAX_RESAMPLE_ATTEMPTS`` rounds.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
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
        bad[eids[simplex_gram(l2[eids], k).degenerate]] = True
    return bad
