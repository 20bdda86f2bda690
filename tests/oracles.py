"""Reference computations.

Apart from :func:`dihedral_qr`, the per-pair length-only angle kept as
the reference for the batched dihedral table, everything here works on
an explicit vertex embedding and never touches the length-only
pipeline: volumes come from Gram determinants of edge vectors,
circumcenters from the normal equations in the affine hull, and dual
volumes from signed distances between global circumcenters.  Agreement
with the package is therefore a genuine cross-check, not a tautology.
"""

import math

import numpy as np
from scipy.spatial import Delaunay

from pfcurv import MetricComplex, build_complex


def simplex_volume(points: np.ndarray) -> float:
    E = np.asarray(points, dtype=float)[1:] - points[0]
    k = E.shape[0]
    if k == 0:
        return 1.0
    det = np.linalg.det(E @ E.T)
    return math.sqrt(max(det, 0.0)) / math.factorial(k)


def circumcenter(points: np.ndarray):
    """Global circumcenter and squared circumradius of a point set."""
    pts = np.asarray(points, dtype=float)
    p0 = pts[0]
    if len(pts) == 1:
        return p0.copy(), 0.0
    A = pts[1:] - p0
    t = np.linalg.solve(A @ A.T, 0.5 * (A * A).sum(axis=1))
    c = p0 + A.T @ t
    return c, float(((c - p0) ** 2).sum())


def barycentric(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of x with respect to the point rows."""
    pts = np.asarray(points, dtype=float)
    M = np.vstack([pts.T, np.ones(len(pts))])
    y = np.append(np.asarray(x, dtype=float), 1.0)
    sol, *_ = np.linalg.lstsq(M, y, rcond=None)
    return sol


def dual_volumes(c, pts: np.ndarray) -> list[np.ndarray]:
    """Circumcentric dual measures for every skeleton, computed from
    global circumcenters.

    Descends from the top cells: |*s| accumulates signed distances from
    the parent circumcenter to the facet circumcenter, sign taken toward
    the vertex opposite the facet.  Boundary simplexes only ever see the
    cofacets that exist, which is the same one-sided clipping the
    package applies.
    """
    pts = np.asarray(pts, dtype=float)
    d = c.dim
    centers = []
    for k in range(d + 1):
        centers.append(
            np.array([circumcenter(pts[list(t)])[0] for t in c.simplex_tuples[k]])
        )
    dual = [None] * (d + 1)
    dual[d] = np.ones(c.n_simplices(d))
    for k in range(d - 1, -1, -1):
        acc = np.zeros(c.n_simplices(k))
        verts = c.simplices[k + 1]
        for t in range(c.n_simplices(k + 1)):
            ct = centers[k + 1][t]
            for j in range(k + 2):
                f = c.facets[k + 1][t, j]
                cf = centers[k][f]
                e = ct - cf
                w = pts[verts[t, j]]
                sign = 1.0 if np.dot(e, w - cf) >= 0 else -1.0
                acc[f] += sign * np.linalg.norm(e) * dual[k + 1][t] / (d - k)
        dual[k] = acc
    return dual


def dihedral_from_normals(pts: np.ndarray, hinge: tuple, top: tuple) -> float:
    """Dihedral angle at a hinge of a d-simplex in ambient dimension d,
    from outward face normals of the two faces meeting there."""
    pts = np.asarray(pts, dtype=float)
    others = [v for v in top if v not in hinge]
    assert len(others) == 2
    a, b = others
    normals = []
    for keep, drop in ((a, b), (b, a)):
        face = list(hinge) + [keep]
        base = pts[face[0]]
        span = pts[face[1:]] - base
        # component of the dropped vertex orthogonal to the face
        x = pts[drop] - base
        coef = np.linalg.lstsq(span.T, x, rcond=None)[0]
        n = x - span.T @ coef
        normals.append(-n / np.linalg.norm(n))
    cosang = float(np.clip(np.dot(normals[0], normals[1]), -1.0, 1.0))
    return math.pi - math.acos(cosang)


def dihedral_qr(m, h, top) -> float:
    """Dihedral angle of ``top`` at hinge ``h``, one pair at a time.

    The length-only reference for the batched table: the cell is placed
    by its Gram Cholesky embedding, the two edges leaving the hinge are
    projected off the hinge's span by QR, and the angle is the one
    between the projections.
    """
    c = m.complex
    tv = c.simplex(top)
    hv = set(c.simplex(h))
    X = m.embed_simplex(top)
    hpos = [i for i, v in enumerate(tv) if v in hv]
    a, b = (i for i, v in enumerate(tv) if v not in hv)
    base = X[hpos[0]]
    u = X[a] - base
    v = X[b] - base
    if len(hpos) > 1:
        E = (X[hpos[1:]] - base).T
        Q, _ = np.linalg.qr(E)
        u = u - Q @ (Q.T @ u)
        v = v - Q @ (Q.T @ v)
    cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def shoelace(poly: np.ndarray) -> float:
    x, y = np.asarray(poly, dtype=float).T
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def random_delaunay(dim: int, n_points: int, seed: int):
    """Seeded random Delaunay mesh with a sliver-quality gate.

    Thin cells amplify circumcenter roundoff past useful tolerances, so
    draws whose worst cell falls below a relative volume floor are
    redrawn deterministically (the attempt index joins the seed).
    """
    for attempt in range(64):
        rng = np.random.default_rng([seed, attempt])
        pts = rng.uniform(size=(n_points, dim))
        tri = Delaunay(pts)
        if len(tri.coplanar):
            continue
        vols = np.array([simplex_volume(pts[s]) for s in tri.simplices])
        if vols.min() > 1e-4 / len(tri.simplices):
            cells = [tuple(sorted(map(int, s))) for s in tri.simplices]
            c = build_complex(dim, cells)
            diff = pts[c.simplices[1][:, 0]] - pts[c.simplices[1][:, 1]]
            m = MetricComplex(c, (diff**2).sum(axis=1))
            m.coordinates = pts
            return m
    raise RuntimeError(f"no acceptable draw for seed {seed}")
