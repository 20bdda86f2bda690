"""Reference computations.

Apart from :func:`dihedral_qr`, the per-pair length-only angle kept as
the reference for the batched dihedral table, :func:`boundary_matrix`,
the dense signed incidence built from vertex tuples, the per-element
chain-sum loops kept as the reference for the matrix-free elevation
operators, :func:`looped_adjointness`, the one-sample-at-a-time
reference for the batched adjointness check, and :func:`flat_grid_loop`
and :func:`icosphere_loop`, the loop generators kept as the reference
for the array-arithmetic ones, everything here works on an explicit
vertex embedding and never touches the length-only pipeline: volumes
come from Gram determinants of edge vectors, circumcenters from the
normal equations in the affine hull, and dual volumes from signed
distances between global circumcenters.  Agreement with the package is
therefore a genuine cross-check, not a tautology.
"""

import functools
import itertools
import math

import numpy as np
from scipy.spatial import Delaunay

from pfcurv import (
    DUAL,
    SIMPLICIAL,
    BoundaryElement,
    Cochain,
    MetricComplex,
    SimplexId,
    ZeroMeasureElement,
    build_complex,
    coderivative,
    deficit,
    exterior_derivative,
    l2_inner_product,
    sectional,
)
from pfcurv.meshgen import _from_coordinates, _icosahedron_points


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


def boundary_matrix(c, k):
    """Dense signed incidence B_k of a complex: entry [f, s] is (-1)**j when
    the (k-1)-simplex f is s without its j-th vertex.  Built from the vertex
    tuples and their index, not from the facet tables."""
    B = np.zeros((c.n_simplices(k - 1), c.n_simplices(k)), dtype=np.int64)
    for i, s in enumerate(c.simplex_tuples[k]):
        for j in range(k + 1):
            B[c.index[k - 1][s[:j] + s[j + 1 :]], i] = (-1) ** j
    return B


# -- per-element chain sums ------------------------------------------------
#
# The recursive flag sums and the per-element Ricci, scalar and transfer
# loops the batched chain applications replaced.  Each weight is summed one chain
# at a time, with D_k = k! |s| and U_k = (d-k)! |*s| for the two ends.


class ChainSums:
    """Recursive chain sums and the hybrid weights built from them."""

    def __init__(self, m):
        self.m = m
        self.chain = functools.cache(self._chain)
        # cofacets[k][i]: the (k+1)-simplexes that have k-simplex i as a facet
        c = m.complex
        self.cofacets = [[[] for _ in range(c.n_simplices(k))] for k in range(c.dim)]
        for k in range(1, c.dim + 1):
            for t, row in enumerate(c.facets[k].tolist()):
                for f in row:
                    self.cofacets[k - 1][f].append(t)

    def _chain(self, k, i, kp, ip):
        """Sum over chains of simplexes from (k, i) up to (kp, ip) of the
        product of elevations along the chain."""
        if k == kp:
            return 1.0 if i == ip else 0.0
        c = self.m.complex
        target = set(c.simplex_tuples[kp][ip])
        total = 0.0
        for t in self.cofacets[k][i]:
            if set(c.simplex_tuples[k + 1][t]) <= target:
                e = self.m.elevation(SimplexId(k, i), SimplexId(k + 1, t))
                total += e * self.chain(k + 1, t, kp, ip)
        return total

    def shared(self, s, sp):
        """V_{s sp} for a face s of sp."""
        m = self.m
        d = m.dim
        down = math.factorial(s.dim) * m.volumes[s.dim][s.index]
        up = math.factorial(d - sp.dim) * m.dual_volumes[sp.dim][sp.index]
        return down * self.chain(s.dim, s.index, sp.dim, sp.index) * up / math.factorial(d)

    def restricted(self, h, s):
        """Hybrid measure of the face s inside h."""
        q, p = h.dim, s.dim
        m = self.chain(p, s.index, q, h.index)
        return self.m.volumes[p][s.index] * m / (math.factorial(q - p) * math.comb(q, p))

    def _interior_hinges_within(self, sp):
        c = self.m.complex
        return [x for x in c.faces(sp, c.dim - 2) if not c.is_boundary[c.dim - 2][x.index]]

    def ricci_dual_edge(self, i):
        m = self.m
        d = m.dim
        f = SimplexId(d - 1, i)
        if m.complex.is_boundary[d - 1][i]:
            raise BoundaryElement(f"face {i} lies on the boundary")
        num = den = 0.0
        for h in self._interior_hinges_within(f):
            w = self.shared(h, f)
            num += sectional(m, h) * w
            den += w
        if den == 0:
            raise ZeroMeasureElement(f"face {i} has zero weight")
        return math.comb(d, 2) * num / den

    def _restricted_average(self, s, factor):
        m = self.m
        d = m.dim
        if m.complex.is_boundary[s.dim][s.index]:
            raise BoundaryElement(f"{s} lies on the boundary")
        num = den = 0.0
        for h in m.complex.cofaces(s, d - 2):
            w = self.restricted(h, s)
            num += deficit(m, h) * w
            den += m.dual_volumes[d - 2][h.index] * w
        if den == 0:
            raise ZeroMeasureElement(f"{s} sees zero average dual area")
        return factor * num / den

    def ricci_simplicial_edge(self, i):
        return self._restricted_average(SimplexId(1, i), math.comb(self.m.dim, 2))

    def scalar_vertex(self, i):
        d = self.m.dim
        return self._restricted_average(SimplexId(0, i), d * (d - 1))

    def scalar_dual_vertex(self, i):
        m = self.m
        d = m.dim
        t = SimplexId(d, i)
        hinges = self._interior_hinges_within(t)
        if not hinges:
            raise BoundaryElement(f"top cell {i} has no interior hinge")
        num = den = 0.0
        for h in hinges:
            w = self.shared(h, t)
            astar = m.dual_volumes[d - 2][h.index]
            if astar == 0:
                raise ZeroMeasureElement(f"hinge {h} has zero dual area")
            num += d * (d - 1) * (deficit(m, h) / astar) * w
            den += w
        if den == 0:
            raise ZeroMeasureElement(f"top cell {i} sees zero hinge weight")
        return num / den

    def transfer_density(self, dens_in, to_edges):
        """Degree-1 densities moved across the lattices: dual edges onto
        simplicial edges when ``to_edges``, else the reverse."""
        m = self.m
        c = m.complex
        d = m.dim
        k = 1 if to_edges else d - 1
        out = np.zeros(c.n_simplices(k))
        for i in range(out.size):
            s = SimplexId(k, i)
            V_s = m.hybrid_volume(s)
            if V_s == 0:
                raise ZeroMeasureElement(f"{s} has zero hybrid volume")
            partners = c.cofaces(s, d - 1) if to_edges else c.faces(s, 1)
            acc = 0.0
            for p in partners:
                acc += dens_in[p.index] * (self.shared(s, p) if to_edges else self.shared(p, s))
            meas = m.volumes[1][i] if to_edges else m.dual_volumes[d - 1][i]
            out[i] = acc / V_s * meas
        return out


# -- combinatorial references ----------------------------------------------


def hinge_stars(c):
    """Every hinge's star of top cells in walk order, and whether the walk
    is an open chain, built from the vertex rows of the top cells alone.

    Consecutive cells of a walk share a ridge through the hinge.  A walk
    starts at a cell with a ridge through the hinge on no other cell, if
    there is one, and is then an open chain; otherwise it starts at the
    lowest cell of the star.
    """
    d = c.dim
    tops = c.simplex_tuples[d]
    around, on_ridge = {}, {}
    for t, cell in enumerate(tops):
        for h in itertools.combinations(cell, d - 1):
            around.setdefault(h, []).append(t)
        for r in itertools.combinations(cell, d):
            on_ridge.setdefault(r, []).append(t)

    def neighbors(t, h):
        """The cells across the two ridges of t through h (None: no cell)."""
        out = []
        for v in set(tops[t]) - set(h):
            r = tuple(x for x in tops[t] if x != v)
            out.append(next((u for u in on_ridge[r] if u != t), None))
        return out

    stars = []
    for h in c.simplex_tuples[d - 2]:
        ends = [t for t in around[h] if None in neighbors(t, h)]
        walk = [ends[0] if ends else around[h][0]]
        while True:
            step = [u for u in neighbors(walk[-1], h) if u is not None and u not in walk]
            if not step:
                break
            walk.append(step[0])
        stars.append(([SimplexId(d, t) for t in walk], bool(ends)))
    return stars


def periodic_torus(dim: int, n: int):
    """Flat periodic Freudenthal torus on n^dim unit cubes (n >= 3).

    Vertex ids are lattice points mod n; a cell walks one unit step along
    each axis in the order of a permutation, so its vertices i < j are
    j - i steps apart and that is the squared length of their edge.
    """
    cells, steps = [], []
    for corner in itertools.product(range(n), repeat=dim):
        for perm in itertools.permutations(range(dim)):
            p = list(corner)
            walk = [tuple(p)]
            for ax in perm:
                p[ax] += 1
                walk.append(tuple(p))
            cells.append([sum((x % n) * n**i for i, x in enumerate(q)) for q in walk])
    c = build_complex(dim, cells)
    l2 = np.zeros(c.n_simplices(1))
    for cell in cells:
        for i, j in itertools.combinations(range(dim + 1), 2):
            e = c.id_of((cell[i], cell[j])).index
            assert l2[e] in (0.0, j - i)
            l2[e] = j - i
    return MetricComplex(c, l2)


def flat_grid_loop(dim: int, n: int) -> MetricComplex:
    """``gen_flat_grid`` one cell at a time: a dict from lattice point to
    vertex id, and for every corner in ``itertools.product`` order one
    Freudenthal walk per permutation."""
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


def icosphere_loop(level: int, radius: float = 1.0) -> MetricComplex:
    """``gen_icosphere`` one face at a time: a dict of edge midpoints
    numbered by first encounter, and one ``np.linalg.norm`` per point."""
    pts = _icosahedron_points()
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


def looped_adjointness(m, *, seed: int = 0, samples: int = 20) -> float:
    """The "measured adjointness" residual of ``suites.dec_checks``, one
    (a, b) pair of single cochains at a time: the worst of
    |<d a, b> - <a, delta b>| / max(|<d a, b>|, |<a, delta b>|, 1).

    The random stream is consumed as in ``dec_checks``: the integer
    cochains of its d-after-d check first (d >= 2), then per lattice and
    degree k, ``samples`` times an a on the k-elements and a b on the
    (k+1)-elements.
    """
    d = m.dim
    c = m.complex
    rng = np.random.default_rng(seed)
    for lattice in (SIMPLICIAL, DUAL) if d >= 2 else ():
        for k in range(d - 1):
            rng.integers(-9, 10, size=c.n_simplices(k if lattice == SIMPLICIAL else d - k))
    worst = 0.0
    for lattice in (SIMPLICIAL, DUAL):
        for k in range(d):
            kp = k if lattice == SIMPLICIAL else d - k
            n1 = c.n_simplices(kp)
            n2 = c.n_simplices(kp + 1 if lattice == SIMPLICIAL else kp - 1)
            for _ in range(samples):
                a = Cochain(m, lattice, k, rng.standard_normal(n1))
                b = Cochain(m, lattice, k + 1, rng.standard_normal(n2))
                lhs = l2_inner_product(exterior_derivative(a), b)
                rhs = l2_inner_product(a, coderivative(b))
                scale = max(abs(lhs), abs(rhs), 1.0)
                worst = max(worst, abs(lhs - rhs) / scale)
    return worst
