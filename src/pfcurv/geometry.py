"""Metric geometry of a simplicial complex from squared edge lengths.

All geometric quantities are functions of the squared edge lengths alone.
Each k-simplex is described by its Gram matrix

    G_ij = (l2[0,i] + l2[0,j] - l2[i,j]) / 2,    i, j = 1..k,

the inner products of its edge vectors from vertex 0.  One batched,
scale-free L D L^T factor of G per simplex (:func:`simplex_gram`) gives
the volume, the circumcenter, the elevations, the dihedral angles and
local coordinates, so every derived quantity is intrinsic and needs no
global embedding.  Matrix entries are held as component planes, one numpy call
across all simplexes each; sums of products add left to right in index order.

The dual complex is circumcentric: the dual cell of a k-simplex s is made
of the simplexes spanned by the circumcenters along ascending chains
s = t_k < t_{k+1} < ... < t_d.  Consecutive circumcenter offsets are
mutually orthogonal, so each chain contributes the signed product of its
elevations divided by (d-k)!.  Chains leaving the complex at a boundary
simply do not exist, which clips dual cells at the boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import warnings
from typing import NamedTuple

import numpy as np

from .complex import SimplexId, SimplicialComplex
from .errors import (
    DegenerateSimplex,
    NonWellCenteredWarning,
    NotIncident,
    ZeroMeasureElement,
)

DEGENERACY_TOL = 1e-12
ZERO_MEASURE_TOL = 1e-300


class SimplexGram(NamedTuple):
    """Per-simplex results of :func:`simplex_gram` for n k-simplexes."""

    L: np.ndarray  # (k, k, n) unit lower triangular planes, G / s = L diag(p) L^T
    p: np.ndarray  # (k, n) pivots
    exp: np.ndarray  # (n,) s = 2**exp
    degenerate: np.ndarray  # (n,) vol^2 <= DEGENERACY_TOL * (max l2)^k, or NaN
    volume: np.ndarray  # (n,) inf, 0 or subnormal where float64 cannot hold it
    barycentric: np.ndarray  # (n, k + 1) of the circumcenter
    circumradius_sq: np.ndarray  # (n,)


def _sum(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... over the leading axis, added left to right."""
    return functools.reduce(np.add, terms)


def simplex_gram(pair_l2: np.ndarray, k: int) -> SimplexGram:
    """Volumes, circumcenters and Gram factors of n k-simplexes from their squared
    edge lengths ``pair_l2`` (C(k+1, 2), n), pairs in ``itertools.combinations``
    order.  Never raises; degenerate simplexes are flagged.

    Each Gram matrix G is divided by s, the largest power of two not above
    the simplex's largest squared length, so nothing over- or underflows
    at any length scale, and factored as L diag(p) L^T one column at a
    time.  s is a power of two and the factor is square-root-free (not
    Cholesky) so that neither adds rounding of its own: exact answers,
    such as circumcenters on a facet of a right-angled simplex, keep their
    exact zeros.  Degenerate means vol^2 <= DEGENERACY_TOL * (max squared
    length)^k, tested in units of s^k.  Pivot j is a ratio of the squared
    volumes of the faces on vertices 0..j and 0..j-1, so once every
    lower-dimensional face passes, prod(p) > 0 means all pivots are.
    """
    pair_l2 = np.ascontiguousarray(pair_l2)  # one contiguous (n,) row per pair
    lmax = pair_l2.max(axis=0)
    exp = np.frexp(lmax)[1] - 1
    q = np.ldexp(pair_l2, -exp)
    # L starts as the lower triangle of G / s; pairs of vertices 1..k are q[k:]
    a, b = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2).T
    p = np.empty_like(q[:k])
    L = np.zeros((k,) + p.shape)
    L[range(k), range(k)], L[b, a] = q[:k], (q[a] + q[b] - q[k:]) / 2.0
    with np.errstate(all="ignore"):  # degenerate simplexes are flagged, not raised
        for j in range(k):  # column j: G_ij - sum_m L_im L_jm p_m over m < j
            v = L[j:, j] - _sum((L[j:, :j] * (L[j, :j] * p[:j])).swapaxes(0, 1)) if j else L[:, 0]
            p[j] = v[0]
            L[j:, j] = v / v[0]
        vol_sq = functools.reduce(np.multiply, p) / math.factorial(k) ** 2  # in units of s^k
        degenerate = ~(vol_sq > DEGENERACY_TOL * np.ldexp(lmax, -exp) ** k)
        # vol = sqrt(vol_sq * s^k), s^k applied as an exact power of two
        ke = k * exp
        volume = np.ldexp(np.sqrt(vol_sq * (1 + (ke & 1))), ke >> 1)
        # circumcenter: L y = diag(G) / 2, L^T lam = y / p (vertex 0 at 0); R^2 = sum y^2 / p
        y = q[:k] / 2.0
        for i in range(1, k):
            y[i] -= _sum(L[i, :i] * y[:i])
        lam = y / p
        for i in range(k - 2, -1, -1):
            lam[i] -= _sum(L[i + 1:, i] * lam[i + 1:])
        r2 = np.ldexp(_sum(y * y / p), exp)
    bary = np.vstack([1.0 - _sum(lam), lam]).T.copy()
    return SimplexGram(L, p, exp, degenerate, volume, bary, r2)


def _caller_stacklevel() -> int:
    """The ``stacklevel`` at which a warning issued by the calling function
    names the first frame outside this package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


class MetricComplex:
    """A simplicial complex equipped with squared edge lengths.

    Parameters
    ----------
    complex : SimplicialComplex
        The combinatorial structure.
    edge_lengths_sq : array_like
        Squared length per edge, indexed like the 1-skeleton.

    All per-simplex caches (volumes, circumcenters, elevations, dual
    volumes) are computed once at construction and are read-only arrays.
    The hybrid volumes, the dihedral angles, their per-hinge sums and the
    arrays kept with :meth:`cached` are computed on first use and cached,
    read-only too; new lengths need a new instance.
    Construction raises :class:`DegenerateSimplex` if a simplex has no
    positive volume or one that float64 cannot hold, and emits
    :class:`NonWellCenteredWarning` when some net dual volume is zero or
    negative.
    """

    def __init__(self, complex: SimplicialComplex, edge_lengths_sq):
        self.complex = complex
        l2 = np.asarray(edge_lengths_sq, dtype=np.float64)
        if l2.shape != (complex.n_simplices(1),):
            raise ValueError(
                f"expected {complex.n_simplices(1)} squared lengths, got {l2.shape}"
            )
        if not (l2 > 0).all():
            raise ValueError("squared edge lengths must be positive")
        self.edge_lengths_sq = l2
        self.coordinates: np.ndarray | None = None  # oracle/serialization aid
        self._cache: dict = {}
        self._build_caches()

    # -- cache construction ---------------------------------------------

    def _build_caches(self) -> None:
        c = self.complex
        d = c.dim
        n0 = c.n_simplices(0)
        self.volumes: list[np.ndarray] = [np.ones(n0)]
        self.barycentric: list[np.ndarray] = [np.ones((n0, 1))]
        self.circumradius_sq: list[np.ndarray] = [np.zeros(n0)]
        self._gram: list[SimplexGram | None] = [None]
        self._elev: list[np.ndarray | None] = [None]

        for k in range(1, d + 1):
            g = simplex_gram(self.edge_lengths_sq[c.edge_ids(k).T], k)
            vol = g.volume
            lost = ~(vol >= np.finfo(np.float64).tiny) | np.isinf(vol)
            for bad, why in (
                (g.degenerate, lambda i: "has non-positive volume "
                 f"(vol^2 = {np.ldexp(g.p[:, i].prod() / math.factorial(k) ** 2, k * g.exp[i]):.3e})"),
                (lost, lambda i: f"has a {k}-volume not representable in float64 "
                 f"at squared-length scale {np.ldexp(1.0, g.exp[i]):.3e}"),
            ):
                if bad.any():
                    i = int(np.argmax(bad))
                    raise DegenerateSimplex(f"{k}-simplex {c.simplex(SimplexId(k, i))} {why(i)}")
            self.volumes.append(vol)
            self.barycentric.append(g.barycentric)
            self.circumradius_sq.append(g.circumradius_sq)
            self._gram.append(g)
            # signed distance from the circumcenter to facet j, whose own
            # circumcenter is the foot: lam_j times the height k|t| / |F_j|
            height = k * (vol[:, None] / self.volumes[k - 1][c.facets[k]])
            self._elev.append(g.barycentric * height)

        # ascending chain factors: U[k][s] = sum over chains s < ... < top
        # of the product of elevations; |*s| = U[k][s] / (d-k)!
        U: list[np.ndarray] = [np.zeros(0)] * (d + 1)
        U[d] = np.ones(c.n_simplices(d))
        for k in range(d - 1, -1, -1):
            U[k] = c.scatter(k + 1, U[k + 1], self._elev[k + 1])
        self._up = U
        self.dual_volumes = [U[k] / math.factorial(d - k) for k in range(d + 1)]

        # descending chain factors: D[k][s] = sum over chains v < ... < s;
        # numerically D[k] = k! |s|, which the flag-sum route relies on
        Dn: list[np.ndarray] = [np.ones(n0)]
        for k in range(1, d + 1):
            Dn.append(c.gather(k, Dn[k - 1], self._elev[k]))
        self._down = Dn

        for arrays in (self.volumes, self.dual_volumes, self.barycentric,
                       self.circumradius_sq, self._elev[1:], U, Dn):
            for a in arrays:
                a.flags.writeable = False

        n_bad = sum(int((v <= 0).sum()) for v in self.dual_volumes[:d])
        if n_bad:
            warnings.warn(
                f"{n_bad} dual volumes are zero or negative; "
                "the mesh is not well-centered",
                NonWellCenteredWarning,
                stacklevel=_caller_stacklevel(),
            )

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.complex.dim

    def embed_simplex(self, s: SimplexId) -> np.ndarray:
        """Coordinates of the vertices of ``s`` in R^k, vertex 0 at the
        origin, reproducing all pairwise squared lengths."""
        X = np.zeros((s.dim + 1, s.dim))
        if s.dim:
            g, i = self._gram[s.dim], s.index
            X[1:] = g.L[..., i] * np.sqrt(np.ldexp(g.p[:, i], g.exp[i]))
        return X

    def simplex_volume(self, s: SimplexId) -> float:
        """Unsigned k-volume of ``s`` (1 for vertices)."""
        return float(self.volumes[s.dim][s.index])

    def circumcenter(self, s: SimplexId) -> tuple[np.ndarray, float]:
        """Barycentric circumcenter coordinates and squared circumradius."""
        return (
            self.barycentric[s.dim][s.index].copy(),
            float(self.circumradius_sq[s.dim][s.index]),
        )

    def elevation(self, s: SimplexId, t: SimplexId) -> float:
        """Signed distance from circumcenter(s) to circumcenter(t) for a
        facet s of t, positive toward the vertex of t opposite s."""
        if t.dim != s.dim + 1:
            raise NotIncident(f"elevation needs dim(t) = dim(s) + 1, got {s} in {t}")
        pos = np.nonzero(self.complex.facets[t.dim][t.index] == s.index)[0]
        if pos.size == 0:
            raise NotIncident(f"{s} is not a facet of {t}")
        return float(self._elev[t.dim][t.index, pos[0]])

    def dual_volume(self, s: SimplexId) -> float:
        """Signed (d-k)-volume of the circumcentric dual cell of ``s``.

        Sums (1/(d-k)!) times the signed elevation product over all
        ascending chains from ``s`` to a top cell; 1 for top cells.
        """
        return float(self.dual_volumes[s.dim][s.index])

    # -- hybrid volumes --------------------------------------------------

    def irreducible_cell_volume(self, chain) -> float:
        """Signed volume of the hybrid cell of one full flag.

        ``chain`` lists incident simplexes of dimensions 0..d.  The value
        is the product of the d consecutive elevations divided by d!,
        negative when the flag reaches outside its simplexes.
        """
        d = self.dim
        ids = list(chain)
        if [s.dim for s in ids] != list(range(d + 1)):
            raise ValueError("chain must contain one simplex of each dimension 0..d")
        prod = 1.0
        for s, t in zip(ids, ids[1:]):
            prod *= self.elevation(s, t)  # raises NotIncident unless s is a facet of t
        return prod / math.factorial(d)

    @functools.cached_property
    def hybrid_volumes(self) -> list[np.ndarray]:
        """V_s = |s| |*s| / C(d, k) of every k-simplex, per dimension k:
        the volume of the hybrid cell shared by ``s`` and its dual."""
        out = [v * dv / math.comb(self.dim, k)
               for k, (v, dv) in enumerate(zip(self.volumes, self.dual_volumes))]
        for a in out:
            a.flags.writeable = False
        return out

    def hybrid_volume(self, s: SimplexId) -> float:
        """V_s = |s| |*s| / C(d, k), the hybrid-cell volume of ``s``."""
        return float(self.hybrid_volumes[s.dim][s.index])

    def hybrid_volume_from_flags(self, s: SimplexId) -> float:
        """Same V_s accumulated as a signed sum over all flags through
        ``s``; equals :meth:`hybrid_volume` up to roundoff."""
        return (
            self._down[s.dim][s.index]
            * self._up[s.dim][s.index]
            / math.factorial(self.dim)
        )

    def cached(self, key, build):
        """``build(self)``, computed on the first call with ``key`` and kept
        on the instance; arrays are made read-only."""
        value = self._cache.get(key)
        if value is None:
            value = build(self)
            value.flags.writeable = False
            self._cache[key] = value
        return value

    def _chain_dims(self, k: int, kp: int) -> range:
        if not 0 <= k <= kp <= self.dim:
            raise ValueError(f"no chain operator from dimension {k} to {kp}")
        return range(k + 1, kp + 1)

    def chain_apply(self, k: int, kp: int, x: np.ndarray) -> np.ndarray:
        """C(k, k') x for values x on the k'-simplexes; the result lives on
        the k-simplexes.

        C(k, k') = W_{k+1} ... W_{k'}, where W_j scatters each j-simplex
        onto its facets weighted by their elevations.  Entry (s, s') of C
        sums the product of elevations over every ascending chain of
        simplexes from s up to s'; it is 0 unless s is a face of s'.
        C(k, k) is the identity.
        """
        for j in reversed(self._chain_dims(k, kp)):
            x = self.complex.scatter(j, x, self._elev[j])
        return x

    def chain_apply_t(self, k: int, kp: int, y: np.ndarray) -> np.ndarray:
        """C(k, k')^T y for values y on the k-simplexes; the result lives on
        the k'-simplexes."""
        for j in self._chain_dims(k, kp):
            y = self.complex.gather(j, y, self._elev[j])
        return y

    def _chain_entry(self, s: SimplexId, sp: SimplexId) -> float:
        """Entry (s, sp) of C(dim s, dim sp), summed over the chains that
        descend from ``sp`` through its facet rows and end at ``s``."""
        rows, w = np.array([sp.index]), np.ones(1)
        for j in range(sp.dim, s.dim, -1):
            w = (w[:, None] * self._elev[j][rows]).ravel()
            rows = self.complex.facets[j][rows].ravel()
        return float(w[rows == s.index].sum())

    def shared_hybrid_volume(self, s: SimplexId, sp: SimplexId) -> float:
        """Signed volume V_{s sp} shared by the hybrid cells of two
        incident simplexes: the sum over flags through both,
        D_k[s] C(k, k')[s, sp] U_k'[sp] / d!."""
        if s.dim > sp.dim:
            s, sp = sp, s
        c = self.complex
        if not set(c.simplex(s)) <= set(c.simplex(sp)):
            raise NotIncident(f"{s} and {sp} are not incident")
        return float(
            self._down[s.dim][s.index]
            * self._chain_entry(s, sp)
            * self._up[sp.dim][sp.index]
            / math.factorial(self.dim)
        )

    def restricted_measure(self, h: SimplexId, s: SimplexId) -> float:
        """Hybrid measure of ``s`` inside ``h`` treated as a complex of its
        own dimension (the in-hinge analogue of :meth:`hybrid_volume`)."""
        c = self.complex
        if s.dim > h.dim or not set(c.simplex(s)) <= set(c.simplex(h)):
            raise NotIncident(f"{s} is not a face of {h}")
        q, p = h.dim, s.dim
        m = self._chain_entry(s, h)
        return float(
            self.simplex_volume(s) * m / (math.factorial(q - p) * math.comb(q, p))
        )

    def restricted_hinge_area(self, h: SimplexId, edge: SimplexId) -> float:
        """Portion A_{h,edge} of the hinge area |h| attributed to one of
        its edges; the portions over the edges of h sum to |h|.

        Defined for dimension >= 3 (in dimension 3 the hinge is the edge
        and the value is its length).
        """
        if self.dim < 3:
            raise ValueError("restricted hinge areas need dimension >= 3")
        if h.dim != self.dim - 2 or edge.dim != 1:
            raise ValueError("expected a hinge and one of its edges")
        return self.restricted_measure(h, edge)

    def moment_arm(self, s: SimplexId, sp: SimplexId) -> float:
        """Moment arm magnitude between ``s`` and the dual element of
        ``sp`` (which must contain ``s``):

            |m| = C(d,k) C(d-k,p) V_{s sp} / (|s| |*sp|)

        with k = dim(s) and p = d - dim(sp).  Reduces to the distance
        between the two circumcenters for consecutive dimensions and to 1
        for an element paired with its own dual.
        """
        c = self.complex
        if not set(c.simplex(s)) <= set(c.simplex(sp)):
            raise NotIncident(f"dual partner {sp} does not contain {s}")
        d = self.dim
        k, p = s.dim, d - sp.dim
        dual = self.dual_volume(sp)
        if abs(dual) <= ZERO_MEASURE_TOL:
            raise ZeroMeasureElement(f"dual element of {sp} has zero measure")
        v = self.shared_hybrid_volume(s, sp)
        return abs(
            math.comb(d, k) * math.comb(d - k, p) * v / (self.simplex_volume(s) * dual)
        )

    # -- angles ----------------------------------------------------------

    @functools.cached_property
    def dihedral_angles(self) -> np.ndarray:
        """Interior dihedral angle of every top cell at each of its hinges.

        Shape (n_top, C(d+1, 2)), laid out like ``complex.top_hinges``:
        column (i, j) is the angle at the hinge opposite vertices i and j.
        With the Gram matrix G of the cell and P = [-1^T; I], the matrix
        M = P G^-1 P^T holds the inner products of the barycentric
        gradients, which are inward facet normals.  It is formed from the
        cell's factor G / s = L diag(p) L^T as Q^T diag(p)^-1 Q with
        L Q = P^T, Q in (d, d+1, n) planes and each M_ij one (n,) row
        summed left to right; that is s M, and the scale cancels in

            cos theta_ij = -M_ij / (sqrt(M_ii) sqrt(M_jj)).
        """
        d = self.dim
        if d < 2:
            raise ValueError("dihedral angles need dimension >= 2")
        g = self._gram[d]
        Q = np.zeros((d, d + 1, g.p.shape[1]))
        Q[:, 0], Q[range(d), range(1, d + 1)] = -1.0, 1.0  # P^T
        for i in range(1, d):  # Q_i = P^T_i - sum_j L_ij Q_j over j < i
            Q[i] -= _sum(g.L[i, :i, None] * Q[:i])
        QR = Q * (1.0 / g.p)[:, None]
        root = np.sqrt(_sum(QR * Q))  # sqrt(M_ii)
        pairs = itertools.combinations(range(d + 1), 2)
        cos = -np.array([_sum(QR[:, i] * Q[:, j]) / (root[i] * root[j]) for i, j in pairs])
        angles = np.arccos(np.clip(cos, -1.0, 1.0)).T.copy()
        angles.flags.writeable = False
        return angles

    @functools.cached_property
    def hinge_angle_sums(self) -> np.ndarray:
        """Sum of the dihedral angles of the top cells around each hinge."""
        c = self.complex
        sums = np.bincount(
            c.top_hinges.ravel(),
            weights=self.dihedral_angles.ravel(),
            minlength=c.n_simplices(self.dim - 2),
        )
        sums.flags.writeable = False
        return sums

    def dihedral_angle(self, h: SimplexId, top: SimplexId) -> float:
        """Interior dihedral angle of a top cell at one of its hinges,
        measured in the plane orthogonal to the hinge; in (0, pi)."""
        d = self.dim
        if h.dim != d - 2 or top.dim != d:
            raise ValueError("expected a hinge and a top cell")
        pos = np.nonzero(self.complex.top_hinges[top.index] == h.index)[0]
        if pos.size == 0:
            raise NotIncident(f"{h} is not a face of {top}")
        return float(self.dihedral_angles[top.index, pos[0]])

    def well_centered_fraction(self) -> float:
        """Fraction of simplexes of dimension >= 2 that contain their own
        circumcenter (all barycentric coordinates nonnegative)."""
        inside = [(self.barycentric[k] >= 0).all(axis=1) for k in range(2, self.dim + 1)]
        return float(np.concatenate(inside).mean()) if inside else 1.0
