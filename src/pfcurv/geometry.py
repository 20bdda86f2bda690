"""Metric geometry of a simplicial complex from squared edge lengths.

All geometric quantities are functions of the squared edge lengths alone.
Simplexes are embedded locally through the Gram matrix

    G_ij = (l2[0,i] + l2[0,j] - l2[i,j]) / 2

whose Cholesky factor gives coordinates with vertex 0 at the origin.
Circumcenters are solved in barycentric form from the bordered
Cayley-Menger system, so every derived quantity (elevations, dual cells,
hybrid volumes) is intrinsic and needs no global embedding.

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
import warnings

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


class MetricComplex:
    """A simplicial complex equipped with squared edge lengths.

    Parameters
    ----------
    complex : SimplicialComplex
        The combinatorial structure.
    edge_lengths_sq : array_like
        Squared length per edge, indexed like the 1-skeleton.

    All per-simplex caches (volumes, circumcenters, elevations, dual
    volumes) are computed once at construction and are immutable.  The
    dihedral angles, their per-hinge sums and the arrays kept with
    :meth:`cached` are computed on first use and cached; new lengths need
    a new instance.
    Construction raises :class:`DegenerateSimplex` if any simplex of any
    dimension fails to have positive volume, and emits
    :class:`NonWellCenteredWarning` when some net dual volume is zero or
    negative.
    """

    def __init__(self, complex: SimplicialComplex, edge_lengths_sq):
        self.complex = complex
        d = complex.dim
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
        self._dist2: list[np.ndarray | None] = [None] * (d + 1)
        self.volumes: list[np.ndarray] = [np.ones(n0)]
        self.barycentric: list[np.ndarray] = [np.ones((n0, 1))]
        self.circumradius_sq: list[np.ndarray] = [np.zeros(n0)]
        self._coords: list[np.ndarray] = [np.zeros((n0, 1, 0))]
        self._elev: list[np.ndarray | None] = [None]

        for k in range(1, d + 1):
            n = c.n_simplices(k)
            D2 = np.zeros((n, k + 1, k + 1))
            pair_l2 = self.edge_lengths_sq[c.edge_ids(k)]
            for col, (p, q) in enumerate(itertools.combinations(range(k + 1), 2)):
                D2[:, p, q] = D2[:, q, p] = pair_l2[:, col]
            self._dist2[k] = D2

            # bordered Cayley-Menger matrix: determinant gives the volume,
            # the solve gives circumcenter barycentrics and circumradius
            B = np.zeros((n, k + 2, k + 2))
            B[:, 0, 1:] = 1.0
            B[:, 1:, 0] = 1.0
            B[:, 1:, 1:] = D2
            det = np.linalg.det(B)
            vol_sq = ((-1.0) ** (k + 1)) * det / (2.0**k * math.factorial(k) ** 2)
            scale = D2.max(axis=(1, 2))
            bad = vol_sq <= DEGENERACY_TOL * scale**k
            if bad.any():
                i = int(np.argmax(bad))
                raise DegenerateSimplex(
                    f"{k}-simplex {c.simplex(SimplexId(k, i))} has non-positive volume "
                    f"(vol^2 = {vol_sq[i]:.3e})"
                )
            rhs = np.zeros((n, k + 2))
            rhs[:, 0] = 1.0
            sol = np.linalg.solve(B, rhs[..., None])[..., 0]
            self.circumradius_sq.append(-sol[:, 0] / 2.0)
            self.barycentric.append(sol[:, 1:])
            self.volumes.append(np.sqrt(vol_sq))

            # local embedding: Gram Cholesky, vertex 0 at the origin
            G = (D2[:, :1, 1:] + D2[:, 1:, :1] - D2[:, 1:, 1:]) / 2.0
            try:
                L = np.linalg.cholesky(G)
            except np.linalg.LinAlgError:
                i = self._first_non_spd(G)
                raise DegenerateSimplex(
                    f"{k}-simplex {c.simplex(SimplexId(k, i))} has a non-positive-definite "
                    "Gram matrix"
                ) from None
            coords = np.zeros((n, k + 1, k))
            coords[:, 1:, :] = L
            self._coords.append(coords)

            # elevations over each facet, sign toward the opposite vertex
            center = np.einsum("nj,njc->nc", self.barycentric[k], coords)
            elev = np.empty((n, k + 1))
            for j in range(k + 1):
                keep = [i for i in range(k + 1) if i != j]
                X = coords[:, keep, :]
                bf = self.barycentric[k - 1][c.facets[k][:, j]]
                cs = np.einsum("nj,njc->nc", bf, X)
                e = center - cs
                w = coords[:, j, :]
                dot = ((w - cs) * e).sum(axis=1)
                elev[:, j] = np.sign(dot) * np.linalg.norm(e, axis=1)
            self._elev.append(elev)

        # ascending chain factors: U[k][s] = sum over chains s < ... < top
        # of the product of elevations; |*s| = U[k][s] / (d-k)!
        U: list[np.ndarray] = [np.zeros(0)] * (d + 1)
        U[d] = np.ones(c.n_simplices(d))
        for k in range(d - 1, -1, -1):
            U[k] = c.scatter(k + 1, U[k + 1], self._elev[k + 1])
        self._up = U
        self.dual_volumes: list[np.ndarray] = [
            U[k] / math.factorial(d - k) for k in range(d)
        ]
        self.dual_volumes.append(np.ones(c.n_simplices(d)))

        # descending chain factors: D[k][s] = sum over chains v < ... < s;
        # numerically D[k] = k! |s|, which the flag-sum route relies on
        Dn: list[np.ndarray] = [np.ones(n0)]
        for k in range(1, d + 1):
            Dn.append(c.gather(k, Dn[k - 1], self._elev[k]))
        self._down = Dn

        flat = np.concatenate([self.dual_volumes[k] for k in range(d)])
        n_bad = int((flat <= 0).sum())
        if n_bad:
            warnings.warn(
                f"{n_bad} dual volumes are zero or negative; "
                "the mesh is not well-centered",
                NonWellCenteredWarning,
                stacklevel=3,
            )

    @staticmethod
    def _first_non_spd(G: np.ndarray) -> int:
        for i in range(G.shape[0]):
            try:
                np.linalg.cholesky(G[i])
            except np.linalg.LinAlgError:
                return i
        return 0

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.complex.dim

    def embed_simplex(self, s: SimplexId) -> np.ndarray:
        """Coordinates of the vertices of ``s`` in R^k, vertex 0 at the
        origin, reproducing all pairwise squared lengths."""
        return self._coords[s.dim][s.index].copy()

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
        facets = self.complex.facets[t.dim][t.index]
        pos = np.nonzero(facets == s.index)[0]
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
        c = self.complex
        d = c.dim
        ids = list(chain)
        if [s.dim for s in ids] != list(range(d + 1)):
            raise ValueError("chain must contain one simplex of each dimension 0..d")
        prod = 1.0
        for s, t in zip(ids, ids[1:]):
            if not set(c.simplex(s)) <= set(c.simplex(t)):
                raise NotIncident(f"{s} not a face of {t}")
            prod *= self.elevation(s, t)
        return prod / math.factorial(d)

    def hybrid_volume(self, s: SimplexId) -> float:
        """V_s = |s| |*s| / C(d, k), the hybrid-cell volume of ``s``."""
        d = self.dim
        return (
            self.simplex_volume(s)
            * self.dual_volume(s)
            / math.comb(d, s.dim)
        )

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
        gradients, which are inward facet normals, so

            cos theta_ij = -M_ij / (sqrt(M_ii) sqrt(M_jj)).

        The square roots are taken separately so that the product of two
        small diagonal entries cannot underflow.
        """
        d = self.dim
        if d < 2:
            raise ValueError("dihedral angles need dimension >= 2")
        D2 = self._dist2[d]
        G = (D2[:, :1, 1:] + D2[:, 1:, :1] - D2[:, 1:, 1:]) / 2.0
        P = np.vstack([-np.ones((1, d)), np.eye(d)])
        M = P @ np.linalg.inv(G) @ P.T
        i, j = np.array(list(itertools.combinations(range(d + 1), 2))).T
        root = np.sqrt(np.diagonal(M, axis1=1, axis2=2))
        cos = -M[:, i, j] / (root[:, i] * root[:, j])
        angles = np.arccos(np.clip(cos, -1.0, 1.0))
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
        good = 0
        total = 0
        for k in range(2, self.dim + 1):
            b = self.barycentric[k]
            good += int((b >= 0).all(axis=1).sum())
            total += b.shape[0]
        return good / total if total else 1.0
