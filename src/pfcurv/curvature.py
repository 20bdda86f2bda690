"""Curvature of piecewise-flat manifolds from deficit angles.

All curvature lives on codimension-2 hinges: the deficit angle is what a
vector picks up under parallel transport around the hinge, and dividing
by the dual area gives a sectional curvature.  Coarser quantities (Ricci
on edges of either lattice, scalars on vertices) are hybrid-volume
weighted averages of the hinge values.

Orientation convention: a hinge plane carries two orientations, and
summing over both doubles the integrated Riemann and Ricci values.  The
functions here default to the single-orientation values, which make the
volume-weighted sums over any lattice telescope to the same action:

    sum_h Rbar_h V_h = sum_lambda Rbar_lambda V_lambda
                     = sum_l Rbar_l V_l = S.

Passing ``both_orientations=True`` sums the two orientations and returns
the doubled values instead.  Scalar curvatures are genuine double traces,
carry d(d-1) with no extra factor, and have no orientation switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex import Hinge, SimplexId
from .errors import BoundaryElement, BoundaryHinge, ZeroMeasureElement
from .geometry import MetricComplex

TWO_PI = 2.0 * math.pi


def _hinge(m: MetricComplex, h) -> SimplexId:
    """The id of a hinge given as a :class:`SimplexId` or a :class:`Hinge`."""
    if isinstance(h, Hinge):
        h = h.simplex
    if h.dim != m.dim - 2:
        raise ValueError(f"hinges have dimension {m.dim - 2}, got {h.dim}")
    return h


def _deficits(m: MetricComplex) -> np.ndarray:
    """Deficit of every hinge, boundary hinges against pi."""
    bnd = m.complex.is_boundary[m.dim - 2]
    return np.where(bnd, math.pi, TWO_PI) - m.hinge_angle_sums


def deficit(m: MetricComplex, h, *, allow_boundary: bool = False) -> float:
    """Deficit angle 2*pi - sum of dihedral angles around a hinge.

    Boundary hinges have no full angle to compare against; with
    ``allow_boundary`` they get the exterior-angle convention
    pi - sum of angles, otherwise they raise :class:`BoundaryHinge`.
    """
    h = _hinge(m, h)
    total = m.hinge_angle_sums[h.index]
    if m.complex.is_boundary[h.dim][h.index]:
        if not allow_boundary:
            raise BoundaryHinge(f"hinge {m.complex.simplex(h)} lies on the boundary")
        return float(math.pi - total)
    return float(TWO_PI - total)


def sectional(m: MetricComplex, h) -> float:
    """Sectional curvature of the hinge plane: deficit over dual area."""
    h = _hinge(m, h)
    astar = m.dual_volume(h)
    if astar == 0:
        raise ZeroMeasureElement(f"hinge {m.complex.simplex(h)} has zero dual area")
    return deficit(m, h) / astar

def riemann_hinge(
    m: MetricComplex, h, *, normalized: bool = False, both_orientations: bool = False
) -> float:
    """The one nonzero Riemann eigenvalue carried by a hinge.

    The eigenvector is the area form of the (hinge, dual polygon) plane;
    unnormalized values carry the eigenvalue multiplicity C(d, 2) of the
    continuum round sphere, normalized ones are the bare sectional value.
    """
    k = sectional(m, h)
    if not normalized:
        k *= math.comb(m.dim, 2)
    if both_orientations:
        k *= 2.0
    return k


def _convention(value: float, d: int, normalized: bool, both_orientations: bool) -> float:
    if both_orientations:
        value *= 2.0
    return value / d if normalized else value


def _ratio(num: np.ndarray, den: np.ndarray, ok: np.ndarray, factor: float) -> np.ndarray:
    out = np.full(den.shape, np.nan)
    out[ok] = factor * num[ok] / den[ok]
    return out


def _sectionals(m: MetricComplex) -> np.ndarray:
    """Sectional curvature of every hinge; nan on boundary hinges and on
    zero dual areas."""
    astar = m.dual_volumes[m.dim - 2]
    ok = ~m.complex.is_boundary[m.dim - 2] & (astar != 0)
    return _ratio(_deficits(m), astar, ok, 1.0)


def _hybrid_average(m: MetricComplex, kp: int, hinges_of: np.ndarray, factor: float) -> np.ndarray:
    """factor times the average of interior hinge sectional curvatures
    over each kp-simplex, weighted by shared hybrid volumes
    V_{h, s} = D_{d-2}[h] C(d-2, kp)[h, s] U_kp[s] / d!.

    ``hinges_of`` lists the hinges of every kp-simplex.  A simplex is nan
    when it is on the boundary, when its weights sum to zero, or when one
    of its interior hinges has zero dual area; that last test reads the
    incidence table, because a hinge whose shared volume V_{h, s} is zero
    leaves no trace in the weighted sums.
    """
    d = m.dim
    interior = ~m.complex.is_boundary[d - 2]
    up = m._up[kp] / math.factorial(d)
    sec = _sectionals(m)
    num = up * m.chain_apply_t(d - 2, kp, m._down[d - 2] * np.where(np.isnan(sec), 0.0, sec))
    den = up * m.chain_apply_t(d - 2, kp, m._down[d - 2] * interior)
    bad = (interior & (m.dual_volumes[d - 2] == 0))[hinges_of].any(axis=1)
    return _ratio(num, den, ~m.complex.is_boundary[kp] & ~bad & (den != 0), factor)


def _restricted_average(m: MetricComplex, p: int, factor: float) -> np.ndarray:
    """factor times the ratio of the restricted-measure averages of
    deficit and dual area over the hinges containing each interior
    p-simplex; nan on the boundary and where the dual areas average to
    zero.  The restricted measure of a p-face s inside a hinge h is
    |s| C(p, d-2)[s, h] / ((d-2-p)! C(d-2, p))."""
    q = m.dim - 2
    scale = m.volumes[p] / (math.factorial(q - p) * math.comb(q, p))
    den = scale * m.chain_apply(p, q, m.dual_volumes[q])
    num = scale * m.chain_apply(p, q, _deficits(m))
    return _ratio(num, den, ~m.complex.is_boundary[p] & (den != 0), factor)


# Per-element columns, each computed on first use and cached on the
# MetricComplex; the per-element functions below index into them.
_COLUMNS = {
    "dual_edge_ricci": lambda m: _hybrid_average(
        m, m.dim - 1, m.complex.facets[m.dim - 1], math.comb(m.dim, 2)
    ),
    "edge_ricci": lambda m: _restricted_average(m, 1, math.comb(m.dim, 2)),
    "vertex_scalar": lambda m: _restricted_average(m, 0, m.dim * (m.dim - 1)),
    "dual_vertex_scalar": lambda m: _hybrid_average(
        m, m.dim, m.complex.top_hinges, m.dim * (m.dim - 1)
    ),
}


def _column(m: MetricComplex, name: str) -> np.ndarray:
    return m.cached(name, _COLUMNS[name])


def _entry(m: MetricComplex, name: str, i: int, why: str) -> float:
    """One element of a column; nan raises :class:`ZeroMeasureElement`."""
    value = _column(m, name)[i]
    if np.isnan(value):
        raise ZeroMeasureElement(why)
    return float(value)


def ricci_dual_edge(
    m: MetricComplex, face, *, normalized: bool = False, both_orientations: bool = False
) -> float:
    """Ricci curvature along the dual edge of an interior codim-1 face.

    The dual edge crosses the dual polygons of the hinges of its face;
    their sectional curvatures are averaged with shared hybrid volume
    weights V_{h, face} / V_face.  Dimension >= 3 (in dimension 2 dual
    edges pair with edges, not with hinge data).
    """
    d = m.dim
    if d < 3:
        raise ValueError("dual-edge Ricci needs dimension >= 3")
    f = face if isinstance(face, SimplexId) else SimplexId(d - 1, face)
    if f.dim != d - 1:
        raise ValueError(f"expected a {d - 1}-face")
    if m.complex.is_boundary[f.dim][f.index]:
        raise BoundaryElement(
            f"face {m.complex.simplex(f)} lies on the boundary; its dual "
            "edge is clipped"
        )
    value = _entry(
        m, "dual_edge_ricci", f.index,
        f"face {m.complex.simplex(f)} has zero weight or an interior hinge "
        "with zero dual area",
    )
    return _convention(value, d, normalized, both_orientations)


def ricci_simplicial_edge(
    m: MetricComplex, edge, *, normalized: bool = False, both_orientations: bool = False
) -> float:
    """Ricci curvature along an interior simplicial edge.

    Deficits and dual areas of the hinges containing the edge are
    averaged separately with restricted hinge-area weights A_{h,edge}:

        Rbar = C(d,2) <deficit> / <dual area>

    In dimension 3 the only hinge containing an edge is the edge itself
    and the general average collapses to the closed form
    Rbar = C(3,2) deficit / dual area.
    """
    d = m.dim
    if d < 3:
        raise ValueError("edge Ricci needs dimension >= 3")
    ell = edge if isinstance(edge, SimplexId) else SimplexId(1, edge)
    if m.complex.is_boundary[1][ell.index]:
        raise BoundaryElement(
            f"edge {m.complex.simplex(ell)} lies on the boundary"
        )
    value = _entry(
        m, "edge_ricci", ell.index,
        f"edge {m.complex.simplex(ell)} sees zero average dual area",
    )
    return _convention(value, d, normalized, both_orientations)


def scalar_vertex(m: MetricComplex, v, *, lattice: str = "simplicial") -> float:
    """Scalar curvature at a vertex of either lattice.

    Simplicial: d(d-1) times the ratio of the restricted-measure-weighted
    averages of deficit and dual area over the hinges at an interior
    vertex (in dimension 2 the vertex is its own hinge with unit weight).
    Dual: the hybrid-volume average of the hinge scalars d(d-1) deficit /
    dual area over the hinges of the top cell that is the dual vertex.
    """
    d = m.dim
    c = m.complex
    if lattice == "simplicial":
        vid = v if isinstance(v, SimplexId) else SimplexId(0, v)
        if c.is_boundary[0][vid.index]:
            raise BoundaryElement(f"vertex {c.simplex(vid)} lies on the boundary")
        return _entry(
            m, "vertex_scalar", vid.index,
            f"vertex {c.simplex(vid)} sees zero average dual area",
        )
    if lattice == "dual":
        tid = v if isinstance(v, SimplexId) else SimplexId(d, v)
        if tid.dim != d:
            raise ValueError("dual vertices are top cells")
        if c.is_boundary[d - 2][c.top_hinges[tid.index]].all():
            raise BoundaryElement(
                f"top cell {c.simplex(tid)} has no interior hinge"
            )
        return _entry(
            m, "dual_vertex_scalar", tid.index,
            f"top cell {c.simplex(tid)} sees zero hinge weight or an "
            "interior hinge with zero dual area",
        )
    raise ValueError(f"unknown lattice {lattice!r}")


def regge_action(
    m: MetricComplex, *, prefactor: float = 1.0, include_boundary: bool = False
) -> float:
    """Total action sum_h deficit_h |h| over interior hinges.

    With ``include_boundary`` the boundary hinges contribute their
    exterior angles pi - sum of dihedral angles times their areas.  The
    optional prefactor multiplies the sum (default 1); deficits are scale
    invariant, so S scales like length**(d-2).
    """
    dfc = _deficits(m)
    if not include_boundary:
        dfc = np.where(m.complex.is_boundary[m.dim - 2], 0.0, dfc)
    return prefactor * float(dfc @ m.volumes[m.dim - 2])


@dataclass(frozen=True)
class CurvatureReport:
    """All curvature data of one mesh in array form.

    Boundary elements hold nan in columns that are undefined for them
    and are flagged in the matching boolean arrays; ratios that are
    indeterminate because a dual measure vanishes (flat non-well-centered
    meshes) are nan as well.  ``metadata`` records the conventions
    (orientation factor, boundary handling).
    """

    dim: int
    hinge_deficit: np.ndarray
    hinge_sectional: np.ndarray
    hinge_riemann: np.ndarray
    hinge_riemann_normalized: np.ndarray
    hinge_area: np.ndarray
    hinge_dual_area: np.ndarray
    hinge_is_boundary: np.ndarray
    dual_edge_ricci: np.ndarray | None
    dual_edge_ricci_normalized: np.ndarray | None
    face_is_boundary: np.ndarray | None
    edge_ricci: np.ndarray | None
    edge_ricci_normalized: np.ndarray | None
    edge_is_boundary: np.ndarray | None
    vertex_scalar: np.ndarray
    vertex_is_boundary: np.ndarray
    dual_vertex_scalar: np.ndarray
    action: float
    metadata: dict = field(default_factory=dict)

    def target_columns(self, at: str) -> dict[str, np.ndarray]:
        """Column arrays for one reporting target, ready to serialize."""
        if at == "hinges":
            return {
                "deficit": self.hinge_deficit,
                "sectional": self.hinge_sectional,
                "riemann": self.hinge_riemann,
                "riemann_normalized": self.hinge_riemann_normalized,
                "area": self.hinge_area,
                "dual_area": self.hinge_dual_area,
                "is_boundary": self.hinge_is_boundary,
            }
        if at == "dual-edges":
            if self.dual_edge_ricci is None:
                raise ValueError("dual-edge Ricci is undefined in dimension 2")
            return {
                "ricci": self.dual_edge_ricci,
                "ricci_normalized": self.dual_edge_ricci_normalized,
                "is_boundary": self.face_is_boundary,
            }
        if at == "edges":
            if self.edge_ricci is None:
                raise ValueError("edge Ricci is undefined in dimension 2")
            return {
                "ricci": self.edge_ricci,
                "ricci_normalized": self.edge_ricci_normalized,
                "is_boundary": self.edge_is_boundary,
            }
        if at == "vertices":
            return {
                "scalar": self.vertex_scalar,
                "is_boundary": self.vertex_is_boundary,
            }
        if at == "dual-vertices":
            return {"scalar": self.dual_vertex_scalar}
        raise ValueError(f"unknown target {at!r}")


def curvature_report(m: MetricComplex) -> CurvatureReport:
    """Evaluate every curvature quantity on its natural support."""
    d = m.dim
    c = m.complex
    sec = _sectionals(m)
    if d >= 3:
        dric, eric = _column(m, "dual_edge_ricci"), _column(m, "edge_ricci")
        dricn, ericn = dric / d, eric / d
        fb, eb = c.is_boundary[d - 1].copy(), c.is_boundary[1].copy()
    else:
        dric = dricn = fb = eric = ericn = eb = None
    return CurvatureReport(
        dim=d,
        hinge_deficit=_deficits(m),
        hinge_sectional=sec,
        hinge_riemann=math.comb(d, 2) * sec,
        hinge_riemann_normalized=sec.copy(),
        hinge_area=m.volumes[d - 2].copy(),
        hinge_dual_area=m.dual_volumes[d - 2].copy(),
        hinge_is_boundary=c.is_boundary[d - 2].copy(),
        dual_edge_ricci=dric,
        dual_edge_ricci_normalized=dricn,
        face_is_boundary=fb,
        edge_ricci=eric,
        edge_ricci_normalized=ericn,
        edge_is_boundary=eb,
        vertex_scalar=_column(m, "vertex_scalar"),
        vertex_is_boundary=c.is_boundary[0].copy(),
        dual_vertex_scalar=_column(m, "dual_vertex_scalar"),
        action=regge_action(m),
        metadata={
            "orientation_factor": 2.0,
            "orientation_note": (
                "values use one orientation per hinge plane; multiply "
                "Riemann/Ricci by orientation_factor for the sum over "
                "both orientations"
            ),
            "boundary": "boundary elements excluded (nan) and flagged",
        },
    )
