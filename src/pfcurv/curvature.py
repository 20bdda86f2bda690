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
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .complex import SimplexId
from .errors import BoundaryElement, BoundaryHinge, ZeroMeasureElement
from .geometry import MetricComplex

TWO_PI = 2.0 * math.pi
ORIENTATION_FACTOR = 2.0
TARGETS = ("hinges", "dual-edges", "edges", "vertices", "dual-vertices")


class Column(NamedTuple):
    """One report column, a scalar or an array.

    A Riemann or Ricci column also holds its normalized twin and carries
    the orientation factor; every other column has neither.
    """

    values: np.ndarray
    normalized: np.ndarray | None = None

    def label(self, name: str, normalized: bool = False) -> str:
        """The column's name under the normalization switch."""
        return f"{name}_normalized" if normalized and self.normalized is not None else name

    def view(self, normalized: bool = False, both_orientations: bool = False):
        """The column's values under the two switches."""
        if self.normalized is None:
            return self.values
        value = self.normalized if normalized else self.values
        return ORIENTATION_FACTOR * value if both_orientations else value


def _riemann(sec, d: int) -> Column:
    """Riemann eigenvalues C(d, 2) sectional; normalized, the sectional."""
    return Column(math.comb(d, 2) * sec, sec)


def _ricci(ric, d: int) -> Column:
    """Ricci values; normalized, divided by d."""
    return Column(ric, ric / d)


def _hinge(m: MetricComplex, h: SimplexId) -> SimplexId:
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
    return _riemann(sectional(m, h), m.dim).view(normalized, both_orientations)


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


# The Ricci or scalar column of every target but the hinges, computed on
# first use and cached on the MetricComplex; the per-element functions
# below index into them.
_COLUMNS = {
    "dual-edges": lambda m: _hybrid_average(
        m, m.dim - 1, m.complex.facets[m.dim - 1], math.comb(m.dim, 2)
    ),
    "edges": lambda m: _restricted_average(m, 1, math.comb(m.dim, 2)),
    "vertices": lambda m: _restricted_average(m, 0, m.dim * (m.dim - 1)),
    "dual-vertices": lambda m: _hybrid_average(
        m, m.dim, m.complex.top_hinges, m.dim * (m.dim - 1)
    ),
}


def _column(m: MetricComplex, name: str) -> np.ndarray:
    return m.cached(name, _COLUMNS[name])


def _entry(m: MetricComplex, name: str, s, k: int, noun: str, bnd, why: tuple[str, str]) -> float:
    """Entry of the cached column ``name`` at the k-simplex ``s`` (an
    index or a :class:`SimplexId`); raises :class:`BoundaryElement` where
    ``bnd`` flags it and :class:`ZeroMeasureElement` where the column is
    nan, with ``why`` ending the two messages."""
    s = s if isinstance(s, SimplexId) else SimplexId(k, s)
    if s.dim != k:
        raise ValueError(f"expected a {k}-simplex, got dimension {s.dim}")
    where = f"{noun} {m.complex.simplex(s)}"
    if bnd[s.index]:
        raise BoundaryElement(f"{where} {why[0]}")
    value = _column(m, name)[s.index]
    if np.isnan(value):
        raise ZeroMeasureElement(f"{where} {why[1]}")
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
    value = _entry(m, "dual-edges", face, d - 1, "face", m.complex.is_boundary[d - 1], (
        "lies on the boundary; its dual edge is clipped",
        "has zero weight or an interior hinge with zero dual area",
    ))
    return _ricci(value, d).view(normalized, both_orientations)


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
    value = _entry(m, "edges", edge, 1, "edge", m.complex.is_boundary[1], (
        "lies on the boundary", "sees zero average dual area",
    ))
    return _ricci(value, d).view(normalized, both_orientations)


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
        return _entry(m, "vertices", v, 0, "vertex", c.is_boundary[0], (
            "lies on the boundary", "sees zero average dual area",
        ))
    if lattice == "dual":
        lonely = m.cached("no_interior_hinge", lambda m: c.is_boundary[d - 2][c.top_hinges].all(axis=1))
        return _entry(m, "dual-vertices", v, d, "top cell", lonely, (
            "has no interior hinge",
            "sees zero hinge weight or an interior hinge with zero dual area",
        ))
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


def target_columns(m: MetricComplex, at: str) -> tuple[int, dict[str, Column]]:
    """The carrier dimension and the columns of one report target, one
    row per carrier simplex; only this target's columns are computed.

    Boundary elements hold nan in columns that are undefined for them,
    and so do ratios whose dual measure vanishes.
    """
    d = m.dim
    c = m.complex
    if d == 2 and at in ("dual-edges", "edges"):
        raise ValueError(f"target {at!r} needs dimension >= 3 (mesh has d=2)")
    if at == "hinges":
        sec = _sectionals(m)
        return d - 2, {
            "deficit": Column(_deficits(m)),
            "sectional": Column(sec),
            "riemann": _riemann(sec, d),
            "area": Column(m.volumes[d - 2]),
            "dual_area": Column(m.dual_volumes[d - 2]),
            "is_boundary": Column(c.is_boundary[d - 2]),
        }
    kp = {"dual-edges": d - 1, "edges": 1, "vertices": 0, "dual-vertices": d}.get(at)
    if kp is None:
        raise ValueError(f"unknown target {at!r}")
    # edges carry Ricci, vertices the scalar; dual vertices have no flag
    values = _column(m, at)
    cols = {"ricci": _ricci(values, d)} if at.endswith("edges") else {"scalar": Column(values)}
    if at != "dual-vertices":
        cols["is_boundary"] = Column(c.is_boundary[kp])
    return kp, cols


def _at(target: str, column: str):
    """A report field that holds one column of one target."""
    return field(metadata={"target": target, "column": column})


@dataclass(frozen=True)
class CurvatureReport:
    """All curvature data of one mesh in array form: the columns of every
    target of :func:`target_columns`, with each normalized twin as a
    field of its own.

    Edge-target fields are None in dimension 2.  ``metadata`` records the
    conventions (orientation factor, boundary handling).
    """

    dim: int
    hinge_deficit: np.ndarray = _at("hinges", "deficit")
    hinge_sectional: np.ndarray = _at("hinges", "sectional")
    hinge_riemann: np.ndarray = _at("hinges", "riemann")
    hinge_riemann_normalized: np.ndarray = _at("hinges", "riemann_normalized")
    hinge_area: np.ndarray = _at("hinges", "area")
    hinge_dual_area: np.ndarray = _at("hinges", "dual_area")
    hinge_is_boundary: np.ndarray = _at("hinges", "is_boundary")
    dual_edge_ricci: np.ndarray | None = _at("dual-edges", "ricci")
    dual_edge_ricci_normalized: np.ndarray | None = _at("dual-edges", "ricci_normalized")
    face_is_boundary: np.ndarray | None = _at("dual-edges", "is_boundary")
    edge_ricci: np.ndarray | None = _at("edges", "ricci")
    edge_ricci_normalized: np.ndarray | None = _at("edges", "ricci_normalized")
    edge_is_boundary: np.ndarray | None = _at("edges", "is_boundary")
    vertex_scalar: np.ndarray = _at("vertices", "scalar")
    vertex_is_boundary: np.ndarray = _at("vertices", "is_boundary")
    dual_vertex_scalar: np.ndarray = _at("dual-vertices", "scalar")
    action: float
    metadata: dict = field(default_factory=dict)

    def target_columns(self, at: str) -> dict[str, np.ndarray]:
        """Column arrays for one reporting target, ready to serialize."""
        cols = {
            f.metadata["column"]: getattr(self, f.name)
            for f in fields(self) if f.metadata.get("target") == at
        }
        if not cols:
            raise ValueError(f"unknown target {at!r}")
        if any(v is None for v in cols.values()):
            raise ValueError(f"target {at!r} needs dimension >= 3 (mesh has d={self.dim})")
        return cols


def curvature_report(m: MetricComplex) -> CurvatureReport:
    """Evaluate every curvature quantity on its natural support."""
    d = m.dim
    values = {}
    for at in TARGETS if d >= 3 else ("hinges", "vertices", "dual-vertices"):
        for name, col in target_columns(m, at)[1].items():
            values[at, name] = col.values
            if col.normalized is not None:
                values[at, col.label(name, True)] = col.normalized
    return CurvatureReport(
        dim=d,
        action=regge_action(m),
        metadata={
            "orientation_factor": ORIENTATION_FACTOR,
            "orientation_note": (
                "values use one orientation per hinge plane; multiply "
                "Riemann/Ricci by orientation_factor for the sum over "
                "both orientations"
            ),
            "boundary": "boundary elements excluded (nan) and flagged",
        },
        **{
            f.name: values.get((f.metadata["target"], f.metadata["column"]))
            for f in fields(CurvatureReport) if f.metadata
        },
    )
