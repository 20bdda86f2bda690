"""Cochains and discrete exterior calculus over the hybrid measure.

A cochain stores one integrated value per element of either lattice.
Dual k-elements are indexed by their simplicial (d-k)-partners, so both
lattices share the simplicial skeleton tables.

The L2 pairing weights densities (value / element measure) by hybrid
volumes:

    <a, b> = sum_s density_a(s) density_b(s) V_s

The exterior derivative is purely combinatorial (signed incidence sums,
Stokes); the coderivative is its exact adjoint under the pairing above,
which fixes both its sign convention and its volume weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedPair, ZeroMeasureElement
from .geometry import MetricComplex

SIMPLICIAL = "simplicial"
DUAL = "dual"


@dataclass(frozen=True)
class Cochain:
    """Integrated values over the k-elements of one lattice.

    ``values[i]`` is the pairing of the cochain with element i, where
    dual elements are enumerated by their simplicial partners of
    dimension d - k.
    """

    metric: MetricComplex
    lattice: str
    degree: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.lattice not in (SIMPLICIAL, DUAL):
            raise ValueError(f"unknown lattice {self.lattice!r}")
        d = self.metric.dim
        if not 0 <= self.degree <= d:
            raise ValueError(f"degree {self.degree} outside 0..{d}")
        # integer dtypes are kept so combinatorial identities stay exact
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.values.shape != (self.n_elements,):
            raise ValueError(
                f"expected {self.n_elements} values for degree {self.degree} "
                f"on the {self.lattice} lattice, got {self.values.shape}"
            )

    @property
    def partner_dim(self) -> int:
        """Dimension of the indexing simplicial skeleton."""
        d = self.metric.dim
        return self.degree if self.lattice == SIMPLICIAL else d - self.degree

    @property
    def n_elements(self) -> int:
        return self.metric.complex.n_simplices(self.partner_dim)

    def element_measures(self) -> np.ndarray:
        """|s| for simplicial cochains, the signed |*s| for dual ones."""
        if self.lattice == SIMPLICIAL:
            return self.metric.volumes[self.partner_dim]
        return self.metric.dual_volumes[self.partner_dim]

    def hybrid_volumes(self) -> np.ndarray:
        """V_s of the supporting elements (shared by s and *s)."""
        return self.metric.hybrid_volumes[self.partner_dim]

    def densities(self) -> np.ndarray:
        """Pointwise values: integrated values over element measures."""
        meas = self.element_measures()
        if (np.abs(meas) <= 0).any():
            raise ZeroMeasureElement(
                f"zero-measure element in degree {self.degree} on the "
                f"{self.lattice} lattice"
            )
        return np.asarray(self.values, dtype=np.float64) / meas


def hodge(w: Cochain) -> Cochain:
    """Diagonal Hodge star: preserves densities across the two lattices,
    <*w, *s> = (|*s| / |s|) <w, s>; the dual-to-primal direction inverts
    it, so the round trip reproduces values to roundoff."""
    m = w.metric
    k = w.partner_dim
    vol = m.volumes[k]
    dual = m.dual_volumes[k]
    if w.lattice == SIMPLICIAL:
        if (np.abs(vol) <= 0).any():
            raise ZeroMeasureElement("zero simplex measure")
        out = np.asarray(w.values, dtype=np.float64) * dual / vol
        return Cochain(m, DUAL, m.dim - w.degree, out)
    if (np.abs(dual) <= 0).any():
        raise ZeroMeasureElement(
            f"dual cell of a {k}-simplex has zero measure; Hodge star "
            "is not invertible on this mesh"
        )
    out = np.asarray(w.values, dtype=np.float64) * vol / dual
    return Cochain(m, SIMPLICIAL, m.dim - w.degree, out)


def exterior_derivative(w: Cochain) -> Cochain:
    """Signed incidence sum (Stokes): the value on each (k+1)-element is
    the signed sum of values on its boundary k-elements.

    On the dual lattice the boundary of the dual cell *s consists of the
    *t for the simplexes t that have s as a facet, with the transposed
    simplicial signs; d composes to zero exactly on both lattices.
    """
    m = w.metric
    d = m.dim
    if w.degree >= d:
        raise ValueError("exterior derivative of a top-degree cochain")
    c = m.complex
    if w.lattice == SIMPLICIAL:
        return Cochain(m, SIMPLICIAL, w.degree + 1, c.gather(w.degree + 1, w.values))
    return Cochain(m, DUAL, w.degree + 1, c.scatter(w.partner_dim, w.values))


def _adjoint_weights(w: Cochain, k: int, *, inverted: bool = False) -> np.ndarray:
    """Diagonal weights V_s / |s|^2 of the L2 pairing in degree k.

    A zero hybrid volume only annihilates that input component, so it is
    legal on the forward side; weights that get inverted must not vanish.
    """
    m = w.metric
    kp = k if w.lattice == SIMPLICIAL else m.dim - k
    V = m.hybrid_volumes[kp]
    meas = m.volumes[kp] if w.lattice == SIMPLICIAL else m.dual_volumes[kp]
    if inverted and ((meas == 0).any() or (V == 0).any()):
        raise ZeroMeasureElement(
            f"zero measure in degree {k} blocks the measured adjoint"
        )
    safe = np.where(meas == 0.0, 1.0, meas)
    return np.where(meas == 0.0, 0.0, V / safe**2)


def coderivative(w: Cochain) -> Cochain:
    """Hybrid-measure adjoint of :func:`exterior_derivative`:

        <d a, b> = <a, delta b>

    holds exactly for the L2 pairing, which fixes the incidence signs and
    the hybrid-volume weights; delta composes to zero like d."""
    m = w.metric
    if w.degree <= 0:
        raise ValueError("coderivative of a degree-0 cochain")
    w_in = _adjoint_weights(w, w.degree)
    w_out = _adjoint_weights(w, w.degree - 1, inverted=True)
    vals = np.asarray(w.values, dtype=np.float64) * w_in
    c = m.complex
    if w.lattice == SIMPLICIAL:
        return Cochain(m, SIMPLICIAL, w.degree - 1, c.scatter(w.degree, vals) / w_out)
    return Cochain(m, DUAL, w.degree - 1, c.gather(w.partner_dim + 1, vals) / w_out)


def laplacian(w: Cochain) -> Cochain:
    """Convenience composition d delta + delta d (ends handled)."""
    d = w.metric.dim
    out = None
    if w.degree < d:
        out = coderivative(exterior_derivative(w))
    if w.degree > 0:
        up = exterior_derivative(coderivative(w))
        out = up if out is None else Cochain(
            w.metric, w.lattice, w.degree, out.values + up.values
        )
    return out


def l2_measure(w: Cochain, index: int) -> float:
    """L2 measure of ``w`` over one element: density times hybrid volume,
    equal to <w, s> |*s| / C(d, k) on the simplicial lattice."""
    dens = w.densities()
    return float(dens[index] * w.hybrid_volumes()[index])


def l2_inner_product(a: Cochain, b: Cochain) -> float:
    """Hybrid-measure pairing of two cochains on the same skeleton."""
    if a.lattice != b.lattice or a.degree != b.degree or a.metric is not b.metric:
        raise ValueError("cochains live on different skeletons")
    return float((a.densities() * b.densities() * a.hybrid_volumes()).sum())


def transfer_density(w: Cochain, target_lattice: str, target_degree: int = 1) -> Cochain:
    """Move a degree-1 cochain across the lattices, averaging densities
    with shared hybrid volumes:

        density_out(s) = sum_t density_in(t) V_{t s} / V_s

    summed over the incident partners t; the total L2 measure is
    preserved.  Only the two degree-1 directions, in d >= 2, are supported."""
    m = w.metric
    d = m.dim
    pair = (w.lattice, w.degree, target_lattice, target_degree)
    if d < 2 or pair not in ((DUAL, 1, SIMPLICIAL, 1), (SIMPLICIAL, 1, DUAL, 1)):
        raise UnsupportedPair(
            f"transfer from ({w.lattice}, {w.degree}) to "
            f"({target_lattice}, {target_degree}) is not supported in d={d}"
        )
    # V_{t s} = D_1[t] C(1, d-1)[t, s] U_{d-1}[s] / d! for an edge t and
    # a face s
    dens_in = w.densities()
    down, up = m._down[1], m._up[d - 1] / math.factorial(d)
    if target_lattice == SIMPLICIAL:
        # dual edges (faces of dim d-1) onto simplicial edges
        V_out = m.hybrid_volumes[1]
        acc = down * m.chain_apply(1, d - 1, up * dens_in)
        meas, what = m.volumes[1], "edge"
    else:
        V_out = m.hybrid_volumes[d - 1]
        acc = up * m.chain_apply_t(1, d - 1, down * dens_in)
        meas, what = m.dual_volumes[d - 1], "face"
    zero = np.nonzero(V_out == 0)[0]
    if zero.size:
        raise ZeroMeasureElement(f"{what} {zero[0]} has zero hybrid volume")
    return Cochain(m, target_lattice, 1, acc / V_out * meas)
