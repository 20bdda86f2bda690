"""Self-check suites: structural identities any valid mesh must satisfy.

Each check compares two independently computed quantities and reports
the worst relative residual against a fixed tolerance.  The CLI `check`
subcommand prints the results; the test suite reuses them directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curvature import regge_action, target_columns
from .dec import DUAL, SIMPLICIAL, Cochain, coderivative, exterior_derivative, hodge, l2_inner_product, transfer_density
from .errors import UnsupportedRequest, ZeroMeasureElement
from .geometry import MetricComplex


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _rel(diff: np.ndarray, scale: float) -> float:
    return float(np.max(np.abs(diff))) / max(scale, 1e-300)


def volume_checks(m: MetricComplex) -> list[CheckResult]:
    d = m.dim
    out = []
    total = float(m.volumes[d].sum())
    for k in range(d + 1):
        hyb = m.hybrid_volumes[k]
        out.append(
            CheckResult(f"volume partition k={k}", abs(hyb.sum() - total) / total, 1e-9)
        )
        flags = m._down[k] * m._up[k] / math.factorial(d)
        out.append(
            CheckResult(
                f"hybrid two-path k={k}",
                _rel(hyb - flags, float(np.abs(hyb).max())),
                1e-10,
            )
        )
    # elevation magnitude against the circumradius Pythagoras relation
    worst = 0.0
    for k in range(1, d + 1):
        r2 = m.circumradius_sq[k][:, None] - m.circumradius_sq[k - 1][m.complex.facets[k]]
        diff = m._elev[k] ** 2 - r2
        worst = max(worst, _rel(diff, float(m.circumradius_sq[k].max())))
    out.append(CheckResult("elevation pythagoras", worst, 1e-10))
    if d >= 3:
        # restricted hinge areas |e| C(1, d-2)[e, h] / (d-2)!: the shares of
        # the edges of a hinge sum to its area, and each edge's shares,
        # weighted by dual areas, rebuild its hybrid volume
        scale = m.volumes[1] / math.factorial(d - 2)
        area = m.volumes[d - 2]
        worst = float(np.max(np.abs(m.chain_apply_t(1, d - 2, scale) - area) / area))
        out.append(CheckResult("hinge area partition", worst, 1e-12))
        hyb = m.hybrid_volumes[1]
        acc = scale * m.chain_apply(1, d - 2, m.dual_volumes[d - 2]) / math.comb(d, 2)
        worst = _rel(hyb - acc, float(np.abs(hyb).max()))
        out.append(CheckResult("edge volume decomposition", worst, 1e-10))
    return out


def dec_checks(m: MetricComplex, *, seed: int = 0, samples: int = 20) -> list[CheckResult]:
    d = m.dim
    c = m.complex
    rng = np.random.default_rng(seed)
    out = []
    if d >= 2:  # d after d lands in degree k + 2 <= d
        for lattice in (SIMPLICIAL, DUAL):
            worst = 0
            for k in range(d - 1):
                kp = k if lattice == SIMPLICIAL else d - k
                n = c.n_simplices(kp)
                w = Cochain(m, lattice, k, rng.integers(-9, 10, size=n))
                dd = exterior_derivative(exterior_derivative(w))
                worst = max(worst, int(np.abs(dd.values).max()) if dd.values.size else 0)
            out.append(CheckResult(f"d after d vanishes ({lattice})", float(worst), 0.0))
    try:
        worst = 0.0
        for lattice in (SIMPLICIAL, DUAL):
            for k in range(d):
                kp = k if lattice == SIMPLICIAL else d - k
                n1 = c.n_simplices(kp)
                n2 = c.n_simplices(kp + 1 if lattice == SIMPLICIAL else kp - 1)
                # one row per sample, its a then its b: the numbers that
                # drawing a and b sample by sample would give
                ab = rng.standard_normal((samples, n1 + n2))
                a = Cochain(m, lattice, k, ab[:, :n1])
                b = Cochain(m, lattice, k + 1, ab[:, n1:])
                lhs = l2_inner_product(exterior_derivative(a), b)
                rhs = l2_inner_product(a, coderivative(b))
                scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
                worst = max(worst, float((np.abs(lhs - rhs) / scale).max()))
        out.append(CheckResult("measured adjointness", worst, 1e-10))
    except ZeroMeasureElement:
        pass  # zero dual measures block densities; nothing to check
    try:
        worst = 0.0
        dens_worst = 0.0
        for k in range(d + 1):
            n = c.n_simplices(k)
            w = Cochain(m, SIMPLICIAL, k, rng.standard_normal(n))
            star = hodge(w)
            back = hodge(star)
            scale = float(np.abs(w.values).max())
            worst = max(worst, _rel(back.values - w.values, scale))
            dens_worst = max(
                dens_worst,
                _rel(star.densities() - w.densities(), float(np.abs(w.densities()).max())),
            )
        out.append(CheckResult("hodge round trip", worst, 1e-13))
        out.append(CheckResult("hodge density preservation", dens_worst, 1e-13))
    except ZeroMeasureElement:
        pass
    if d < 2:  # no transfer between the lattices in d=1
        return out
    try:
        n = c.n_simplices(d - 1)
        w = Cochain(m, DUAL, 1, rng.standard_normal(n))
        t = transfer_density(w, SIMPLICIAL)
        tot_in = float((w.densities() * w.hybrid_volumes()).sum())
        tot_out = float((t.densities() * t.hybrid_volumes()).sum())
        out.append(
            CheckResult(
                "transfer measure conservation",
                abs(tot_in - tot_out) / max(abs(tot_in), 1e-300),
                1e-12,
            )
        )
    except ZeroMeasureElement:
        pass
    return out


def _projection_law(m: MetricComplex) -> float:
    """Worst residual of |F_i| = sum_{j != i} |F_j| cos theta_ij over the
    facets F_i of every top cell, relative to the cell's largest facet.

    Facet volumes come from the pivots of each facet's own Gram factor and
    the angles from solves with the cell's factor, so the two sides come
    from separate factorizations.
    """
    d = m.dim
    F = m.volumes[d - 1][m.complex.facets[d]]
    i, j = np.array(list(itertools.combinations(range(d + 1), 2))).T
    cos = np.zeros((F.shape[0], d + 1, d + 1))
    cos[:, i, j] = cos[:, j, i] = np.cos(m.dihedral_angles)
    resid = np.einsum("nij,nj->ni", cos, F) - F
    return float((np.abs(resid).max(axis=1) / F.max(axis=1)).max())


def curvature_checks(m: MetricComplex) -> list[CheckResult]:
    d = m.dim
    c = m.complex
    if d < 2:
        raise UnsupportedRequest("curvature checks need dimension >= 2")
    out = []
    bnd = c.is_boundary[d - 2]
    closed = not bnd.any()
    if d == 2 and closed:
        # the builtin sum() adds in element order, which fixes the last
        # digits of this residual and of the action sums below
        total = sum(target_columns(m, "hinges")[1]["deficit"].values.tolist())
        target = 2.0 * math.pi * c.euler_characteristic()
        out.append(CheckResult("gauss-bonnet", abs(total - target), 1e-9))
    out.append(CheckResult("facet projection law", _projection_law(m), 1e-12))
    S = regge_action(m)
    if d >= 3 and closed:
        # the volume-weighted Riemann and Ricci columns telescope to the
        # action; a nan (a zero dual area) leaves nothing to compare
        terms = []
        for at, name in (("hinges", "riemann"), ("dual-edges", "ricci"), ("edges", "ricci")):
            k, cols = target_columns(m, at)
            terms.append(cols[name].values * m.hybrid_volumes[k])
        if not any(np.isnan(t).any() for t in terms):
            worst = max(abs(sum(t.tolist()) - S) for t in terms) / max(abs(S), 1e-300)
            out.append(CheckResult("action conservation across lattices", worst, 1e-10))
    # scale covariance: lengths times sqrt(3), deficits invariant and
    # S ~ s**(d-2); the Gram kernel rescales by powers of two exactly, so a
    # factor of 4 would compare bit-identical numbers
    m2 = MetricComplex(c, 3.0 * m.edge_lengths_sq)
    drift = np.abs(m2.hinge_angle_sums - m.hinge_angle_sums)[~bnd]
    out.append(CheckResult("deficit scale invariance", float(drift.max(initial=0.0)), 1e-12))
    if abs(S) > 1e-9:
        rel = abs(regge_action(m2) - math.sqrt(3.0) ** (d - 2) * S) / abs(S)
        out.append(CheckResult("action scale covariance", rel, 1e-10))
    return out


SUITES = {
    "volumes": volume_checks,
    "dec": dec_checks,
    "curvature": curvature_checks,
}


def run_suite(m: MetricComplex, name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(m))
        return out
    return SUITES[name](m)
