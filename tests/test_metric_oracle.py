"""The roundoff budget of the metric kernel against a 40-digit oracle.

Volumes, circumcenter barycentrics, squared circumradii (every k >= 2)
and top-cell dihedral angles are compared with ``oracles.mp_metric``,
which works from bordered Cayley-Menger matrices and shares no code with
the Gram factor.  Each bound, in units of float64 epsilon, is 1.5 times
the error of the (n, k, k) kernel that preceded the component-plane one,
measured on the same mesh; the Delaunay mesh has slivers, so its
barycentric error is large in absolute terms and its bound with it.
"""

import warnings

import numpy as np
import pytest

import oracles
from pfcurv import NonWellCenteredWarning, gen_flat_grid, perturb_lengths

pytest.importorskip("mpmath")

EPS = np.finfo(np.float64).eps

MESHES = {
    "perturbed grid4 n=1": lambda: perturb_lengths(gen_flat_grid(4, 1), 0.05, seed=2),
    "perturbed grid3 n=3": lambda: perturb_lengths(gen_flat_grid(3, 3), 0.05, seed=0),
    "delaunay 3d": lambda: oracles.random_delaunay(3, 24, 1),
}

# (worst, mean) error per column, in EPS: relative for volume and
# circumradius_sq, the per-simplex largest absolute error for barycentric
# and the absolute error in radians for dihedral
BOUNDS = {
    "perturbed grid4 n=1": {
        "volume": (7.3, 1.26),
        "barycentric": (5.23, 1.33),
        "circumradius_sq": (2.29, 0.44),
        "dihedral": (9.0, 2.14),
    },
    "perturbed grid3 n=3": {
        "volume": (4.44, 0.87),
        "barycentric": (5.25, 1.01),
        "circumradius_sq": (2.91, 0.46),
        "dihedral": (6.0, 1.15),
    },
    "delaunay 3d": {
        "volume": (1466.64, 14.25),
        "barycentric": (763392.0, 3734.68),
        "circumradius_sq": (2828.5, 23.52),
        "dihedral": (105.47, 4.97),
    },
}


def metric_errors(m, exact) -> dict[str, np.ndarray]:
    """Each column's error against ``oracles.mp_metric`` output, in EPS."""
    ks = range(2, m.dim + 1)

    def rel(got, want):
        return np.abs(got - want) / want

    return {
        "volume": np.concatenate([rel(m.volumes[k], exact["volume"][k]) for k in ks]) / EPS,
        "barycentric": np.concatenate([
            np.abs(m.barycentric[k] - exact["barycentric"][k]).max(axis=1) for k in ks
        ]) / EPS,
        "circumradius_sq": np.concatenate([
            rel(m.circumradius_sq[k], exact["circumradius_sq"][k]) for k in ks
        ]) / EPS,
        "dihedral": np.abs(m.dihedral_angles - exact["dihedral"]).ravel() / EPS,
    }


@pytest.fixture(scope="module", params=list(MESHES))
def measured(request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonWellCenteredWarning)
        m = MESHES[request.param]()
    return request.param, metric_errors(m, oracles.mp_metric(m, dps=40))


@pytest.mark.parametrize("column", ["volume", "barycentric", "circumradius_sq", "dihedral"])
def test_error_within_budget(measured, column):
    name, errors = measured
    worst, mean = BOUNDS[name][column]
    err = errors[column]
    assert err.max() <= worst, f"{name} {column}: worst {err.max():.3g} eps > {worst}"
    assert err.mean() <= mean, f"{name} {column}: mean {err.mean():.3g} eps > {mean}"


def test_oracle_closed_forms():
    # the regular 4-simplex of unit edges: vol = sqrt(5) / 96, R^2 = 2 / 5,
    # the circumcenter at the centroid and every dihedral angle acos(1 / 4)
    from pfcurv import MetricComplex, build_complex

    c = build_complex(4, [(0, 1, 2, 3, 4)])
    exact = oracles.mp_metric(MetricComplex(c, np.ones(10)))
    assert exact["volume"][4] == pytest.approx([5**0.5 / 96], rel=1e-15)
    assert exact["circumradius_sq"][4] == pytest.approx([0.4], rel=1e-15)
    assert exact["barycentric"][4] == pytest.approx(np.full((1, 5), 0.2), rel=1e-15)
    assert exact["dihedral"] == pytest.approx(np.full((1, 10), np.arccos(0.25)), rel=1e-15)
