"""Correctness gates for benchmark ops, computed outside the timed region.

Each gate tests an identity that holds for every seed, using numpy
computations written here from the squared lengths in the input files,
not pfcurv's own code paths:

- Gauss-Bonnet on closed surfaces (total deficit 4*pi, chi = 2);
- vertex dual areas by the cotangent formula, for ``volumes`` and
  ``hodge`` output on the icosphere;
- the Regge action from batched inverse-Gram dihedral angles;
- skeleton sizes from the top cells, for report row counts;
- sectional * dual_area = deficit on every hinge row of a report.

A gate returns ``None`` when the output is correct and a short reason
otherwise.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
ACTION_RTOL = 1e-9
TABLE_RTOL = 1e-9
HINGE_RTOL = 1e-12


class Mesh:
    """Cells and squared lengths of a mesh file, read with plain json."""

    def __init__(self, path: str):
        with open(path) as f:
            doc = json.load(f)
        self.dim = doc["dimension"]
        self.cells = np.sort(np.asarray(doc["cells"], dtype=np.int64), axis=1)
        edges = np.sort(np.asarray([e["v"] for e in doc["edge_lengths_sq"]], dtype=np.int64), axis=1)
        self.l2 = np.asarray([e["L2"] for e in doc["edge_lengths_sq"]], dtype=np.float64)
        self._n = int(self.cells.max()) + 1
        keys = edges[:, 0] * self._n + edges[:, 1]
        self._order = np.argsort(keys)
        self._keys = keys[self._order]

    def edge_slots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Positions in the file's edge list of the edges {a, b}."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        pos = np.searchsorted(self._keys, lo * self._n + hi)
        return self._order[pos]

    def skeleton_sizes(self) -> list[int]:
        d = self.dim
        sizes = []
        for k in range(d + 1):
            combos = np.array(list(itertools.combinations(range(d + 1), k + 1)))
            faces = self.cells[:, combos].reshape(-1, k + 1)
            sizes.append(len(np.unique(faces, axis=0)))
        return sizes

    def simplex_l2(self, simplices: np.ndarray, l2: np.ndarray) -> np.ndarray:
        """Pairwise squared lengths, shape (n, k+1, k+1)."""
        n, kp1 = simplices.shape
        D2 = np.zeros((n, kp1, kp1))
        for i, j in itertools.combinations(range(kp1), 2):
            D2[:, i, j] = D2[:, j, i] = l2[self.edge_slots(simplices[:, i], simplices[:, j])]
        return D2


def _volumes(D2: np.ndarray) -> np.ndarray:
    """k-volumes from pairwise squared lengths via the Gram determinant."""
    k = D2.shape[1] - 1
    if k == 0:
        return np.ones(D2.shape[0])
    G = (D2[:, :1, 1:] + D2[:, 1:, :1] - D2[:, 1:, 1:]) / 2.0
    return np.sqrt(np.linalg.det(G)) / math.factorial(k)


def hinge_angle_sums(mesh: Mesh, l2: np.ndarray):
    """Distinct hinges, their volumes and the sum of dihedral angles of
    the top cells around each, from batched inverse Gram matrices.

    With P = [-1^T; I] and M = P G^-1 P^T, the dihedral angle at the
    hinge opposite vertices i and j is arccos(-M_ij / sqrt(M_ii M_jj)).
    """
    d = mesh.dim
    cells = mesh.cells
    D2 = mesh.simplex_l2(cells, l2)
    G = (D2[:, :1, 1:] + D2[:, 1:, :1] - D2[:, 1:, 1:]) / 2.0
    P = np.vstack([-np.ones((1, d)), np.eye(d)])
    M = P @ np.linalg.inv(G) @ P.T
    pairs = list(itertools.combinations(range(d + 1), 2))
    i, j = np.array(pairs).T
    cos = -M[:, i, j] / np.sqrt(M[:, i, i] * M[:, j, j])
    angles = np.arccos(np.clip(cos, -1.0, 1.0)).ravel()
    rest = np.array([[v for v in range(d + 1) if v not in p] for p in pairs])
    hinge_verts = cells[:, rest].reshape(-1, d - 1)
    hinges, inverse = np.unique(hinge_verts, axis=0, return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights=angles, minlength=len(hinges))
    return hinges, _volumes(mesh.simplex_l2(hinges, l2)), sums


def regge_action(mesh: Mesh, l2: np.ndarray) -> tuple[float, float]:
    """Action of a closed mesh and the sum of |deficit| * |hinge|."""
    _, vol, sums = hinge_angle_sums(mesh, l2)
    deficit = TWO_PI - sums
    return float((deficit * vol).sum()), float((np.abs(deficit) * vol).sum())


def gate_action(value: float, mesh: Mesh, l2: np.ndarray) -> str | None:
    ref, scale = regge_action(mesh, l2)
    if not abs(value - ref) <= ACTION_RTOL * max(abs(ref), 1e-3 * scale):
        return f"action {value!r} differs from the reference {ref!r}"
    return None


def vertex_dual_areas(mesh: Mesh) -> np.ndarray:
    """Circumcentric dual area of each vertex of a surface (cotangent rule):
    a triangle gives its vertex i the area (l_ij^2 cot k + l_ik^2 cot j) / 8."""
    cells = mesh.cells
    D2 = mesh.simplex_l2(cells, mesh.l2)
    area = _volumes(D2)
    out = np.zeros(mesh._n)  # indexed by vertex id
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        # cot of the angle at k: (l_ki^2 + l_kj^2 - l_ij^2) / (4 area)
        cot_k = (D2[:, k, i] + D2[:, k, j] - D2[:, i, j]) / (4.0 * area)
        cot_j = (D2[:, j, i] + D2[:, j, k] - D2[:, i, k]) / (4.0 * area)
        np.add.at(out, cells[:, i], (D2[:, i, j] * cot_k + D2[:, i, k] * cot_j) / 8.0)
    return out


def _close(a, b, rtol: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b).max()))


# -- cli-surface ---------------------------------------------------------


def gate_info(stdout: str, mesh: Mesh) -> str | None:
    first = stdout.splitlines()[0] if stdout else ""
    fields = dict(p.split("=", 1) for p in first.split() if "=" in p)
    if fields.get("χ") != "2":
        return f"info reports {first!r}, expected chi=2"
    counts = [int(fields.get(k, -1)) for k in ("V", "E", "F")]
    if counts != mesh.skeleton_sizes():
        return f"info counts {counts} differ from {mesh.skeleton_sizes()}"
    return None


def gate_gauss_bonnet_action(stdout: str) -> str | None:
    value = float(stdout.strip())
    if not abs(value - 4.0 * math.pi) <= 1e-9 * 4.0 * math.pi:
        return f"action {value!r} is not 4*pi"
    return None


def gate_vertex_volumes(text: str, mesh: Mesh, dual: np.ndarray) -> str | None:
    rows = json.loads(text)
    if len(rows) != len(dual):
        return f"{len(rows)} volume rows for {len(dual)} vertices"
    got = [r["dual_measure"] for r in rows]
    want = dual[[int(r["vertices"]) for r in rows]]
    if not _close(got, want, TABLE_RTOL):
        return "vertex dual measures differ from the cotangent dual areas"
    total = float(_volumes(mesh.simplex_l2(mesh.cells, mesh.l2)).sum())
    if not abs(sum(r["hybrid_volume"] for r in rows) - total) <= TABLE_RTOL * total:
        return "vertex hybrid volumes do not sum to the surface area"
    return None


def gate_hodge(text: str, values: np.ndarray, dual: np.ndarray) -> str | None:
    doc = json.loads(text)
    if (doc.get("lattice"), doc.get("degree")) != ("dual", 2):
        return f"hodge wrote a ({doc.get('lattice')}, {doc.get('degree')}) cochain"
    out = np.asarray(doc["values"], dtype=np.float64)
    if out.shape != values.shape or not _close(out / dual, values, TABLE_RTOL):
        return "hodge output densities differ from the input densities"
    return None


# -- curvature-report ----------------------------------------------------

def carrier_dim(target: str, d: int) -> int:
    """Skeleton a report target is indexed by."""
    return {"hinges": d - 2, "dual-edges": d - 1, "edges": 1, "vertices": 0, "dual-vertices": d}[target]


def gate_report(stdout: str, target: str, mesh: Mesh, sizes: list[int]) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    want = sizes[carrier_dim(target, mesh.dim)]
    if len(rows) != want:
        return f"{target}: {len(rows)} rows, skeleton has {want}"
    if target != "hinges":
        return None
    deficit = np.array([float(r["deficit"]) for r in rows])
    sec = np.array([float(r["sectional"]) for r in rows])
    dual = np.array([float(r["dual_area"]) for r in rows])
    ok = np.isfinite(sec)
    if not ok.any():
        return "hinges: no finite sectional curvature"
    if not np.all(np.abs(sec[ok] * dual[ok] - deficit[ok]) <= HINGE_RTOL * np.abs(deficit[ok])):
        return "hinges: sectional * dual_area != deficit"
    if mesh.dim == 2 and not abs(deficit.sum() - 4.0 * math.pi) <= 1e-9:
        return f"hinges: total deficit {deficit.sum()!r} is not 4*pi"
    return None


def gate_check(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or any(line.startswith("FAIL") for line in lines):
        return "check printed a FAIL line or nothing"
    return None
