"""Seeded inputs for the pfcurv benchmark.

Every input is made through pfcurv's public API from the seed alone and
written once per (workload, seed) under ``perfbench/_work/inputs``:

- perturbed icospheres at levels 3 and 5 (d=2, closed);
- periodic Freudenthal tori in d=3 (4^3 cubes, 384 tets) and d=4 (3^4
  cubes, 1,944 pentatopes), assembled with ``build_complex`` because no
  generator makes tori;
- Freudenthal grids with boundary in d=3 (n=4, from ``gen_flat_grid``)
  and d=4 (n=2, assembled here because ``gen_flat_grid`` stops at d=3).

All meshes are written length-only. Run as a script to build one
workload's inputs: ``python3 perfbench/inputs.py <workload> <seed> <dir>``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import warnings

import numpy as np

AMPLITUDE = 0.05  # relative perturbation of each squared length

MESHES = {
    "cli-surface": ("ico5",),
    "regge-sweep": ("torus3", "torus4"),
    "curvature-report": ("ico3", "grid3", "grid4"),
}


def freudenthal(dim: int, n: int, periodic: bool):
    """Cells and flat squared lengths of the Freudenthal triangulation of
    n^dim unit cubes; ``periodic`` identifies opposite sides (a torus).

    Every cube splits into dim! simplexes along monotone lattice walks, so
    each edge joins two points that differ by 0 or 1 in every coordinate
    and its squared length is the number of coordinates that differ.
    """
    side = n if periodic else n + 1

    def vid(p):
        out = 0
        for x in p:
            out = out * side + (x % side)
        return out

    cells = []
    l2: dict[tuple[int, int], float] = {}
    for corner in itertools.product(range(n), repeat=dim):
        for perm in itertools.permutations(range(dim)):
            walk = [list(corner)]
            for ax in perm:
                step = walk[-1].copy()
                step[ax] += 1
                walk.append(step)
            ids = [vid(p) for p in walk]
            cells.append(ids)
            for a, b in itertools.combinations(range(dim + 1), 2):
                l2[(min(ids[a], ids[b]), max(ids[a], ids[b]))] = float(b - a)
    return cells, l2


def _freudenthal_metric(dim: int, n: int, periodic: bool):
    import pfcurv

    cells, l2 = freudenthal(dim, n, periodic)
    c = pfcurv.build_complex(dim, cells)
    return pfcurv.MetricComplex(c, [l2[(int(a), int(b))] for a, b in c.simplices[1]])


def base_mesh(name: str):
    """The unperturbed mesh behind each input name."""
    import pfcurv

    if name.startswith("ico"):
        return pfcurv.gen_icosphere(int(name[3:]))
    if name == "torus3":
        return _freudenthal_metric(3, 4, periodic=True)
    if name == "torus4":
        return _freudenthal_metric(4, 3, periodic=True)
    if name == "grid3":
        return pfcurv.gen_flat_grid(3, 4)
    if name == "grid4":
        return _freudenthal_metric(4, 2, periodic=False)
    raise ValueError(f"unknown mesh {name!r}")


def vertex_cochain(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 1]).standard_normal(n)


def build(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's inputs into ``out_dir``; return the manifest.

    The tracer wraps pfcurv while the inputs are made, so the manifest
    records ``meshgen.perturb_lengths`` self time for the traced run.
    """
    import pfcurv

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer(span_cap=0)
    tracer.install()
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "amplitude": AMPLITUDE, "meshes": {}}
    try:
        with warnings.catch_warnings():
            # flat Freudenthal cells are right-angled, hence not well-centered
            warnings.simplefilter("ignore", pfcurv.NonWellCenteredWarning)
            for i, name in enumerate(MESHES[workload]):
                m = pfcurv.perturb_lengths(base_mesh(name), AMPLITUDE, seed * 16 + i)
                path = os.path.join(out_dir, f"{name}.json")
                pfcurv.write_mesh(path, m)
                manifest["meshes"][name] = {"dim": m.dim, "cells": m.complex.n_simplices(m.dim)}
                if workload == "cli-surface":
                    values = vertex_cochain(seed, m.complex.n_simplices(0))
                    w = pfcurv.Cochain(m, pfcurv.SIMPLICIAL, 0, values)
                    pfcurv.write_cochain(os.path.join(out_dir, f"{name}_v0.json"), w)
    finally:
        tracer.uninstall()
    spans = tracer.table()
    manifest["perturb_lengths_self_s"] = spans.get("meshgen.perturb_lengths", {}).get("self_s", 0.0)
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))
    return manifest


if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    build(workload, seed, out_dir)
