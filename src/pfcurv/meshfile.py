"""JSON mesh and cochain files.

Mesh schema::

    {
      "dimension": d,
      "cells": [[v0, ..., vd], ...],
      "coordinates": [[x, y, ...], ...],          # optional
      "edge_lengths_sq": [{"v": [i, j], "L2": x}, ...]  # optional
    }

At least one of coordinates / edge_lengths_sq must be present; when both
are, the coordinate-derived squared lengths must agree with the explicit
ones to 1e-9 relative.  Coordinates are only ever used to derive squared
lengths (and to serialize them back out).

Files are UTF-8 in the indent-1 layout of ``json.dump``, written by the C
encoder; shortest round-trip floats make write -> read exact bit for bit.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .complex import build_complex
from .dec import DUAL, SIMPLICIAL, Cochain
from .errors import MeshFileError
from .geometry import MetricComplex

LENGTH_AGREEMENT_RTOL = 1e-9


def _load(path_or_file) -> Any:
    try:
        if hasattr(path_or_file, "read"):
            return json.load(path_or_file)
        with open(path_or_file, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        raise MeshFileError(f"cannot read JSON: {e}") from None


def write_text(path_or_file, text: str) -> None:
    """Write ``text`` to a file object, or to a path as UTF-8."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as f:
            f.write(text)


def json_cells(values: list) -> list[str]:
    """The C encoder's JSON text of each item of a flat list, split at the
    separating newlines (JSON escapes newlines inside strings)."""
    return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n") if values else []


def json_list(row: str, fields: list[list], pad: str = " ") -> str:
    """The indent-1 ``json.dump`` text of a list whose items are ``row % r``
    for r in ``zip(*fields)``; ``pad`` indents the closing bracket."""
    items = ",\n".join(row % r for r in zip(*fields))
    return f"[\n{items}\n{pad}]" if items else "[]"


def _cell_array(cells: list, dim: int) -> np.ndarray:
    """The cells as an int array, each row dim+1 distinct nonnegative ids."""
    try:
        arr = np.array(cells)
    except ValueError:  # ragged rows
        arr = np.empty(0)
    got = ""
    if arr.ndim == 2 and arr.shape[1] == dim + 1 and arr.dtype.kind in "iu":
        srt = np.sort(arr, axis=1)
        bad = (srt[:, 0] < 0) | (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not bad.any():
            return arr
        got = f", got {cells[int(np.argmax(bad))]!r}"
    raise MeshFileError(f"each cell must list {dim + 1} distinct nonnegative vertex ids{got}")


def _explicit_lengths(lengths, edges: np.ndarray) -> np.ndarray:
    """Squared length of every edge (sorted rows ``edges``) from the
    ``edge_lengths_sq`` entries, which must name each edge once."""
    if not isinstance(lengths, list):
        raise MeshFileError("edge_lengths_sq must be a list")
    n = len(lengths)
    try:
        pairs = np.sort(np.array([e["v"] for e in lengths], dtype=np.int64).reshape(n, 2), axis=1)
        vals = np.array([e["L2"] for e in lengths], dtype=np.float64).reshape(n)
    except (TypeError, KeyError, ValueError, OverflowError):
        raise MeshFileError('edge length entries look like {"v": [i, j], "L2": x}') from None
    # sorted rows (a, b) have sorted keys a * base + b; pairs with an id
    # outside 0..base-1 get the key -1, which no edge has
    base = int(edges.max()) + 1
    key = edges[:, 0] * base + edges[:, 1]
    inside = (pairs[:, 0] >= 0) & (pairs[:, 1] < base)
    want = np.where(inside, pairs[:, 0] * base + pairs[:, 1], -1)
    idx = np.minimum(np.searchsorted(key, want), len(key) - 1)
    for bad, why in (
        (key[idx] != want, "is not part of the complex"),
        (np.bincount(idx, minlength=len(key))[idx] > 1, "is listed twice"),
        (~(vals > 0), "has a non-positive squared length"),
    ):
        if bad.any():
            raise MeshFileError(f"edge {tuple(pairs[int(np.argmax(bad))].tolist())} {why}")
    if n < len(key):
        raise MeshFileError(f"{len(key) - n} edges have no squared length")
    explicit = np.empty(len(key))
    explicit[idx] = vals
    return explicit


def read_mesh(path_or_file) -> MetricComplex:
    """Read, validate and build a metric complex from a mesh file."""
    doc = _load(path_or_file)
    if not isinstance(doc, dict):
        raise MeshFileError("mesh document must be a JSON object")
    try:
        dim = doc["dimension"]
        cells = doc["cells"]
    except KeyError as e:
        raise MeshFileError(f"missing required key {e}") from None
    if not isinstance(dim, int) or dim < 1:
        raise MeshFileError(f"dimension must be a positive integer, got {dim!r}")
    if not isinstance(cells, list) or not cells:
        raise MeshFileError("cells must be a nonempty list")
    coords = doc.get("coordinates")
    lengths = doc.get("edge_lengths_sq")
    if coords is None and lengths is None:
        raise MeshFileError("mesh needs coordinates or edge_lengths_sq")
    c = build_complex(dim, _cell_array(cells, dim))
    vmax = int(c.simplices[0].max())

    pts = None
    if coords is not None:
        try:
            pts = np.array(coords, dtype=np.float64)
        except (TypeError, ValueError):
            raise MeshFileError("coordinates must be rows of numbers") from None
        if pts.ndim != 2 or pts.shape[1] < dim:
            raise MeshFileError("coordinate rows must share one length >= the mesh dimension")
        if len(pts) <= vmax:
            raise MeshFileError(f"coordinates must cover vertex ids up to {vmax}")
        if not np.isfinite(pts).all():
            raise MeshFileError("coordinates must be finite")

    edges = c.simplices[1]
    derived = None
    if pts is not None:
        diff = pts[edges[:, 0]] - pts[edges[:, 1]]
        derived = (diff * diff).sum(axis=1)
        if not (derived > 0).all():
            raise MeshFileError(f"edge {tuple(edges[np.argmin(derived > 0)].tolist())} has zero length")

    explicit = None
    if lengths is not None:
        explicit = _explicit_lengths(lengths, edges)
    if derived is not None and explicit is not None:
        rel = np.abs(derived - explicit) / np.maximum(np.abs(explicit), 1e-300)
        if (rel > LENGTH_AGREEMENT_RTOL).any():
            i = int(np.argmax(rel))
            raise MeshFileError(
                f"edge {tuple(edges[i].tolist())}: coordinate length {derived[i]!r} "
                f"disagrees with explicit length {explicit[i]!r}"
            )

    m = MetricComplex(c, explicit if explicit is not None else derived)
    m.coordinates = pts
    return m


def write_mesh(path_or_file, m: MetricComplex) -> None:
    """Serialize a metric complex; inverse of :func:`read_mesh` bit for bit."""
    c = m.complex
    arrays = {"cells": c.simplices[c.dim].T.tolist()}  # each as its columns
    if m.coordinates is not None:
        arrays["coordinates"] = [json_cells(x) for x in np.asarray(m.coordinates, float).T.tolist()]
    text = f'{{\n "dimension": {c.dim}'
    for key, cols in arrays.items():
        row = "  [\n" + ",\n".join(["   %s"] * len(cols)) + "\n  ]"
        text += f',\n "{key}": {json_list(row, cols)}'
    edge = '  {\n   "v": [\n    %d,\n    %d\n   ],\n   "L2": %s\n  }'
    lengths = json_list(edge, [*c.simplices[1].T.tolist(), json_cells(m.edge_lengths_sq.tolist())])
    write_text(path_or_file, f'{text},\n "edge_lengths_sq": {lengths}\n}}\n')


def read_cochain(path_or_file, m: MetricComplex) -> Cochain:
    """Read a cochain file ``{"lattice", "degree", "values"}`` against a
    mesh; values are ordered by the indexing skeleton."""
    doc = _load(path_or_file)
    if not isinstance(doc, dict):
        raise MeshFileError("cochain document must be a JSON object")
    try:
        lattice = doc["lattice"]
        degree = doc["degree"]
        values = doc["values"]
    except KeyError as e:
        raise MeshFileError(f"missing required key {e}") from None
    if lattice not in (SIMPLICIAL, DUAL):
        raise MeshFileError(f"lattice must be simplicial or dual, got {lattice!r}")
    if not isinstance(degree, int) or not 0 <= degree <= m.dim:
        raise MeshFileError(f"degree must be in 0..{m.dim}, got {degree!r}")
    if not isinstance(values, list):
        raise MeshFileError("values must be a list of numbers")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise MeshFileError("values must be numeric") from None
    try:
        return Cochain(m, lattice, degree, arr)
    except ValueError as e:
        raise MeshFileError(str(e)) from None


def write_cochain(path_or_file, w: Cochain) -> None:
    values = json_list("  %s", [json_cells(w.values.astype(np.float64).tolist())])
    head = f'{{\n "lattice": {json.dumps(w.lattice)},\n "degree": {w.degree}'
    write_text(path_or_file, f'{head},\n "values": {values}\n}}\n')
