import copy
import io
import json
import math

import numpy as np
import pytest

from pfcurv import (
    DUAL,
    SIMPLICIAL,
    Cochain,
    DuplicateCell,
    MeshFileError,
    MetricComplex,
    read_cochain,
    read_mesh,
    write_cochain,
    write_mesh,
)

# right-triangle meshes below are legitimately not well-centered
pytestmark = pytest.mark.filterwarnings(
    "ignore::pfcurv.errors.NonWellCenteredWarning"
)

TRIANGLE_DOC = {
    "dimension": 2,
    "cells": [[0, 1, 2]],
    "edge_lengths_sq": [
        {"v": [0, 1], "L2": 1.0},
        {"v": [0, 2], "L2": 1.0},
        {"v": [1, 2], "L2": 1.0},
    ],
}


def read_doc(doc):
    return read_mesh(io.StringIO(json.dumps(doc)))


def test_read_explicit_lengths():
    m = read_doc(TRIANGLE_DOC)
    assert m.dim == 2
    assert m.complex.n_simplices(0) == 3
    assert np.array_equal(m.edge_lengths_sq, [1.0, 1.0, 1.0])
    assert m.coordinates is None
    assert m.volumes[2][0] == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)


def test_read_coordinates_only():
    doc = {
        "dimension": 2,
        "cells": [[0, 1, 2]],
        "coordinates": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    }
    m = read_doc(doc)
    # edges sort as (0,1), (0,2), (1,2)
    assert np.allclose(m.edge_lengths_sq, [1.0, 1.0, 2.0])
    assert m.coordinates.shape == (3, 2)


def test_round_trip_file(tmp_path, ico):
    p1 = tmp_path / "ico.json"
    p2 = tmp_path / "again.json"
    write_mesh(p1, ico)
    m = read_mesh(p1)
    assert m.dim == ico.dim
    assert m.complex.simplex_tuples[2] == ico.complex.simplex_tuples[2]
    assert np.array_equal(m.edge_lengths_sq, ico.edge_lengths_sq)
    write_mesh(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_handles(perturbed_grid):
    buf = io.StringIO()
    write_mesh(buf, perturbed_grid)
    m = read_mesh(io.StringIO(buf.getvalue()))
    assert np.array_equal(m.edge_lengths_sq, perturbed_grid.edge_lengths_sq)


def test_round_trip_preserves_coordinates(tmp_path, grid2):
    p = tmp_path / "grid.json"
    write_mesh(p, grid2)
    m = read_mesh(p)
    assert np.array_equal(m.coordinates, grid2.coordinates)
    doc = json.loads(p.read_text())
    assert set(doc) == {"dimension", "cells", "coordinates", "edge_lengths_sq"}


def test_write_without_coordinates_omits_key(tmp_path):
    m = read_doc(TRIANGLE_DOC)
    p = tmp_path / "tri.json"
    write_mesh(p, m)
    doc = json.loads(p.read_text())
    assert "coordinates" not in doc
    assert doc["cells"] == [[0, 1, 2]]


def indent_1(doc):
    """The writers' byte oracle: json.dump's indent-1 layout."""
    return json.dumps(doc, indent=1) + "\n"


def mesh_doc(m):
    c = m.complex
    doc = {"dimension": c.dim, "cells": c.simplices[c.dim].tolist()}
    if m.coordinates is not None:
        doc["coordinates"] = np.asarray(m.coordinates, dtype=np.float64).tolist()
    lengths = zip(c.simplices[1].tolist(), m.edge_lengths_sq.tolist())
    doc["edge_lengths_sq"] = [{"v": e, "L2": v} for e, v in lengths]
    return doc


# floats whose JSON text is easy to get wrong
AWKWARD = [0.0, -0.0, 1e-300, 5e-324, 1.0, math.pi, -1e300, 1e16, 2.5e-7, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("name", ["grid2", "ico", "perturbed_grid", "awkward_coordinates"])
def test_write_mesh_is_json_dump_indent_1(tmp_path, request, name):
    if name == "awkward_coordinates":
        base = request.getfixturevalue("ico")
        m = MetricComplex(base.complex, base.edge_lengths_sq)
        m.coordinates = np.array(AWKWARD * 3).reshape(12, 3)
    else:
        m = request.getfixturevalue(name)
    assert (m.coordinates is None) == (name == "perturbed_grid")
    buf = io.StringIO()
    write_mesh(buf, m)
    assert buf.getvalue() == indent_1(mesh_doc(m))
    p = tmp_path / "mesh.json"
    write_mesh(p, m)
    assert p.read_bytes() == indent_1(mesh_doc(m)).encode()


@pytest.mark.parametrize(
    "values",
    [AWKWARD, np.arange(12), np.arange(12) % 2 == 1, np.linspace(-1.0, 1.0, 12)],
    ids=["awkward", "int", "bool", "float"],
)
def test_write_cochain_is_json_dump_indent_1(tmp_path, ico, values):
    # integer and flag values print as floats: 1.0, not 1 or true
    w = Cochain(ico, SIMPLICIAL, 0, values)
    doc = {"lattice": "simplicial", "degree": 0, "values": [float(v) for v in values]}
    buf = io.StringIO()
    write_cochain(buf, w)
    assert buf.getvalue() == indent_1(doc)
    p = tmp_path / "w.json"
    write_cochain(p, Cochain(ico, DUAL, 2, values))
    assert p.read_bytes() == indent_1(dict(doc, lattice="dual", degree=2)).encode()


def test_files_are_utf_8(tmp_path):
    p = tmp_path / "named.json"
    p.write_bytes(json.dumps(dict(TRIANGLE_DOC, name="Möbius"), ensure_ascii=False).encode("utf-8"))
    assert read_mesh(p).dim == 2
    p.write_bytes(json.dumps(dict(TRIANGLE_DOC, name="Möbius"), ensure_ascii=False).encode("latin-1"))
    with pytest.raises(MeshFileError, match="cannot read JSON"):
        read_mesh(p)


def test_coincident_coordinates():
    doc = {"dimension": 2, "cells": [[0, 1, 2]], "coordinates": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}
    with pytest.raises(MeshFileError, match=r"edge \(1, 2\) has zero length"):
        read_doc(doc)


def test_explicit_lengths_take_precedence():
    doc = {
        "dimension": 2,
        "cells": [[0, 1, 2]],
        "coordinates": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "edge_lengths_sq": [
            {"v": [0, 1], "L2": 1.0 + 1e-12},
            {"v": [0, 2], "L2": 1.0},
            {"v": [1, 2], "L2": 2.0},
        ],
    }
    m = read_doc(doc)
    # within the 1e-9 agreement window the stated lengths win verbatim
    assert m.edge_lengths_sq[0] == 1.0 + 1e-12


def test_coordinate_length_disagreement():
    doc = copy.deepcopy(TRIANGLE_DOC)
    doc["coordinates"] = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]  # hyp is 2, not 1
    with pytest.raises(MeshFileError):
        read_doc(doc)


def test_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(MeshFileError):
        read_mesh(p)
    with pytest.raises(MeshFileError):
        read_mesh(tmp_path / "no-such-file.json")


def test_document_must_be_object():
    with pytest.raises(MeshFileError):
        read_mesh(io.StringIO("[1, 2, 3]"))


@pytest.mark.parametrize("key", ["dimension", "cells"])
def test_missing_required_key(key):
    doc = copy.deepcopy(TRIANGLE_DOC)
    del doc[key]
    with pytest.raises(MeshFileError):
        read_doc(doc)


@pytest.mark.parametrize("dim", [0, -1, "2", 2.0])
def test_bad_dimension(dim):
    doc = copy.deepcopy(TRIANGLE_DOC)
    doc["dimension"] = dim
    with pytest.raises(MeshFileError):
        read_doc(doc)


@pytest.mark.parametrize(
    "cells",
    [[], [[0, 1]], [[0, 1, 2, 3]], [[0, 1, -1]], [[0, 1, 2.0]], "cells"],
)
def test_bad_cells(cells):
    doc = copy.deepcopy(TRIANGLE_DOC)
    doc["cells"] = cells
    with pytest.raises(MeshFileError):
        read_doc(doc)


def test_duplicate_cell_surfaces():
    doc = copy.deepcopy(TRIANGLE_DOC)
    doc["cells"] = [[0, 1, 2], [2, 0, 1]]
    with pytest.raises(DuplicateCell):
        read_doc(doc)


def test_metric_required():
    doc = {"dimension": 2, "cells": [[0, 1, 2]]}
    with pytest.raises(MeshFileError):
        read_doc(doc)


@pytest.mark.parametrize(
    "coords",
    [
        [[0.0, 0.0], [1.0, 0.0]],  # does not cover vertex 2
        [[0.0], [1.0], [2.0]],  # narrower than the dimension
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0]],  # ragged
        [[0.0, 0.0], [1.0, 0.0], [0.0, "x"]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, math.inf]],
    ],
)
def test_bad_coordinates(coords):
    doc = {"dimension": 2, "cells": [[0, 1, 2]], "coordinates": coords}
    with pytest.raises(MeshFileError):
        read_doc(doc)


@pytest.mark.parametrize(
    "entry",
    [
        "not a dict",
        {"v": [0, 1]},
        {"L2": 1.0},
        {"v": [0, 1, 2], "L2": 1.0},
        {"v": [0, 3], "L2": 1.0},  # edge not in the complex
        {"v": [0, 1], "L2": 0.0},
        {"v": [0, 1], "L2": -1.0},
    ],
)
def test_bad_length_entries(entry):
    doc = copy.deepcopy(TRIANGLE_DOC)
    doc["edge_lengths_sq"][0] = entry
    with pytest.raises(MeshFileError):
        read_doc(doc)


def test_duplicate_length_entry():
    doc = copy.deepcopy(TRIANGLE_DOC)
    doc["edge_lengths_sq"].append({"v": [1, 0], "L2": 1.0})
    with pytest.raises(MeshFileError):
        read_doc(doc)


def test_missing_length_entries():
    doc = copy.deepcopy(TRIANGLE_DOC)
    doc["edge_lengths_sq"] = doc["edge_lengths_sq"][:2]
    with pytest.raises(MeshFileError, match="1 edges"):
        read_doc(doc)


def test_lengths_not_a_list():
    doc = copy.deepcopy(TRIANGLE_DOC)
    doc["edge_lengths_sq"] = {"v": [0, 1], "L2": 1.0}
    with pytest.raises(MeshFileError):
        read_doc(doc)


def test_cochain_round_trip(tmp_path, cell5):
    rng = np.random.default_rng(3)
    w = Cochain(cell5, DUAL, 2, rng.standard_normal(cell5.complex.n_simplices(1)))
    p = tmp_path / "w.json"
    write_cochain(p, w)
    back = read_cochain(p, cell5)
    assert back.lattice == DUAL and back.degree == 2
    assert np.array_equal(back.values, w.values)


def test_cochain_handles(ico):
    w = Cochain(ico, SIMPLICIAL, 0, np.arange(12.0))
    buf = io.StringIO()
    write_cochain(buf, w)
    doc = json.loads(buf.getvalue())
    assert doc == {
        "lattice": "simplicial",
        "degree": 0,
        "values": [float(v) for v in range(12)],
    }
    back = read_cochain(io.StringIO(buf.getvalue()), ico)
    assert np.array_equal(back.values, w.values)


@pytest.mark.parametrize(
    "patch",
    [
        {"lattice": "primal"},
        {"degree": -1},
        {"degree": 3},
        {"degree": "1"},
        {"values": "many"},
        {"values": [0.0]},  # wrong length
        {"values": [0.0, "x"]},
    ],
)
def test_bad_cochain_documents(ico, patch):
    doc = {
        "lattice": "simplicial",
        "degree": 0,
        "values": [0.0] * 12,
    }
    doc.update(patch)
    with pytest.raises(MeshFileError):
        read_cochain(io.StringIO(json.dumps(doc)), ico)


def test_cochain_missing_key(ico):
    with pytest.raises(MeshFileError):
        read_cochain(io.StringIO('{"lattice": "simplicial", "degree": 0}'), ico)
    with pytest.raises(MeshFileError):
        read_cochain(io.StringIO("[0.0]"), ico)
