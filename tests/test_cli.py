import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
import pfcurv
from pfcurv import Cochain, SIMPLICIAL, cli, meshfile
from pfcurv.suites import CheckResult

pytestmark = pytest.mark.filterwarnings(
    "ignore::pfcurv.errors.NonWellCenteredWarning"
)

DEFICIT_5CELL = 2.0 * math.pi - 3.0 * math.acos(1.0 / 3.0)


def mesh_path(tmp_path, m, name="mesh.json"):
    p = tmp_path / name
    meshfile.write_mesh(p, m)
    return str(p)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_info_icosahedron(tmp_path, capsys, ico):
    rc = cli.main(["info", mesh_path(tmp_path, ico)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "d=2 V=12 E=30 F=20 χ=2 boundary=0"
    assert out[1] == "well-centered: 100%"


def test_info_five_cell(tmp_path, capsys, cell5):
    rc = cli.main(["info", mesh_path(tmp_path, cell5)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "d=3 V=5 E=10 F=10 T=5 χ=0 boundary=0"


def test_info_four_dim(tmp_path, capsys, simplex5_boundary):
    rc = cli.main(["info", mesh_path(tmp_path, simplex5_boundary)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "d=4 V=6 E=15 F=20 T=15 C4=6 χ=2 boundary=0"


def test_curvature_csv_dual_edges(tmp_path, capsys, cell5):
    p = mesh_path(tmp_path, cell5)
    rc = cli.main(["curvature", p, "--at", "dual-edges"])
    header, rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert header == [
        "index",
        "vertices",
        "measure",
        "dual_measure",
        "hybrid_volume",
        "ricci",
        "is_boundary",
    ]
    assert len(rows) == 10
    want = 3.0 * DEFICIT_5CELL / 0.17677669529663687
    for row in rows:
        assert float(row[5]) == pytest.approx(want, rel=1e-12)
        assert row[6] == "0"

    rc = cli.main(["curvature", p, "--at", "dual-edges", "--both-orientations"])
    _, rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert rows[0][5] == "87.917936834738711"


def test_curvature_csv_normalized_edges(tmp_path, capsys, cell5):
    p = mesh_path(tmp_path, cell5)
    rc = cli.main(
        ["curvature", p, "--at", "edges", "--normalized", "--both-orientations"]
    )
    header, rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert "ricci_normalized" in header and "ricci" not in header
    col = header.index("ricci_normalized")
    assert rows[0][col] == "29.305978944912905"
    for row in rows:
        assert float(row[col]) == pytest.approx(29.305978944912905, rel=1e-14)


def test_curvature_json_flat_hinges(tmp_path, capsys, grid3):
    rc = cli.main(
        ["curvature", mesh_path(tmp_path, grid3), "--at", "hinges", "--format", "json"]
    )
    recs = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(recs) == grid3.complex.n_simplices(1)
    interior = [r for r in recs if not r["is_boundary"]]
    boundary = [r for r in recs if r["is_boundary"]]
    assert interior and boundary
    assert all(abs(r["deficit"]) < 1e-9 for r in interior)
    # nan serializes as null
    assert all(r["sectional"] is None for r in boundary)
    assert all(isinstance(r["vertices"], str) for r in recs)


def test_curvature_output_file(tmp_path, capsys, ico):
    out = tmp_path / "report.csv"
    rc = cli.main(
        ["curvature", mesh_path(tmp_path, ico), "--at", "vertices", "-o", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    header, rows = parse_csv(out.read_text())
    assert header[-2:] == ["scalar", "is_boundary"]
    assert len(rows) == 12
    assert all(float(r[-2]) == pytest.approx(2.6249550994289419) for r in rows)


def read_table(text, fmt):
    """Column name -> cells as written: CSV strings or JSON values."""
    if fmt == "csv":
        header, rows = parse_csv(text)
        return {name: [r[i] for r in rows] for i, name in enumerate(header)}
    recs = json.loads(text)
    # the writer keeps json.dump(indent=1)'s layout byte for byte
    assert text == json.dumps(recs, indent=1) + "\n"
    return {name: [r[name] for r in recs] for name in recs[0]}


def assert_cells_read_back(cells, want, fmt):
    """Every cell of one written column against the library column: floats
    bit for bit, nan as ``nan``/null, flags as 0/1 or false/true."""
    want = np.asarray(want)
    if want.dtype.kind == "b":
        flags = ["0", "1"] if fmt == "csv" else [False, True]
        assert cells == [flags[v] for v in want.tolist()]
        assert all(type(v) is type(flags[0]) for v in cells)
    elif want.dtype.kind == "i":
        assert cells == ([str(v) for v in want.tolist()] if fmt == "csv" else want.tolist())
        assert all(type(v) is (str if fmt == "csv" else int) for v in cells)
    elif want.dtype.kind == "f":
        nan = np.isnan(want)
        blank = "nan" if fmt == "csv" else None
        assert [v == blank for v in cells] == nan.tolist()
        got = np.array([math.nan if v == blank else float(v) for v in cells])
        assert all(type(v) is (str if fmt == "csv" else float) for v in np.array(cells, dtype=object)[~nan])
        np.testing.assert_array_equal(got, want)
        assert (np.signbit(got) == np.signbit(want))[~nan].all()
    else:
        assert cells == want.tolist()


def element_columns(m, k):
    rows = m.complex.simplices[k]
    return {
        "index": np.arange(len(rows)),
        "vertices": np.array(["-".join(str(v) for v in r) for r in rows.tolist()]),
        "measure": m.volumes[k],
        "dual_measure": m.dual_volumes[k],
        "hybrid_volume": m.volumes[k] * m.dual_volumes[k] / math.comb(m.dim, k),
    }


@pytest.mark.parametrize("fixture", ["perturbed_grid", "icospheres"])
def test_every_curvature_cell_reads_back(tmp_path, capsys, request, fixture):
    mesh = request.getfixturevalue(fixture)
    p = mesh_path(tmp_path, mesh[2] if fixture == "icospheres" else mesh)
    m = meshfile.read_mesh(p)
    assert m.dim == (2 if fixture == "icospheres" else 3)
    targets = pfcurv.curvature.TARGETS if m.dim >= 3 else ("hinges", "vertices", "dual-vertices")
    saw_nan = False
    for at in targets:
        carrier, cols = pfcurv.target_columns(m, at)
        for fmt in ("csv", "json"):
            for switches in ((), ("--normalized", "--both-orientations")):
                rc = cli.main(["curvature", p, "--at", at, "--format", fmt, *switches])
                assert rc == 0
                table = read_table(capsys.readouterr().out, fmt)
                want = element_columns(m, carrier)
                on = bool(switches)
                for name, col in cols.items():
                    want[col.label(name, on)] = col.view(on, on)
                assert list(table) == list(want)
                assert all(v.count("-") == carrier for v in table["vertices"])
                for name, col in want.items():
                    assert_cells_read_back(table[name], col, fmt)
                    saw_nan |= col.dtype.kind == "f" and bool(np.isnan(col).any())
    assert saw_nan == (fixture == "perturbed_grid")


@pytest.mark.parametrize("fixture", ["perturbed_grid", "icospheres"])
def test_every_volumes_cell_reads_back(tmp_path, capsys, request, fixture):
    mesh = request.getfixturevalue(fixture)
    p = mesh_path(tmp_path, mesh[2] if fixture == "icospheres" else mesh)
    m = meshfile.read_mesh(p)
    ks = range(m.dim + 1)
    summary = {
        "k": np.arange(m.dim + 1),
        "count": np.array([m.complex.n_simplices(k) for k in ks]),
        "measure": np.array([float(m.volumes[k].sum()) for k in ks]),
        "dual_measure": np.array([float(m.dual_volumes[k].sum()) for k in ks]),
        "hybrid_volume": np.array([float(element_columns(m, k)["hybrid_volume"].sum()) for k in ks]),
    }
    for fmt in ("csv", "json"):
        for k, want in [(None, summary)] + [(k, element_columns(m, k)) for k in ks]:
            rc = cli.main(["volumes", p, "--format", fmt] + ([] if k is None else ["--dim", str(k)]))
            assert rc == 0
            table = read_table(capsys.readouterr().out, fmt)
            assert list(table) == list(want)
            for name, col in want.items():
                assert_cells_read_back(table[name], col, fmt)


# floats whose JSON text is easy to get wrong: signed zero, subnormals,
# extremes, 17-digit reprs and the non-finite values
AWKWARD = [0.0, -0.0, 1e-300, 5e-324, 1.0, math.pi, -1e300, 1e16, 2.5e-7, math.nan, math.inf, -math.inf]


# a row block of 4 or 5 splits the 12 rows into full and partial chunks
@pytest.mark.parametrize(
    "n, block", [(len(AWKWARD), None), (0, None), (len(AWKWARD), 4), (len(AWKWARD), 5)],
    ids=["12", "0", "12-block4", "12-block5"],
)
def test_json_table_is_json_dump_indent_1(tmp_path, capsys, monkeypatch, n, block):
    if block:
        monkeypatch.setattr(meshfile, "ROW_BLOCK", block)
    ids = np.arange(3 * n).reshape(n, 3)[:, ::-1]
    columns = {
        "index": np.arange(n),
        "vertices": ids,
        "value": np.array(AWKWARD[:n]),
        "is_boundary": np.arange(n) % 3 == 0,
    }
    records = [
        {"index": i, "vertices": "-".join(map(str, r)), "value": v if math.isfinite(v) else None, "is_boundary": i % 3 == 0}
        for i, r, v in zip(range(n), ids.tolist(), AWKWARD)
    ]
    oracle = json.dumps(records, indent=1) + "\n"
    cli._emit_table(argparse.Namespace(format="json", output=None), columns)
    assert capsys.readouterr().out == oracle
    out = tmp_path / "table.json"
    cli._emit_table(argparse.Namespace(format="json", output=str(out)), columns)
    assert out.read_bytes() == oracle.encode()
    cli._emit_table(argparse.Namespace(format="csv", output=None), columns)
    want = ["index,vertices,value,is_boundary"] + [
        f"{r['index']},{r['vertices']},{format(v, '.17g')},{int(r['is_boundary'])}"
        for r, v in zip(records, AWKWARD)
    ]
    assert capsys.readouterr().out.splitlines() == want


def test_curvature_edges_rejected_in_2d(tmp_path, capsys, ico):
    rc = cli.main(["curvature", mesh_path(tmp_path, ico), "--at", "edges"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("pfcurv: error:")


def test_action(tmp_path, capsys, cell5):
    p = mesh_path(tmp_path, cell5)
    rc = cli.main(["action", p])
    assert rc == 0
    assert capsys.readouterr().out == "25.903070551572615\n"
    rc = cli.main(["action", p, "--prefactor", "0.5"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(
        25.903070551572615 / 2.0, rel=1e-15
    )


def test_action_include_boundary(tmp_path, capsys, grid2):
    p = mesh_path(tmp_path, grid2)
    rc = cli.main(["action", p])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-9)
    rc = cli.main(["action", p, "--include-boundary"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(
        2.0 * math.pi, abs=1e-12
    )


def test_volumes_summary(tmp_path, capsys, ico):
    rc = cli.main(["volumes", mesh_path(tmp_path, ico)])
    header, rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert header == ["k", "count", "measure", "dual_measure", "hybrid_volume"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert rows[0][1] == "12" and rows[2][1] == "20"
    area = 9.5745413832739388
    # every k sees the same total through its own decomposition
    assert float(rows[0][2]) == pytest.approx(12.0)
    for r in rows:
        assert float(r[4]) == pytest.approx(area, rel=1e-12)
    assert float(rows[2][2]) == pytest.approx(area, rel=1e-12)


def test_volumes_per_element(tmp_path, capsys, ico):
    p = mesh_path(tmp_path, ico)
    rc = cli.main(["volumes", p, "--dim", "1"])
    header, rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert len(rows) == 30
    assert rows[0][1].count("-") == 1
    rc = cli.main(["volumes", p, "--dim", "5"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("pfcurv: error:")


def test_hodge_cli(tmp_path, capsys, ico):
    p = mesh_path(tmp_path, ico)
    w = Cochain(ico, SIMPLICIAL, 0, np.arange(12.0))
    wp = tmp_path / "w.json"
    meshfile.write_cochain(wp, w)
    out = tmp_path / "star.json"
    rc = cli.main(["hodge", p, str(wp), "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["lattice"] == "dual" and doc["degree"] == 2
    assert np.allclose(
        doc["values"], np.arange(12.0) * 0.79787844860616153, rtol=1e-12
    )
    # stdout when no output path is given
    rc = cli.main(["hodge", p, str(wp)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_check_passes(tmp_path, capsys, ico):
    rc = cli.main(["check", mesh_path(tmp_path, ico)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out
    for line in out:
        assert line.startswith("PASS ")
        assert "residual" in line and "tol" in line


def test_check_suite_selection(tmp_path, capsys, cell5):
    rc = cli.main(["check", mesh_path(tmp_path, cell5), "--suite", "volumes"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert all(line.startswith("PASS") for line in out)


def test_check_failure_exits_5(tmp_path, capsys, monkeypatch, ico):
    monkeypatch.setattr(
        "pfcurv.suites.run_suite",
        lambda m, suite: [CheckResult("fabricated", 1.0, 1e-9)],
    )
    rc = cli.main(["check", mesh_path(tmp_path, ico)])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out.startswith("FAIL fabricated: residual 1 tol ")
    assert "pfcurv: error:" in captured.err


def test_gen_info_round_trip(tmp_path, capsys):
    p = tmp_path / "grid.json"
    rc = cli.main(["gen", "flat-grid", "--dim", "2", "--n", "3", "-o", str(p)])
    assert rc == 0
    rc = cli.main(["info", str(p)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "d=2 V=16 E=33 F=18 χ=1 boundary=12"
    assert cli.main(["gen", "flat-grid", "--dim", "4", "--n", "1", "-o", str(p)]) == 0
    assert cli.main(["info", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "d=4 V=16 E=65 F=110 T=84 C4=24 χ=1 boundary=48"


def test_gen_icosphere_and_simplex_boundary(tmp_path, capsys):
    p = tmp_path / "sphere.json"
    assert cli.main(["gen", "icosphere", "--level", "1", "-o", str(p)]) == 0
    assert cli.main(["info", str(p)]) == 0
    assert (
        capsys.readouterr().out.splitlines()[0]
        == "d=2 V=42 E=120 F=80 χ=2 boundary=0"
    )
    q = tmp_path / "cell5.json"
    assert cli.main(["gen", "simplex-boundary", "--ambient-dim", "4", "-o", str(q)]) == 0
    assert cli.main(["info", str(q)]) == 0
    assert (
        capsys.readouterr().out.splitlines()[0]
        == "d=3 V=5 E=10 F=10 T=5 χ=0 boundary=0"
    )


def test_gen_perturb_deterministic(tmp_path, capsys):
    base = tmp_path / "base.json"
    pert = tmp_path / "pert.json"
    assert cli.main(["gen", "flat-grid", "--dim", "3", "--n", "3", "-o", str(base)]) == 0
    rc = cli.main(
        ["gen", "perturb", str(base), "--amplitude", "0.05", "--seed", "0", "-o", str(pert)]
    )
    assert rc == 0
    assert cli.main(["info", str(pert)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d=3 V=64 E=279 F=378 T=162 χ=1 boundary=108"
    assert out[1] == "well-centered: 38.888888888888893%"
    a = meshfile.read_mesh(base)
    b = meshfile.read_mesh(pert)
    ratio = b.edge_lengths_sq / a.edge_lengths_sq
    assert (np.abs(ratio - 1.0) <= 0.05).all()
    assert not np.array_equal(a.edge_lengths_sq, b.edge_lengths_sq)


def test_gen_to_stdout(capsys):
    assert cli.main(["gen", "flat-grid"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 2
    assert len(doc["cells"]) == 18


def test_usage_errors_exit_1(capsys):
    for argv in [[], ["frobnicate"], ["curvature"], ["gen"]]:
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        cli.main(["curvature", "x.json", "--at", "everywhere"])
    assert e.value.code == 1
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    rc = cli.main(["info", "/no/such/mesh.json"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("pfcurv: error:")


def write_doc(tmp_path, doc, name):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_invalid_mesh_exits_2(tmp_path, capsys):
    dup = write_doc(
        tmp_path,
        {"dimension": 2, "cells": [[0, 1, 2], [2, 0, 1]], "edge_lengths_sq": []},
        "dup.json",
    )
    assert cli.main(["info", dup]) == 2
    fan = write_doc(
        tmp_path,
        {
            "dimension": 2,
            "cells": [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
            "edge_lengths_sq": [],
        },
        "fan.json",
    )
    assert cli.main(["info", fan]) == 2
    capsys.readouterr()


def test_repeated_vertex_exits_2(tmp_path, capsys):
    rep = write_doc(
        tmp_path,
        {
            "dimension": 2,
            "cells": [[0, 0, 1]],
            "edge_lengths_sq": [{"v": [0, 1], "L2": 1.0}],
        },
        "rep.json",
    )
    assert cli.main(["info", rep]) == 2
    err = capsys.readouterr().err
    assert "distinct" in err and "[0, 0, 1]" in err


def test_degenerate_mesh_exits_3(tmp_path, capsys):
    bad = write_doc(
        tmp_path,
        {
            "dimension": 2,
            "cells": [[0, 1, 2]],
            "edge_lengths_sq": [
                {"v": [0, 1], "L2": 1.0},
                {"v": [0, 2], "L2": 1.0},
                {"v": [1, 2], "L2": 9.0},
            ],
        },
        "degenerate.json",
    )
    assert cli.main(["info", bad]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pfcurv: error: 2-simplex (0, 1, 2) has non-positive volume")


@pytest.mark.parametrize("scale", [1e250, 1e-250])
def test_unrepresentable_volume_exits_3(tmp_path, capsys, simplex5_boundary, scale):
    # a valid mesh whose 3-volumes overflow or underflow float64
    c = simplex5_boundary.complex
    lengths = [
        {"v": e.tolist(), "L2": scale * v}
        for e, v in zip(c.simplices[1], simplex5_boundary.edge_lengths_sq)
    ]
    doc = {"dimension": 4, "cells": c.simplices[4].tolist(), "edge_lengths_sq": lengths}
    assert cli.main(["info", write_doc(tmp_path, doc, "scaled.json")]) == 3
    err = capsys.readouterr().err
    assert "has a 3-volume not representable in float64" in err
    assert "non-positive" not in err


def test_unsupported_generator_argument_exits_4(tmp_path, capsys):
    rc = cli.main(["gen", "icosphere", "--level", "9", "-o", str(tmp_path / "x.json")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("pfcurv: error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["icosphere", "--level", "7"],
        ["icosphere", "--level", "-1"],
        ["icosphere", "--radius", "0"],
        ["icosphere", "--radius", "nan"],
        ["flat-grid", "--n", "0"],
        ["simplex-boundary", "--ambient-dim", "2"],
        ["perturb", "MESH", "--amplitude", "-0.1"],
        ["perturb", "MESH", "--amplitude", "inf"],
        ["perturb", "MESH", "--seed", "-1"],
    ],
)
def test_gen_parameter_errors_exit_4(tmp_path, capsys, ico, argv):
    argv = [mesh_path(tmp_path, ico) if a == "MESH" else a for a in argv]
    out = tmp_path / "x.json"
    assert cli.main(["gen", *argv, "-o", str(out)]) == 4
    assert capsys.readouterr().err.startswith("pfcurv: error:")
    assert not out.exists()


def test_requests_a_1d_mesh_lacks_exit_4(tmp_path, capsys):
    lengths = [{"v": e, "L2": 1.0} for e in ([0, 1], [1, 2], [0, 2])]
    p = write_doc(tmp_path, {"dimension": 1, "cells": [[0, 1], [1, 2], [2, 0]], "edge_lengths_sq": lengths}, "ring.json")
    for argv in (["action", p], ["curvature", p], ["curvature", p, "--at", "vertices"], ["check", p]):
        assert cli.main(argv) == 4, argv
        assert capsys.readouterr().err.startswith("pfcurv: error:")
    assert cli.main(["check", p, "--suite", "volumes"]) == 0
    capsys.readouterr()


def test_check_dec_runs_on_a_cycle(tmp_path, capsys):
    lengths = [{"v": e, "L2": x} for e, x in (([0, 1], 1.0), ([1, 2], 2.0), ([2, 3], 1.5), ([0, 3], 0.5))]
    p = write_doc(tmp_path, {"dimension": 1, "cells": [[0, 1], [1, 2], [2, 3], [3, 0]], "edge_lengths_sq": lengths}, "cycle.json")
    assert cli.main(["check", p, "--suite", "dec"]) == 0
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == ["PASS measured adjointness", "PASS hodge round trip", "PASS hodge density preservation"]
    # the curvature suite needs d >= 2
    assert cli.main(["check", p, "--suite", "all"]) == 4
    assert "dimension >= 2" in capsys.readouterr().err


def test_internal_value_error_does_not_exit_4(tmp_path, monkeypatch, ico):
    # exit 4 answers unsupported requests; a stray ValueError is a bug
    p = mesh_path(tmp_path, ico)

    def broken(*args, **kwargs):
        raise ValueError("not a user error")

    monkeypatch.setattr(cli, "regge_action", broken)
    with pytest.raises(ValueError, match="not a user error"):
        cli.main(["action", p])


def test_undecodable_mesh_exits_2(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"dimension": 2, "name": "Möbius"}'.encode("latin-1"))
    assert cli.main(["info", str(p)]) == 2
    assert capsys.readouterr().err.startswith("pfcurv: error: cannot read JSON")


def test_unwritable_output_exits_2(tmp_path, capsys):
    rc = cli.main(["gen", "flat-grid", "-o", str(tmp_path / "missing" / "x.json")])
    assert rc == 2
    capsys.readouterr()


def test_warnings_print_with_the_cli_prefix(tmp_path):
    # under python -m the first frame outside the package is runpy's, so a
    # warning naming its source line would point into the interpreter
    src = os.path.dirname(os.path.dirname(pfcurv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["gen", "flat-grid", "--dim", "4", "--n", "1", "-o", str(tmp_path / "g.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "pfcurv.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("pfcurv: warning: ") and "runpy" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "NonWellCenteredWarning" not in proc.stderr


def test_cli_warnings_obey_active_filters(tmp_path, capsys):
    argv = ["gen", "flat-grid", "--dim", "4", "--n", "1", "-o", str(tmp_path / "g.json")]
    with pytest.warns(pfcurv.NonWellCenteredWarning):
        pfcurv.gen_flat_grid(4, 1)  # the library keeps the plain warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pfcurv.NonWellCenteredWarning)
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    with warnings.catch_warnings():
        warnings.simplefilter("always", pfcurv.NonWellCenteredWarning)
        assert cli.main(argv) == 0
    assert capsys.readouterr().err.startswith("pfcurv: warning: ")


def test_check_on_a_flat_torus_exits_0(tmp_path, capsys):
    # most hinges of the flat Freudenthal torus have zero dual area, so
    # the telescoping sums have nothing to compare; the rest still runs
    for dim in (3, 4):
        rc = cli.main(["check", mesh_path(tmp_path, oracles.periodic_torus(dim, 3))])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert all(line.startswith("PASS ") for line in out)
        names = [line.split(":")[0][5:] for line in out]
        assert {"facet projection law", "deficit scale invariance"} <= set(names)
        assert "action conservation across lattices" not in names


def test_seventeen_digit_format():
    assert cli._g17(math.pi) == "3.1415926535897931"
    assert cli._g17(100.0) == "100"
    assert cli._g17(float(np.float64(1.0) / 3.0)) == "0.33333333333333331"


# Runs every subcommand in a fresh interpreter where importing scipy fails;
# writes the exit codes to codes.json in the directory given as argv[1].
NO_SCIPY = """
import json, sys, warnings
sys.modules["scipy"] = None
import pfcurv, pfcurv.cli
assert [k for k in sys.modules if k.split(".")[0] == "scipy"] == ["scipy"]
warnings.simplefilter("ignore")
out = sys.argv[1]
codes = {}
def run(*argv):
    codes[" ".join(argv)] = pfcurv.cli.main(list(argv))
run("gen", "flat-grid", "--dim", "3", "-o", f"{out}/grid3.json")
run("gen", "icosphere", "--level", "2", "-o", f"{out}/ico2.json")
run("gen", "flat-grid", "--dim", "4", "-o", f"{out}/grid4.json")
targets = ["hinges", "dual-edges", "edges", "vertices", "dual-vertices"]
for name, ts in (("grid3", targets), ("ico2", ["hinges", "vertices", "dual-vertices"])):
    f = f"{out}/{name}.json"
    m = pfcurv.read_mesh(f)
    w = pfcurv.Cochain(m, pfcurv.SIMPLICIAL, 0, [1.0] * m.complex.n_simplices(0))
    pfcurv.write_cochain(f"{out}/{name}_v0.json", w)
    run("info", f)
    run("action", f)
    run("volumes", f, "--dim", "0")
    run("hodge", f, f"{out}/{name}_v0.json", "-o", f"{out}/{name}_star.json")
    run("check", f, "--suite", "all")
    for t in ts:
        run("curvature", f, "--at", t, "-o", f"{out}/{name}_{t}.csv")
json.dump(codes, open(f"{out}/codes.json", "w"))
"""


def test_cli_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(pfcurv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads((tmp_path / "codes.json").read_text())
    assert len(codes) == 3 + 2 * 5 + 5 + 3
    assert all(rc == 0 for rc in codes.values()), codes
