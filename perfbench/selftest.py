"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that a corrupted op output is counted as a failure on every
workload, that traced call counts repeat exactly, that a span missing
from the program is reported as absent, that ``BENCHMARK.json`` agrees
with ``metrics.py``, and that ``run.py`` refuses to run without the
program's sources. Takes about a minute; writes only under
``perfbench/_work/selftest``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work", "selftest")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _corrupt(label: str, result):
    """A plausible-looking wrong output for each kind of op."""
    bad = copy.deepcopy(result)
    if label == "sweep":
        return [v * (1.0 + 1e-6) for v in bad]
    if label == "info":
        bad["stdout"] = bad["stdout"].replace("χ=2", "χ=0")
    elif label == "action":
        bad["stdout"] = repr(float(bad["stdout"]) + 1e-6)
    elif label == "volumes":
        rows = json.loads(bad["file"])
        rows[0]["dual_measure"] *= 1.001
        bad["file"] = json.dumps(rows)
    elif label == "hodge":
        doc = json.loads(bad["file"])
        doc["values"][3] *= -1.0
        bad["file"] = json.dumps(doc)
    elif label.endswith(":check"):
        bad["stdout"] = bad["stdout"].replace("PASS", "FAIL", 1)
    elif label.endswith(":curvature:hinges"):
        lines = bad["stdout"].splitlines()
        head, first = lines[0].split(","), lines[1].split(",")
        col = head.index("deficit")
        first[col] = repr(float(first[col]) * 1.5)
        bad["stdout"] = "\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n"
    else:  # a report: drop its last row
        bad["stdout"] = "\n".join(bad["stdout"].splitlines()[:-1]) + "\n"
    return bad


def _ops(workload: str, seed: int):
    path = os.path.join(WORK, "inputs", workload)
    if not os.path.exists(os.path.join(path, "manifest.json")):
        inputs.build(workload, seed, path)
    _, session = workloads.set_up(workload, path)
    if workload == "cli-surface":
        return workloads.cli_surface_ops(path, WORK, seed)
    if workload == "regge-sweep":
        return workloads.regge_sweep_ops(path, session, seed)
    # one mesh of each dimension is enough to exercise every gate
    return [op for op in workloads.curvature_report_ops(path)
            if op.label.startswith("ico3") or op.label == "grid3:curvature:edges"]


def test_corrupted_output_is_a_failure():
    for workload in metrics.WORKLOADS:
        for op in _ops(workload, seed=3):
            good = {}
            loop = workloads.Loop([op])
            call = op.call
            op.call = lambda i, call=call: good.setdefault("r", call(i))
            loop.run_op(op, 1)
            assert not loop.failures, (workload, loop.failures)
            bad = workloads.Op(op.label, op.cells, lambda i, r=good["r"]: _corrupt(op.label, r),
                               op.gate, prepare=op.prepare)
            loop.run_op(bad, 1)
            assert loop.attempted == 2 and len(loop.failures) == 1, (workload, op.label)


def test_trace_counts_repeat():
    op = _ops("regge-sweep", seed=3)[0]
    tables = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            workloads.Loop([op]).cycles(0.0, tracer=tracer)
        finally:
            tracer.uninstall()
        tables.append(({k: v["calls"] for k, v in tracer.table().items()}, dict(tracer.distinct)))
    assert tables[0] == tables[1], "call counts differ between identical traced runs"
    assert tables[0][0]["geometry.dihedral_angle"] > 0


def test_absent_span_is_reported():
    raw = {"traced_ops": 2, "import_s": 0.1, "rows_out": 0, "bytes_out": 0, "bytes_in": 0,
           "results": 0, "traced_wall": 1.1, "plain_wall": 1.0,
           "distinct": {"curvature.deficit": 4},
           "table": {"curvature.deficit": {"calls": 8, "self_s": 0.5}}}
    loc = metrics.src_line_counts(os.path.join(ROOT, "src", "pfcurv"))
    values, absent = metrics.per_layer_values(raw, 0.0, loc)
    assert "geometry.dihedral_angle" in absent and "curvature.deficit" not in absent
    assert values["geometry.dihedral_angle.calls"] == 0.0
    assert values["curvature.deficit.per_hinge"] == 2.0
    assert math.isclose(values["trace.overhead_ratio"], 0.1)
    assert set(values) == {name for name, *_ in metrics.PER_LAYER}


def test_benchmark_json_matches_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == list(metrics.WORKLOADS.values())
    assert [[m["name"], m["unit"], m["better"], m["bound"]] for m in bench["end_to_end"]] == [
        [n, u, b, bd] for n, u, b, bd, _ in metrics.END_TO_END]
    assert [[m["name"], m["unit"], m["better"]] for m in bench["per_layer"]] == [
        [n, u, b] for n, u, b, _ in metrics.PER_LAYER]


def test_refuses_without_sources():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "regge-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == "", proc


def main() -> int:
    import pfcurv

    warnings.simplefilter("ignore", pfcurv.NonWellCenteredWarning)
    os.makedirs(WORK, exist_ok=True)
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
