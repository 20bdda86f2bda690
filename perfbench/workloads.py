"""Workload child process: set-up, warm-up, closed-loop ops and gates.

``run.py`` starts this script in a fresh interpreter, one per set-up
sample and one per measured run:

    python3 perfbench/workloads.py <mode> <workload> <seed> <seconds> <inputs> <work>

``mode`` is ``setup`` (set up, report ready, exit), ``run`` (untraced
closed loop) or ``trace`` (ops with the outside-in tracer installed,
then the first of them untraced and traced in pairs, for the tracer's
cost). One client sends one op at a time and waits for it (a closed
loop). Only the pfcurv calls of an op are timed; inputs are drawn
before and outputs are gated after. Ops run in whole cycles and stop at
the cycle boundary nearest to ``seconds`` of timed op wall, once at
least ``MIN_OPS`` ops ran.

The child prints ``ready`` once set up, then one JSON line of raw
results that ``run.py`` turns into metrics.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback
import warnings

SWEEP_AMPLITUDE = 0.05  # relative redraw of each squared length per sweep op
MIN_OPS = 11  # so that op_s_tail has ten ops beyond it
# Every report target (edge targets need d >= 3), plus the normalized and
# both-orientations Ricci conventions on the edge targets. The two extra
# requests also give each d >= 3 mesh seven ops of one cost, so that the
# median and the 11th-slowest op of a cycle fall inside one mesh's group
# rather than on the step between two meshes' costs.
REQUESTS = (("hinges",), ("dual-edges",), ("edges",), ("vertices",), ("dual-vertices",),
            ("edges", "--normalized"), ("dual-edges", "--both-orientations"))


def set_up(workload: str, inputs: str):
    """Everything before the first op: import, plus session reads."""
    t0 = time.perf_counter()
    import pfcurv
    import pfcurv.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    # a non-well-centered mesh warns on every construction; printing
    # the warning is not part of any op
    warnings.simplefilter("ignore", pfcurv.NonWellCenteredWarning)
    session = {}
    if workload == "regge-sweep":
        for name in ("torus3", "torus4"):
            session[name] = pfcurv.read_mesh(os.path.join(inputs, f"{name}.json"))
    return import_s, session


class Op:
    """One closed-loop request: ``call(i)`` is timed, ``gate`` is not."""

    def __init__(self, label: str, cells: int, call, gate, prepare=None, collect=None):
        self.label = label
        self.cells = cells
        self.call = call
        self.gate = gate
        self.prepare = prepare or (lambda i: None)
        self.collect = collect or (lambda result: result)


def _cli(argv):
    from pfcurv import cli

    def call(_):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    return call


def _read_output(path):
    def collect(result):
        if os.path.exists(path):
            with open(path) as f:
                result["file"] = f.read()
            os.remove(path)
        return result

    return collect


def _cli_gate(check):
    def gate(result):
        if result["rc"] != 0:
            return f"exit code {result['rc']}: {result['stderr'].strip()[-200:]}"
        return check(result)

    return gate


def cli_surface_ops(inputs: str, work: str, seed: int) -> list[Op]:
    import checks
    import inputs as seeded

    mesh_path = os.path.join(inputs, "ico5.json")
    cochain_path = os.path.join(inputs, "ico5_v0.json")
    mesh = checks.Mesh(mesh_path)
    cells = len(mesh.cells)
    dual = checks.vertex_dual_areas(mesh)
    vid = sorted(set(mesh.cells.ravel().tolist()))
    values = seeded.vertex_cochain(seed, len(vid))
    vol_out = os.path.join(work, "volumes.json")
    hodge_out = os.path.join(work, "hodge.json")
    return [
        Op("info", cells, _cli(["info", mesh_path]),
           _cli_gate(lambda r: checks.gate_info(r["stdout"], mesh))),
        Op("action", cells, _cli(["action", mesh_path]),
           _cli_gate(lambda r: checks.gate_gauss_bonnet_action(r["stdout"]))),
        Op("volumes", cells,
           _cli(["volumes", mesh_path, "--dim", "0", "--format", "json", "-o", vol_out]),
           _cli_gate(lambda r: checks.gate_vertex_volumes(r.get("file", "[]"), mesh, dual)),
           collect=_read_output(vol_out)),
        Op("hodge", cells, _cli(["hodge", mesh_path, cochain_path, "-o", hodge_out]),
           _cli_gate(lambda r: checks.gate_hodge(r.get("file", "{}"), values, dual[vid])),
           collect=_read_output(hodge_out)),
    ]


def regge_sweep_ops(inputs: str, session: dict, seed: int) -> list[Op]:
    import numpy as np

    import checks
    import pfcurv

    tori = []
    for name in ("torus3", "torus4"):
        m = session[name]
        ref = checks.Mesh(os.path.join(inputs, f"{name}.json"))
        edges = m.complex.simplices[1]
        tori.append((m.complex, m.edge_lengths_sq, ref, ref.edge_slots(edges[:, 0], edges[:, 1])))
    drawn = {}

    def prepare(i):
        rng = np.random.default_rng([seed, i])
        drawn["l2"] = [
            base * (1.0 + rng.uniform(-SWEEP_AMPLITUDE, SWEEP_AMPLITUDE, base.shape[0]))
            for _, base, _, _ in tori
        ]

    def call(_):
        # looked up per call, so that the tracer's rebinding is seen
        return [
            pfcurv.regge_action(pfcurv.MetricComplex(c, l2))
            for (c, _, _, _), l2 in zip(tori, drawn["l2"])
        ]

    def gate(actions):
        for (_, _, ref, slots), l2, value in zip(tori, drawn["l2"], actions):
            file_order = np.empty_like(l2)
            file_order[slots] = l2
            reason = checks.gate_action(value, ref, file_order)
            if reason:
                return reason
        return None

    cells = sum(ref.cells.shape[0] for _, _, ref, _ in tori)
    return [Op("sweep", cells, call, gate, prepare=prepare)]


def curvature_report_ops(inputs: str) -> list[Op]:
    import checks

    per_mesh = []
    for name in ("ico3", "grid3", "grid4"):
        path = os.path.join(inputs, f"{name}.json")
        mesh = checks.Mesh(path)
        sizes = mesh.skeleton_sizes()
        cells = len(mesh.cells)
        ops = [
            Op(f"{name}:curvature:{' '.join(req)}", cells,
               _cli(["curvature", path, "--at", *req]),
               _cli_gate(lambda r, t=req[0], m=mesh, s=sizes: checks.gate_report(r["stdout"], t, m, s)))
            for req in REQUESTS if mesh.dim >= 3 or not req[0].endswith("edges")
        ]
        ops.append(Op(f"{name}:check", cells, _cli(["check", path, "--suite", "all"]),
                      _cli_gate(lambda r: checks.gate_check(r["stdout"]))))
        per_mesh.append(ops)
    # Round-robin over the meshes: machine speed drifts over tens of
    # seconds, and the median op is a grid3 op, so spreading each mesh's
    # ops over the cycle keeps the median from sampling one short window.
    return [op for group in itertools.zip_longest(*per_mesh) for op in group if op is not None]


class Loop:
    """Runs ops one at a time, times the call alone, gates each result."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.keep_results = False  # the traced pass keeps outputs to count rows and bytes
        self.attempted = 0
        self.failures: list[dict] = []

    def run_op(self, op: Op, i: int, tracer=None) -> dict:
        op.prepare(i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = op.call(i)
            error = None
        except Exception:  # an op that raises is a failed op, not a crash
            result = None
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if error is None:
            result = op.collect(result)
            try:
                error = op.gate(result)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                error = f"malformed output: {e!r}"
        self.attempted += 1
        if error is not None:
            self.failures.append({"op": i, "label": op.label, "reason": error})
        return {"label": op.label, "wall": wall, "cells": op.cells,
                "result": result if self.keep_results else None}

    def cycles(self, seconds: float, tracer=None):
        """Whole cycles, stopping at the boundary nearest to ``seconds`` of
        op wall. Nearest, not first past: a cycle that takes about
        ``seconds`` would otherwise run once or twice by chance, and the op
        count decides which op is the tail."""
        records = []
        busy = 0.0
        done = 0
        i = 1  # op 0 is the warm-up
        while True:
            for op in self.ops:
                rec = self.run_op(op, i, tracer)
                busy += rec["wall"]
                records.append(rec)
                i += 1
            done += 1
            if len(records) >= MIN_OPS and busy + busy / done / 2.0 >= seconds:
                return records, done


def output_rows(text: str) -> int:
    """Rows a CLI op wrote: CSV data rows, JSON records or cochain values,
    else lines."""
    if not text:
        return 0
    try:
        doc = json.loads(text)
    except ValueError:
        lines = text.splitlines()
        return len(lines) - 1 if lines[0].startswith("index,") else len(lines)
    if isinstance(doc, dict):
        return len(doc.get("values", [doc]))
    return len(doc) if isinstance(doc, list) else 1


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, inputs, work = argv
    seed, seconds = int(seed), float(seconds)
    import_s, session = set_up(workload, inputs)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if workload == "cli-surface":
        ops = cli_surface_ops(inputs, work, seed)
    elif workload == "regge-sweep":
        ops = regge_sweep_ops(inputs, session, seed)
    else:
        ops = curvature_report_ops(inputs)
    loop = Loop(ops)
    loop.run_op(ops[0], 0)  # warm-up: lazy imports, first-touch allocations
    import numpy
    import scipy

    out = {"import_s": import_s, "warmup_ops": 1,
           "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if mode == "run":
        records, cycles = loop.cycles(seconds)
        out["ops"] = [{"wall": r["wall"], "cells": r["cells"], "label": r["label"]} for r in records]
        out["cycles"] = cycles
    else:
        from tracer import Tracer

        # whole cycles traced, so that per-op counts repeat exactly ...
        tracer = Tracer()
        tracer.install()
        loop.keep_results = True
        traced, cycles = loop.cycles(seconds / 2.0, tracer=tracer)
        tracer.uninstall()
        loop.keep_results = False
        tracer.dump(os.path.join(work, "spans.npz"))
        # ... then the first ops again, each untraced and traced back to
        # back so that both see the same machine speed, for the overhead
        plain_wall = traced_wall = 0.0
        probe = Tracer()
        for i, op in enumerate(itertools.cycle(ops), start=1):
            if plain_wall >= seconds / 4.0:
                break
            plain_wall += loop.run_op(op, i)["wall"]
            probe.install()
            traced_wall += loop.run_op(op, i, probe)["wall"]
            probe.uninstall()
        texts = [r["result"].get(k, "") for r in traced if isinstance(r["result"], dict)
                 for k in ("stdout", "file")]
        out.update({
            "cycles": cycles,
            "traced_ops": len(traced),
            "plain_wall": plain_wall,
            "traced_wall": traced_wall,
            "table": tracer.table(),
            "distinct": tracer.distinct,
            "bytes_in": tracer.bytes_in,
            "results": tracer.results,
            "rows_out": sum(output_rows(t) for t in texts),
            "bytes_out": sum(len(t.encode()) for t in texts),
            "spans_kept": tracer.kept,
            "spans_dropped": tracer.n_spans - tracer.kept,
        })
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["attempted"] = loop.attempted
    out["failures"] = loop.failures
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
