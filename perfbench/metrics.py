"""The benchmark's metrics: names, units, bounds and what each should move.

``BENCHMARK.json`` lists the same names, units and directions; the
``moves`` text of each per-layer metric (which end-to-end metric it
should move, on which workload) lives here because that file admits no
other keys. ``python3 perfbench/selftest.py`` checks that the two agree.
"""

from __future__ import annotations

import os
import statistics

SETUP_SAMPLES = 5  # fresh interpreters per untraced run; setup_s is their median

WORKLOADS = {
    "cli-surface": "every op re-reads and rebuilds a 20k-triangle mesh: file, complex and CLI output cost, little curvature",
    "regge-sweep": "metric rebuild plus action per op on closed d=3 and d=4 tori, no file or complex work: metric and dihedral cost",
    "curvature-report": "reports and checks on d=2..4 meshes with boundary: curvature aggregation, hybrid volumes, DEC and suites",
}

# name, unit, better, bound (share of the parent's median), definition.
# Wall-time bounds are the largest allowed: on a 2-vCPU KVM guest (Xeon),
# the 10-second median of one fixed 0.1 s op ranged from 94 to 182 ms
# over eight minutes, in slow spells lasting up to two minutes (host
# contention). Runs of any affordable length share such a spell, so
# run-to-run spreads of 10-30% are machine noise, not benchmark design.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "fresh interpreter to first op ready: import pfcurv (numpy, scipy), plus "
     "read_mesh of the session inputs on regge-sweep; median of SETUP_SAMPLES"),
    ("op_s_p50", "s", "lower", 0.25, "median wall seconds per timed op"),
    ("op_s_tail", "s", "lower", 0.25,
     "highest percentile of op wall with at least ten ops beyond it (the 11th "
     "slowest op); the percentile and op count are in the report line"),
    ("cells_per_s", "1/s", "higher", 0.25, "top cells processed per second of timed op wall"),
    ("peak_rss_mb", "MB", "lower", 0.10, "peak resident memory of the workload process"),
]

_OP_CLI = "op_s_p50 on cli-surface and curvature-report"
_OP_CLI_FILES = "op_s_p50 and cells_per_s on cli-surface; setup_s on regge-sweep"
_OP_COMPLEX = "op_s_p50 on cli-surface; no effect on regge-sweep"
_OP_METRIC = "op_s_p50 on regge-sweep and curvature-report"
_OP_HYBRID = "op_s_p50 on curvature-report; zero on regge-sweep"
_OP_CURV = "op_s_p50 on curvature-report; via the action also regge-sweep and the cli-surface action op"
_OP_DEC = "cells_per_s on curvature-report (check op); dec.hodge on the cli-surface hodge op"

LOC_MODULES = ("__init__", "cli", "complex", "curvature", "dec", "errors",
               "geometry", "meshfile", "meshgen", "suites")


def _spans(names, fields, moves):
    units = {"self_s": ("s/op", "lower"), "calls": ("1/op", "lower")}
    return [(f"{n}.{f}", *units[f], moves) for n in names for f in fields]


# name, unit, better, which end-to-end metric it should move and where
PER_LAYER = [
    ("import.pfcurv_s", "s", "lower", "setup_s on every workload"),
    ("cli.main.self_s", "s/op", "lower", _OP_CLI),
    ("cli.rows_out", "rows/op", "higher", _OP_CLI),
    ("cli.bytes_out", "B/op", "lower", _OP_CLI),
    *_spans(["meshfile.read_mesh"], ["self_s", "calls"], _OP_CLI_FILES),
    ("meshfile.bytes_in", "B/op", "lower", _OP_CLI_FILES),
    *_spans(["meshfile.read_cochain", "meshfile.write_cochain"], ["self_s"], _OP_CLI_FILES),
    *_spans(["complex.build_complex", "complex.hinges"], ["self_s"], _OP_COMPLEX),
    *_spans(["complex.cofaces", "complex.faces", "complex.boundary_matrix"], ["self_s", "calls"], _OP_COMPLEX),
    *_spans(["geometry.MetricComplex", "geometry.dihedral_angle"], ["self_s", "calls"], _OP_METRIC),
    ("geometry.dihedral_angle.distinct_ratio", "ratio", "higher", _OP_METRIC),
    *_spans(["geometry.shared_hybrid_volume", "geometry.restricted_measure"], ["self_s", "calls"], _OP_HYBRID),
    *_spans(["geometry.hybrid_volume_from_flags", "geometry.dual_volume"], ["calls"], _OP_HYBRID),
    *_spans(["curvature.deficit"], ["self_s", "calls"], _OP_CURV),
    ("curvature.deficit.per_hinge", "1/hinge", "lower", _OP_CURV),
    *_spans(["curvature.ricci_dual_edge", "curvature.ricci_simplicial_edge",
             "curvature.scalar_vertex", "curvature.curvature_report"], ["self_s", "calls"], _OP_CURV),
    *_spans(["curvature.regge_action"], ["self_s"], _OP_CURV),
    *_spans(["dec.hodge", "dec.exterior_derivative", "dec.coderivative",
             "dec.transfer_density", "dec.l2_inner_product"], ["self_s", "calls"], _OP_DEC),
    *_spans(["suites.volume_checks", "suites.dec_checks", "suites.curvature_checks"], ["self_s"], _OP_DEC),
    ("suites.results", "1/op", "higher", _OP_DEC),
    ("meshgen.perturb_lengths.self_s", "s", "lower", "input preparation only; moves no end-to-end metric"),
    *[(f"loc.{m}", "lines", "lower", "src/pfcurv line count for simplicity changes; not gated")
      for m in LOC_MODULES],
    ("loc.total", "lines", "lower", "src/pfcurv line count for simplicity changes; not gated"),
    ("trace.overhead_ratio", "ratio", "lower", "traced wall over untraced wall of the same ops, minus 1"),
]


def end_to_end_values(raw: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and the report fields behind them."""
    walls = sorted(op["wall"] for op in raw["ops"])
    n = len(walls)
    # the 11th slowest op has ten ops beyond it
    tail_rank = max(n - 11, 0)
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": walls[tail_rank],
        "cells_per_s": sum(op["cells"] for op in raw["ops"]) / sum(walls),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    report = {
        "ops_timed": n,
        "op_s_tail_percentile": 100.0 * (tail_rank + 1) / n,
        "ops_beyond_tail": n - 1 - tail_rank,
        "setup_samples": setup_samples,
    }
    return values, report


def src_line_counts(src_dir: str) -> dict[str, int]:
    counts = {}
    for m in LOC_MODULES:
        path = os.path.join(src_dir, f"{m}.py")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                counts[m] = sum(1 for _ in f)
        else:
            counts[m] = 0
    total = 0
    for fname in os.listdir(src_dir):
        if fname.endswith(".py"):
            with open(os.path.join(src_dir, fname), encoding="utf-8") as f:
                total += sum(1 for _ in f)
    counts["total"] = total
    return counts


def per_layer_values(raw: dict, perturb_self_s: float, loc: dict[str, int]) -> tuple[dict, list[str]]:
    """Per-layer metric values (per traced op) and the absent span names."""
    ops = raw["traced_ops"]
    table = raw["table"]
    absent = []
    values = {}
    for name, _, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name == "import.pfcurv_s":
            v = raw["import_s"]
        elif name == "cli.main.self_s":
            v = sum(t["self_s"] for k, t in table.items() if k.startswith("cli.")) / ops
        elif name in ("cli.rows_out", "cli.bytes_out", "meshfile.bytes_in", "suites.results"):
            v = raw[field] / ops
        elif name == "meshgen.perturb_lengths.self_s":
            v = perturb_self_s
        elif head == "loc":
            v = loc[field]
        elif name == "trace.overhead_ratio":
            v = raw["traced_wall"] / raw["plain_wall"] - 1.0
        else:  # a field of one wrapped function
            if head not in table:
                absent.append(head)
            calls = table.get(head, {}).get("calls", 0)
            distinct = raw["distinct"].get(head, 0)
            if field == "distinct_ratio":
                v = distinct / calls if calls else 0.0
            elif field == "per_hinge":
                v = calls / distinct if distinct else 0.0
            else:
                v = table.get(head, {}).get(field, 0) / ops
        values[name] = v
    return values, sorted(set(absent))
