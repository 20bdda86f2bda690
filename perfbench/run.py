"""pfcurv benchmark: one seeded workload per run, or all three.

    python3 perfbench/run.py --workload {cli-surface,regge-sweep,curvature-report,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from ``src/``
(nothing is installed). Each run:

1. builds the workload's inputs from the seed, once per seed, under
   ``perfbench/_work/inputs`` (``inputs.py``);
2. with ``--trace 0``, times set-up in ``SETUP_SAMPLES`` fresh
   interpreters, runs a closed loop of ops for ``--seconds`` in the
   middle one and reports the end-to-end metrics;
3. with ``--trace 1``, runs whole cycles of ops traced by the outside-in
   tracer (``tracer.py``), replays the first ops untraced and traced in
   pairs for the tracer's overhead, and reports the per-layer metrics.

Children run with the BLAS and OpenMP thread pools pinned to one thread.
Every op's output is gated (``checks.py``); a failure is counted, never
hidden. The second-to-last line of stdout is a JSON report (machine,
versions, sample counts, tail percentile, failures); the last line is the
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
import metrics  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float, log: str, ready: bool = False) -> tuple[float, str]:
    """Start a child interpreter; return (seconds until it printed
    ``ready`` if asked to wait for that, its last stdout line). The child
    is always waited for."""
    cmd = [sys.executable, *args]
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            setup_s = None
            if ready:
                if not select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))[0]:
                    raise subprocess.TimeoutExpired(cmd, deadline)
                if proc.stdout.readline().strip() != "ready":
                    raise ChildFailed(f"{' '.join(args[:3])}: no ready line")
                setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        with open(log) as f:
            tail = f.read()[-2000:]
        raise ChildFailed(f"{' '.join(args[:3])} exited {proc.returncode}:\n{tail}")
    lines = out.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "threads": {var: "1" for var in THREAD_VARS}}


def ensure_inputs(workload: str, seed: int, deadline: float) -> tuple[str, dict]:
    path = os.path.join(WORK, "inputs", workload, f"seed-{seed}")
    manifest = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest):
        os.makedirs(path, exist_ok=True)
        run_child([os.path.join(HERE, "inputs.py"), workload, str(seed), path],
                  deadline, os.path.join(path, "build.log"))
    with open(manifest) as f:
        return path, json.load(f)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    inputs, manifest = ensure_inputs(workload, seed, deadline)
    work = os.path.join(WORK, "runs", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    script = os.path.join(HERE, "workloads.py")
    log = os.path.join(work, "child.log")
    probe = [script, "setup", workload, str(seed), "0", inputs, work]
    n_probes = 0 if trace else metrics.SETUP_SAMPLES - 1
    try:
        # set-up probes before and after the measured run, so that the
        # setup_s median does not sample one moment of machine speed
        setup = [run_child(probe, deadline, log, ready=True)[0] for _ in range(n_probes // 2)]
        mode = "trace" if trace else "run"
        ready, line = run_child([script, mode, workload, str(seed), str(seconds), inputs, work],
                                deadline, log, ready=True)
        setup.append(ready)
        setup += [run_child(probe, deadline, log, ready=True)[0] for _ in range(n_probes - n_probes // 2)]
        raw = json.loads(line)
        if trace:
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(os.path.join(work, "spans.npz"),
                        os.path.join(traces, f"{workload}-seed{seed}.npz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(raw["failures"])
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": {**machine(), **raw["versions"]},
              "attempted": raw["attempted"], "warmup_ops": raw["warmup_ops"],
              "cycles": raw["cycles"], "error_rate": failed / raw["attempted"],
              "failures": raw["failures"][:5]}
    if trace:
        loc = metrics.src_line_counts(os.path.join(SRC, "pfcurv"))
        values, absent = metrics.per_layer_values(raw, manifest["perturb_lengths_self_s"], loc)
        units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
        report.update({"traced_ops": raw["traced_ops"], "absent": absent,
                       "spans_kept": raw["spans_kept"], "spans_dropped": raw["spans_dropped"],
                       "spans": raw["table"]})
    else:
        values, extra = metrics.end_to_end_values(raw, setup)
        units = {name: unit for name, unit, _, _, _ in metrics.END_TO_END}
        report.update(extra)
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return report, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*metrics.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "pfcurv", "__init__.py")):
        print(f"run.py: no pfcurv sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            report, result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
            print(f"run.py: {name}: {e}", file=sys.stderr)
            return 1
        print(json.dumps(report))
        if len(names) > 1:
            print(json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
