"""Command-line front end.

Subcommands: info, curvature, action, volumes, hodge, check, gen.
Exit codes: 0 ok, 1 usage, 2 invalid mesh, 3 degenerate geometry,
4 unsupported request, 5 failed check.

All numbers are printed with 17 significant digits so output can be
diffed across implementations.  Warnings print as ``pfcurv: warning:``
lines on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

# The handlers import numpy and the package, so usage errors stay fast.

SKELETON_LABELS = ["V", "E", "F", "T"]


def _g17(x) -> str:
    return format(float(x), ".17g")


def _fail(code: int, message: str) -> int:
    print(f"pfcurv: error: {message}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return _g17(v)
    return str(v)


def _json_cell(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _emit_table(args, header: list[str], rows: list[list]) -> None:
    fmt = getattr(args, "format", "csv")
    fh, close = _open_out(getattr(args, "output", None))
    try:
        if fmt == "csv":
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows([[_csv_cell(v) for v in row] for row in rows])
        else:
            records = [
                dict(zip(header, (_json_cell(v) for v in row))) for row in rows
            ]
            json.dump(records, fh, indent=1)
            fh.write("\n")
    finally:
        if close:
            fh.close()


# -- subcommands --------------------------------------------------------


def cmd_info(args) -> int:
    from . import meshfile

    m = meshfile.read_mesh(args.mesh)
    c = m.complex
    d = c.dim
    parts = [f"d={d}"]
    for k in range(d + 1):
        label = SKELETON_LABELS[k] if k < len(SKELETON_LABELS) else f"C{k}"
        parts.append(f"{label}={c.n_simplices(k)}")
    parts.append(f"χ={c.euler_characteristic()}")
    parts.append(f"boundary={int(c.is_boundary[d - 1].sum())}")
    print(" ".join(parts))
    print(f"well-centered: {_g17(100.0 * m.well_centered_fraction())}%")
    return 0


ELEMENT_HEADER = ["index", "vertices", "measure", "dual_measure", "hybrid_volume"]


def _measure_columns(m, kp: int):
    meas = m.volumes[kp]
    dual = m.dual_volumes[kp]
    hyb = meas * dual / math.comb(m.dim, kp)
    return meas, dual, hyb


def _element_rows(m, k: int) -> list[list]:
    """The ``ELEMENT_HEADER`` columns of every k-simplex."""
    names = ["-".join(map(str, s)) for s in m.complex.simplices[k].tolist()]
    cols = [c.tolist() for c in _measure_columns(m, k)]
    return [list(r) for r in zip(range(len(names)), names, *cols)]


def cmd_curvature(args) -> int:
    from . import meshfile
    from .curvature import target_columns

    m = meshfile.read_mesh(args.mesh)
    carrier, cols = target_columns(m, args.at)
    names = [col.label(name, args.normalized) for name, col in cols.items()]
    values = [col.view(args.normalized, args.both_orientations).tolist() for col in cols.values()]
    rows = [row + list(extra) for row, extra in zip(_element_rows(m, carrier), zip(*values))]
    _emit_table(args, ELEMENT_HEADER + names, rows)
    return 0


def cmd_action(args) -> int:
    from . import meshfile
    from .curvature import regge_action

    m = meshfile.read_mesh(args.mesh)
    s = regge_action(
        m, prefactor=args.prefactor, include_boundary=args.include_boundary
    )
    print(_g17(s))
    return 0


def cmd_volumes(args) -> int:
    from . import meshfile

    m = meshfile.read_mesh(args.mesh)
    c = m.complex
    if args.dim is not None:
        if not 0 <= args.dim <= m.dim:
            return _fail(4, f"no dimension-{args.dim} skeleton in a d={m.dim} mesh")
        header, rows = ELEMENT_HEADER, _element_rows(m, args.dim)
    else:
        header = ["k", "count", "measure", "dual_measure", "hybrid_volume"]
        rows = []
        for k in range(m.dim + 1):
            meas, dual, hyb = _measure_columns(m, k)
            rows.append(
                [k, c.n_simplices(k), float(meas.sum()), float(dual.sum()), float(hyb.sum())]
            )
    _emit_table(args, header, rows)
    return 0


def cmd_hodge(args) -> int:
    from . import meshfile
    from .dec import hodge

    m = meshfile.read_mesh(args.mesh)
    w = meshfile.read_cochain(args.cochain, m)
    out = hodge(w)
    fh, close = _open_out(args.output)
    try:
        meshfile.write_cochain(fh, out)
    finally:
        if close:
            fh.close()
    return 0


def cmd_check(args) -> int:
    from . import meshfile, suites

    m = meshfile.read_mesh(args.mesh)
    results = suites.run_suite(m, args.suite)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok &= r.passed
        print(f"{status} {r.name}: residual {_g17(r.residual)} tol {_g17(r.tol)}")
    if not ok:
        return _fail(5, "one or more invariant checks failed")
    return 0


def cmd_gen(args) -> int:
    from . import meshfile, meshgen

    if args.generator == "flat-grid":
        m = meshgen.gen_flat_grid(args.dim, args.n)
    elif args.generator == "simplex-boundary":
        m = meshgen.gen_boundary_of_simplex(args.ambient_dim)
    elif args.generator == "icosphere":
        m = meshgen.gen_icosphere(args.level, radius=args.radius)
    else:  # perturb
        base = meshfile.read_mesh(args.input)
        m = meshgen.perturb_lengths(base, args.amplitude, args.seed)
    fh, close = _open_out(args.output)
    try:
        meshfile.write_mesh(fh, m)
    finally:
        if close:
            fh.close()
    return 0


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="pfcurv",
        description=(
            "Discrete exterior calculus and Regge curvature on piecewise "
            "flat simplicial manifolds, from squared edge lengths alone."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    q = sub.add_parser("info", help="print skeleton counts and mesh summary")
    q.add_argument("mesh")
    q.set_defaults(func=cmd_info)

    q = sub.add_parser("curvature", help="write a curvature report")
    q.add_argument("mesh")
    q.add_argument(
        "--at",
        choices=["hinges", "dual-edges", "edges", "vertices", "dual-vertices"],
        default="hinges",
    )
    q.add_argument("--normalized", action="store_true")
    q.add_argument(
        "--both-orientations",
        action="store_true",
        help="sum the two hinge-plane orientations (doubles Riemann/Ricci)",
    )
    q.add_argument("--format", choices=["csv", "json"], default="csv")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_curvature)

    q = sub.add_parser("action", help="print the total deficit-weighted action")
    q.add_argument("mesh")
    q.add_argument("--prefactor", type=float, default=1.0)
    q.add_argument("--include-boundary", action="store_true")
    q.set_defaults(func=cmd_action)

    q = sub.add_parser("volumes", help="print measure / dual / hybrid tables")
    q.add_argument("mesh")
    q.add_argument("--dim", type=int, default=None)
    q.add_argument("--format", choices=["csv", "json"], default="csv")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_volumes)

    q = sub.add_parser("hodge", help="apply the diagonal star to a cochain file")
    q.add_argument("mesh")
    q.add_argument("cochain")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_hodge)

    q = sub.add_parser("check", help="run invariant self-check suites")
    q.add_argument("mesh")
    q.add_argument(
        "--suite", choices=["volumes", "dec", "curvature", "all"], default="all"
    )
    q.set_defaults(func=cmd_check)

    q = sub.add_parser("gen", help="generate a mesh file")
    q.set_defaults(func=cmd_gen)
    gsub = q.add_subparsers(dest="generator", required=True, parser_class=_Parser)

    g = gsub.add_parser("flat-grid")
    g.add_argument("--dim", type=int, choices=[2, 3, 4], default=2)
    g.add_argument("--n", type=int, default=3)
    g.add_argument("-o", "--output", default=None)

    g = gsub.add_parser("simplex-boundary")
    g.add_argument("--ambient-dim", type=int, default=3)
    g.add_argument("-o", "--output", default=None)

    g = gsub.add_parser("icosphere")
    g.add_argument("--level", type=int, default=0)
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("-o", "--output", default=None)

    g = gsub.add_parser("perturb")
    g.add_argument("input")
    g.add_argument("--amplitude", type=float, default=0.05)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default=None)

    return p


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"pfcurv: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from .errors import (
        DegenerateSimplex,
        DuplicateCell,
        InconsistentOrientation,
        MeshFileError,
        NonManifold,
        UnsupportedPair,
        ZeroMeasureElement,
    )

    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (MeshFileError, DuplicateCell, NonManifold, InconsistentOrientation, OSError) as exc:
        return _fail(2, str(exc))
    except (DegenerateSimplex, ZeroMeasureElement) as exc:
        return _fail(3, str(exc))
    except (UnsupportedPair, ValueError) as exc:
        return _fail(4, str(exc))

if __name__ == "__main__":
    raise SystemExit(main())
