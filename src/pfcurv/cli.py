"""Command-line front end.

Subcommands: info, curvature, action, volumes, hodge, check, gen.
Exit codes: 0 ok, 1 usage, 2 invalid mesh, 3 degenerate geometry,
4 unsupported request, 5 failed check.

CSV tables and the one-value lines of info, action and check print
floats with 17 significant digits (``%.17g``), so output can be diffed
across implementations; CSV writes NaN as ``nan`` and flags as 0/1.
JSON tables print floats with Python's shortest round-trip repr, NaN
as null and flags as false/true.  JSON tables, cochains and meshes keep
the indent-1 layout of ``json.dump`` byte for byte.  Warnings print as
``pfcurv: warning:`` lines on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import meshfile, meshgen
from .curvature import regge_action, target_columns
from .dec import hodge
from .errors import (
    DegenerateSimplex,
    DuplicateCell,
    InconsistentOrientation,
    MeshFileError,
    NonManifold,
    UnsupportedRequest,
    ZeroMeasureElement,
)

SKELETON_LABELS = ["V", "E", "F", "T"]

# CSV cell format by dtype kind
_CSV_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}


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


def _output(path):
    """Where output goes: stdout for None or ``-``, otherwise ``path``."""
    return sys.stdout if path in (None, "-") else path


def _emit_table(args, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns, one row per entry, in ``args.format``
    to ``args.output``; a 2-D column (vertex ids) joins its ids by ``-``."""
    csv = args.format == "csv"
    formats, fields = [], []
    for v in columns.values():
        if v.ndim == 2:
            fmt = "-".join(["%d"] * v.shape[1])
            formats.append(fmt if csv else f'"{fmt}"')
            fields += v.T.tolist()
        elif csv:
            formats.append(_CSV_FORMATS[v.dtype.kind])
            fields.append(v.tolist())
        else:  # the encoder's text, non-finite floats as null
            formats.append("%s")
            cells = np.where(np.isfinite(v), v, None) if v.dtype.kind == "f" else v
            fields.append(meshfile.json_cells(cells.tolist()))
    if csv:
        row = ",".join(formats) + "\n"
        text = ",".join(columns) + "\n" + "".join(row % r for r in zip(*fields))
    else:
        keys = [f"  {json.dumps(name)}: {fmt}" for name, fmt in zip(columns, formats)]
        text = meshfile.json_list(" {\n" + ",\n".join(keys) + "\n }", fields, "") + "\n"
    meshfile.write_text(_output(args.output), text)


# -- subcommands --------------------------------------------------------


def cmd_info(args) -> int:
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


def _measure_columns(m, k: int) -> dict[str, np.ndarray]:
    """The index, vertex ids, measure, dual measure and hybrid volume
    of every k-simplex."""
    rows = m.complex.simplices[k]
    return {
        "index": np.arange(len(rows)),
        "vertices": rows,
        "measure": m.volumes[k],
        "dual_measure": m.dual_volumes[k],
        "hybrid_volume": m.hybrid_volumes[k],
    }


def cmd_curvature(args) -> int:
    m = meshfile.read_mesh(args.mesh)
    carrier, cols = target_columns(m, args.at)
    table = _measure_columns(m, carrier)
    for name, col in cols.items():
        table[col.label(name, args.normalized)] = col.view(args.normalized, args.both_orientations)
    _emit_table(args, table)
    return 0


def cmd_action(args) -> int:
    m = meshfile.read_mesh(args.mesh)
    s = regge_action(
        m, prefactor=args.prefactor, include_boundary=args.include_boundary
    )
    print(_g17(s))
    return 0


def cmd_volumes(args) -> int:
    m = meshfile.read_mesh(args.mesh)
    if args.dim is not None:
        if not 0 <= args.dim <= m.dim:
            return _fail(4, f"no dimension-{args.dim} skeleton in a d={m.dim} mesh")
        _emit_table(args, _measure_columns(m, args.dim))
        return 0
    table = {
        "k": np.arange(m.dim + 1),
        "count": np.array([len(s) for s in m.complex.simplices]),
        "measure": np.array([a.sum() for a in m.volumes]),
        "dual_measure": np.array([a.sum() for a in m.dual_volumes]),
        "hybrid_volume": np.array([a.sum() for a in m.hybrid_volumes]),
    }
    _emit_table(args, table)
    return 0


def cmd_hodge(args) -> int:
    m = meshfile.read_mesh(args.mesh)
    out = hodge(meshfile.read_cochain(args.cochain, m))
    meshfile.write_cochain(_output(args.output), out)
    return 0


def cmd_check(args) -> int:
    # suites is the one module that importing the package does not load;
    # only this subcommand needs it
    from . import suites

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
    if args.generator == "flat-grid":
        m = meshgen.gen_flat_grid(args.dim, args.n)
    elif args.generator == "simplex-boundary":
        m = meshgen.gen_boundary_of_simplex(args.ambient_dim)
    elif args.generator == "icosphere":
        m = meshgen.gen_icosphere(args.level, radius=args.radius)
    else:  # perturb
        base = meshfile.read_mesh(args.input)
        m = meshgen.perturb_lengths(base, args.amplitude, args.seed)
    meshfile.write_mesh(_output(args.output), m)
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
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (MeshFileError, DuplicateCell, NonManifold, InconsistentOrientation, OSError) as exc:
        return _fail(2, str(exc))
    except (DegenerateSimplex, ZeroMeasureElement) as exc:
        return _fail(3, str(exc))
    except UnsupportedRequest as exc:
        return _fail(4, str(exc))

if __name__ == "__main__":
    raise SystemExit(main())
