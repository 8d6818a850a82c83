"""Command-line interface: scans, sweeps, spectra and the verification suite.

The library takes reduced parameters (omega = 1) only.  The CLI alone takes
physical inputs: --omega (finite and above 0, default 1) sets the scale, and
g, delta, epsilon and the energy window are divided by it once, where the
arguments are read; all emitted energies are E/omega.  Output is CSV with a
'#'-prefixed metadata header, or JSON with the same schema; both are
deterministic for a fixed config (and, for ``verify``, seed).

Exit codes: 0 success, 1 verification failure, 2 bad arguments, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import List, Optional

import numpy as np

from .model import RabiParams
from . import heun
from .analytic import exceptional_candidates, find_regular_spectrum, wronskian_grid
from .exceptional import constraint_residual, find_crossings, scan_exceptional
from . import oracle as oracle_mod
from .spectrum import assemble, sweep
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_ARGS = 2
EXIT_IO = 3


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_output(path: Optional[str], text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _render_csv(meta: dict, header: List[str], rows: List[list],
                footer: Optional[List[str]] = None) -> str:
    lines = [f"# {k}: {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    if footer:
        lines.extend(footer)
    return "\n".join(lines) + "\n"


def _render_json(meta: dict, header: List[str], rows: List[list],
                 extra: Optional[dict] = None) -> str:
    doc = {"metadata": {k: (_fmt(v) if isinstance(v, (bool, np.bool_)) else v)
                        for k, v in meta.items()},
           "columns": header,
           "rows": [[None if v is None else
                     (bool(v) if isinstance(v, (bool, np.bool_)) else
                      (float(v) if isinstance(v, (float, np.floating)) else v))
                     for v in row] for row in rows]}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(args, meta: dict, header: List[str], rows: List[list],
          footer: Optional[List[str]] = None, extra: Optional[dict] = None) -> None:
    """Render in args.format (CSV takes the footer, JSON the extra keys) and
    write to args.out."""
    text = (_render_csv(meta, header, rows, footer) if args.format == "csv"
            else _render_json(meta, header, rows, extra))
    _write_output(args.out, text)


def _base_meta(args, command: str) -> dict:
    return {
        "command": command,
        "omega": args.omega,
        "g": args.g,
        "delta": args.delta,
        "epsilon": args.epsilon,
        "units": "inputs in physical units; all emitted energies are E/omega (reduced, omega=1)",
    }


def _params(args) -> RabiParams:
    w = args.omega
    return RabiParams(g=args.g / w, delta=args.delta / w, epsilon=args.epsilon / w)


def _omega(spec: str) -> float:
    try:
        w = float(spec)
    except ValueError:
        w = math.nan
    if not (math.isfinite(w) and w > 0):
        raise argparse.ArgumentTypeError(f"omega must be finite and > 0, got {spec!r}")
    return w


def _parse_range(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be a:b:steps, got {spec!r}")
    a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 2 or not a < b:
        raise argparse.ArgumentTypeError(f"need a < b and steps >= 2 in {spec!r}")
    return a, b, steps


def cmd_wronskian_scan(args) -> int:
    p = _params(args)
    e_min, e_max = args.e_min / args.omega, args.e_max / args.omega
    meta = _base_meta(args, "wronskian-scan")
    meta.update({"e_min": args.e_min, "e_max": args.e_max, "grid": args.grid,
                 "tol": args.tol})
    header = ["E_over_omega", "w_plus", "w_minus", "reliable"]
    if e_min >= e_max:
        _emit(args, meta, header, [])
        return EXIT_OK
    grid = np.linspace(e_min, e_max, args.grid)
    wp, wm, rel = wronskian_grid(grid, p)
    rows = [[grid[i], wp[i], wm[i], bool(rel[i])] for i in range(len(grid))]
    zeros = [q.energy for q in find_regular_spectrum(p, e_min, e_max,
                                                     grid_n=max(args.grid, 100))]
    cands = []
    for (N, branch, E) in exceptional_candidates(p, e_min, e_max):
        is_exc = N >= 1 and constraint_residual(N, branch, p, tol=args.tol) <= args.tol
        cands.append((N, branch, E, is_exc))
    footer = [f"# zero: E_over_omega={_fmt(z)}" for z in zeros]
    footer += [f"# exceptional-candidate: N={n} branch={b} E_over_omega={_fmt(e)} "
               f"is_exceptional={_fmt(x)}" for (n, b, e, x) in cands]
    _emit(args, meta, header, rows, footer, extra={
        "zeros": zeros,
        "exceptional_candidates": [
            {"N": n, "branch": b, "E_over_omega": e, "is_exceptional": bool(x)}
            for (n, b, e, x) in cands]})
    return EXIT_OK


def cmd_spectrum(args) -> int:
    p = _params(args)
    window = (args.e_min / args.omega, args.e_max / args.omega)
    pts = assemble(p, window, N_max=args.n_max, grid_n=args.grid, tol=args.tol)
    meta = _base_meta(args, "spectrum")
    meta.update({"e_min": args.e_min, "e_max": args.e_max, "N_max": args.n_max,
                 "grid": args.grid, "tol": args.tol})
    header = ["E_over_omega", "kind", "N", "branch", "residual", "oracle_delta",
              "degeneracy", "provenance"]
    rows = [[q.energy, q.kind, q.N, q.branch, q.residual, q.oracle_delta,
             q.degeneracy, q.provenance] for q in pts]
    _emit(args, meta, header, rows)
    return EXIT_OK


def cmd_sweep(args) -> int:
    p = _params(args)
    lo, hi, steps = args.range
    window = (args.e_min / args.omega, args.e_max / args.omega)
    result = sweep(p, args.axis, (lo, hi), steps, window, N_max=args.n_max,
                   tol=args.tol, grid_n=args.grid)
    meta = _base_meta(args, "sweep")
    meta.update({"axis": args.axis, "range": f"{lo}:{hi}:{steps}",
                 "e_min": args.e_min, "e_max": args.e_max, "N_max": args.n_max,
                 "tol": args.tol,
                 "failures": len(result.metadata["failures"]),
                 "oracle_assisted": sum(result.metadata["gap_counts"]),
                 "max_level_step": result.metadata["max_level_step"]})
    header = ["axis_value", "level_index", "E_over_omega", "kind", "N",
              "branch", "degeneracy"]
    rows = []
    for v, level in zip(result.axis_values, result.levels):
        for i, q in enumerate(level):
            kind = q.kind
            if q.provenance in ("oracle-only", "oracle-assisted"):
                kind = f"{q.kind}({q.provenance})"
            rows.append([v, i, q.energy, kind, q.N, q.branch, q.degeneracy])
    marker_header = ["axis_value", "N", "branch", "E_over_omega", "degeneracy",
                     "oracle_degeneracy"]
    marker_rows = []
    for grp in result.marker_groups:
        for (N, branch) in grp["members"]:
            marker_rows.append([grp["axis_value"], N, branch, grp["energy"],
                                grp["degeneracy"], grp["oracle_degeneracy"]])
    _emit(args, meta, header, rows, extra={
        "marker_columns": marker_header,
        "markers": [[float(r[0]), r[1], r[2], float(r[3]), r[4], r[5]]
                    for r in marker_rows]})
    if args.format == "csv":
        marker_text = _render_csv(meta, marker_header, marker_rows)
        if args.out not in (None, "-"):
            _write_output(args.out + ".markers.csv", marker_text)
        else:
            sys.stdout.write(marker_text)
    return EXIT_OK


def cmd_exceptional(args) -> int:
    p = _params(args)
    lo, hi, steps = args.range
    pts = scan_exceptional(p, N_max=args.n_max, tol=args.tol, grid=max(steps, 200),
                           **{f"{args.axis}_range": (lo, hi)})
    meta = _base_meta(args, "exceptional")
    meta.update({"axis": args.axis, "range": f"{lo}:{hi}:{steps}",
                 "N_max": args.n_max, "tol": args.tol})
    header = ["axis_value", "N", "branch", "E_over_omega", "residual"]
    rows = [[getattr(pt.params, args.axis), pt.N, pt.branch, pt.energy,
             pt.constraint_residual] for pt in pts]
    _emit(args, meta, header, rows)
    return EXIT_OK


def cmd_crossings(args) -> int:
    cr = find_crossings(args.delta / args.omega, args.n1, args.n2)
    meta = {"command": "crossings", "omega": args.omega, "delta": args.delta,
            "n1": args.n1, "n2": args.n2,
            "units": "inputs in physical units; energies and g are reduced"}
    header = ["N1", "N2", "epsilon_star", "g_star", "delta_relation",
              "E_over_omega", "boundary", "found"]
    if cr is None:
        rows = [[args.n1, args.n2, 0.5 * (args.n2 - args.n1), None, None, None,
                 False, False]]
    else:
        rows = [[cr.N1, cr.N2, cr.epsilon_star, cr.g_star, cr.delta_relation,
                 cr.energy, cr.boundary, True]]
    _emit(args, meta, header, rows)
    return EXIT_OK


def cmd_oracle(args) -> int:
    p = _params(args)
    res = oracle_mod.eigen(p, args.k, tol=args.tol)
    meta = _base_meta(args, "oracle")
    meta.update({"k": args.k, "tol": args.tol, "cutoff_used": res.cutoff_used,
                 "converged_count": res.converged_count})
    header = ["index", "E_over_omega"]
    rows = [[i, float(e)] for i, e in enumerate(res.eigenvalues)]
    _emit(args, meta, header, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    only = None
    if args.only:
        only = [int(tok) for tok in args.only.split(",")]
    results = verify_mod.run_all(seed=args.seed, tol=args.tol, only=only)
    all_pass = all(r.passed for r in results)
    meta = {"command": "verify", "seed": args.seed, "tol": args.tol,
            "criteria": args.only or "all"}
    header = ["index", "name", "passed", "details"]
    rows = [[r.index, r.name, r.passed, r.details] for r in results]
    if args.format == "csv":
        lines = [f"# {k}: {_fmt(v)}" for k, v in meta.items()]
        lines += [r.line for r in results]
        lines.append(f"RESULT: {'PASS' if all_pass else 'FAIL'} "
                     f"({sum(r.passed for r in results)}/{len(results)})")
        text = "\n".join(lines) + "\n"
    else:
        text = _render_json(meta, header, rows,
                            extra={"all_passed": all_pass})
    _write_output(args.out, text)
    for r in results:
        print(f"[{r.duration:7.2f}s] {r.line}", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def _add_common(sub, *, energy_window=False, grid=None):
    sub.add_argument("--g", type=float, default=0.2, help="coupling strength")
    sub.add_argument("--delta", type=float, default=0.8, help="tunneling splitting")
    sub.add_argument("--epsilon", type=float, default=0.1, help="parity-breaking bias")
    sub.add_argument("--omega", type=_omega, default=1.0, help="oscillator frequency (unit scale)")
    if energy_window:
        sub.add_argument("--e-min", type=float, default=-1.5)
        sub.add_argument("--e-max", type=float, default=1.5)
    if grid is not None:
        sub.add_argument("--grid", type=int, default=grid, help="energy grid points")
    sub.add_argument("--tol", type=float, default=1e-10, help="acceptance tolerance")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="-", help="output path ('-' for stdout)")


def _add_axis(sub, *, steps: int, n_max: int):
    sub.add_argument("--axis", choices=("g", "epsilon"), default="g")
    sub.add_argument("--range", type=_parse_range, default=(0.05, 1.2, steps),
                     help="a:b:steps; a may be negative (--range -0.6:0.6:200)")
    sub.add_argument("--n-max", type=int, default=n_max)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rabispec",
        description="Spectrum of the biased quantum Rabi model: Wronskian zeros, "
                    "exceptional points, crossings, and a diagonalization oracle.")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("wronskian-scan", help="W+ over an energy grid (= W- at z = 0)")
    _add_common(s, energy_window=True, grid=601)
    s.set_defaults(func=cmd_wronskian_scan)

    s = sp.add_parser("spectrum", help="assembled spectrum in an energy window")
    _add_common(s, energy_window=True, grid=600)
    s.add_argument("--n-max", type=int, default=4, help="largest exceptional index N")
    s.set_defaults(func=cmd_spectrum)

    s = sp.add_parser("sweep", help="spectrum along a g or epsilon sweep")
    _add_common(s, energy_window=True, grid=300)
    _add_axis(s, steps=60, n_max=2)
    s.set_defaults(func=cmd_sweep)

    s = sp.add_parser("exceptional", help="exceptional points along a sweep")
    _add_common(s)
    _add_axis(s, steps=400, n_max=4)
    s.set_defaults(func=cmd_exceptional)

    s = sp.add_parser("crossings", help="two-fold degeneracy of exceptional points")
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--omega", type=_omega, default=1.0)
    s.add_argument("--n1", type=int, required=True)
    s.add_argument("--n2", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_crossings)

    s = sp.add_parser("oracle", help="diagonalization eigenvalues")
    _add_common(s)
    s.add_argument("--k", type=int, default=6, help="number of eigenvalues")
    s.set_defaults(func=cmd_oracle)

    s = sp.add_parser("verify", help="run the acceptance suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float, default=heun.TRUNC_TOL)
    s.add_argument("--only", default="", help="comma-separated criterion indices")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):    # argparse reads -0.6:... as an option
        if argv[i - 1] == "--range" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = ["--range=" + argv[i]]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
