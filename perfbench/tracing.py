"""Spans around calls into rabispec's public functions, and the per-layer report.

A shim replaces a function in every module that looks it up by name
(``spectrum`` imports ``find_regular_spectrum``, ``scan_exceptional`` and
``constraint_residual``; ``analytic`` imports ``build_series``), so calls made
inside the library are seen as well as the benchmark's own.  A span is
``[name, parent, op, start, end, info]``; spans stay in memory until the run
ends.  Self time is a span's duration minus that of its direct children.
"""
from __future__ import annotations

import time

# name of the span -> modules whose attribute of that name is replaced
SHIMS = {
    "analytic.wronskian_grid": ("analytic",),
    "analytic.find_regular_spectrum": ("analytic", "spectrum"),
    "heun.build_series": ("heun", "analytic"),
    "heun.truncation_obstruction": ("heun",),
    "oracle.eigen_in_window": ("oracle",),
    "oracle.eigen": ("oracle",),
    "oracle.build_hamiltonian": ("oracle",),
    "exceptional.scan_exceptional": ("exceptional", "spectrum"),
    "exceptional.constraint_residual": ("exceptional", "spectrum"),
    "exceptional.find_crossings": ("exceptional",),
    "states.reconstruct_exceptional_state": ("states",),
    "spectrum.assemble": ("spectrum",),
    "spectrum.sweep": ("spectrum",),
}

MATCH_TOL = 1e-9     # an analytic root and its assembled level


class Tracer:
    """Records spans while installed; ``op`` tags the operation under way."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._saved = []
        self._roots = None     # roots of the last find_regular_spectrum call

    def install(self, rabispec):
        mods = {m: getattr(rabispec, m) for m in
                ("analytic", "heun", "oracle", "exceptional", "states", "spectrum")}
        for name, owners in SHIMS.items():
            home, attr = name.split(".")
            wrapped = self._wrap(name, getattr(mods[home], attr))
            for owner in owners:
                self._saved.append((mods[owner], attr, getattr(mods[owner], attr)))
                setattr(mods[owner], attr, wrapped)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _wrap(self, name, fn):
        info_of = _INFO.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if info_of is not None:
                rec[5] = info_of(self, args, kwargs, res)
            return res

        return shim


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _grid_info(tr, args, kwargs, res):
    rel = res[2]
    return [int(rel.size), int(rel.sum())]


def _roots_info(tr, args, kwargs, res):
    tr._roots = [q.energy for q in res]
    return len(res)


def _eigen_info(tr, args, kwargs, res):
    k = _arg(args, kwargs, 1, "k")
    return [res.cutoff_used, int(res.converged_count < k)]


def _hamiltonian_info(tr, args, kwargs, res):
    return int(res.shape[0])


def _assemble_info(tr, args, kwargs, res):
    roots, tr._roots = tr._roots or [], None
    kept = [q.energy for q in res if q.provenance == "wronskian"]
    dropped = sum(1 for r in roots if not any(abs(r - e) <= MATCH_TOL for e in kept))
    assisted = sum(1 for q in res if q.provenance == "oracle-assisted")
    return [len(res), assisted, dropped]


def _count_info(tr, args, kwargs, res):
    return len(res)


_INFO = {
    "analytic.wronskian_grid": _grid_info,
    "analytic.find_regular_spectrum": _roots_info,
    "oracle.eigen": _eigen_info,
    "oracle.build_hamiltonian": _hamiltonian_info,
    "spectrum.assemble": _assemble_info,
    "exceptional.scan_exceptional": _count_info,
}


def report(spans, n_ops, op_seconds):
    """Per-layer metrics, per traced operation where they are counts or times.

    ``op_seconds`` is the summed duration of the traced operations.
    """
    calls, ms, child_ms, infos = {}, {}, {}, {}
    durations = [s[4] - s[3] for s in spans]
    for s, d in zip(spans, durations):
        calls[s[0]] = calls.get(s[0], 0) + 1
        ms[s[0]] = ms.get(s[0], 0.0) + 1e3 * d
        infos.setdefault(s[0], []).append(s[5])
        if s[1] >= 0:
            child_ms[s[1]] = child_ms.get(s[1], 0.0) + 1e3 * d
    self_ms = {}
    for i, (s, d) in enumerate(zip(spans, durations)):
        self_ms[s[0]] = self_ms.get(s[0], 0.0) + 1e3 * d - child_ms.get(i, 0.0)
    brackets = sum(1 for s in spans if s[0] == "exceptional.constraint_residual"
                   and s[1] >= 0 and spans[s[1]][0] == "exceptional.scan_exceptional")

    per_op = lambda v: v / n_ops
    c = lambda name: calls.get(name, 0)

    grid = infos.get("analytic.wronskian_grid", [])
    buckets = {"b_le16": [0.0, 0], "b_le1024": [0.0, 0], "b_gt1024": [0.0, 0]}
    grid_times = [1e6 * d for s, d in zip(spans, durations) if s[0] == "analytic.wronskian_grid"]
    for (n, _), us in zip(grid, grid_times):
        key = "b_le16" if n <= 16 else "b_le1024" if n <= 1024 else "b_gt1024"
        buckets[key][0] += us
        buckets[key][1] += n
    energies = sum(n for n, _ in grid)
    reliable = sum(r for _, r in grid)
    eig = infos.get("oracle.eigen", [])
    cutoffs = [cut for cut, _ in eig]
    dims = infos.get("oracle.build_hamiltonian", [])
    asm = infos.get("spectrum.assemble", [])
    points = sum(infos.get("exceptional.scan_exceptional", []))
    kernel_self = sum(v for k, v in self_ms.items()
                      if k.startswith(("analytic.", "oracle.")))
    m = {
        "analytic.wronskian_grid.calls": per_op(c("analytic.wronskian_grid")),
        "analytic.wronskian_grid.ms": per_op(ms.get("analytic.wronskian_grid", 0.0)),
        "analytic.wronskian_grid.energies": per_op(energies),
        "analytic.wronskian_grid.reliable_ratio": reliable / energies if energies else 0.0,
        "analytic.find_regular_spectrum.calls": per_op(c("analytic.find_regular_spectrum")),
        "analytic.find_regular_spectrum.self_ms":
            per_op(self_ms.get("analytic.find_regular_spectrum", 0.0)),
        "analytic.roots": per_op(sum(infos.get("analytic.find_regular_spectrum", []))),
        "oracle.eigen_in_window.calls": per_op(c("oracle.eigen_in_window")),
        "oracle.eigen_in_window.ms": per_op(ms.get("oracle.eigen_in_window", 0.0)),
        "oracle.eigen.calls": per_op(c("oracle.eigen")),
        "oracle.eigen.self_ms": per_op(self_ms.get("oracle.eigen", 0.0)),
        "oracle.build_hamiltonian.calls": per_op(c("oracle.build_hamiltonian")),
        "oracle.cutoff_mean": sum(cutoffs) / len(cutoffs) if cutoffs else 0.0,
        "oracle.cutoff_max": float(max(cutoffs, default=0)),
        "oracle.dense_flops_computed": per_op(float(sum(d ** 3 for d in dims))),
        "oracle.unconverged": per_op(sum(u for _, u in eig)),
        "heun.build_series.calls": per_op(c("heun.build_series")),
        "heun.build_series.ms": per_op(ms.get("heun.build_series", 0.0)),
        "heun.truncation_obstruction.calls": per_op(c("heun.truncation_obstruction")),
        "heun.truncation_obstruction.ms": per_op(ms.get("heun.truncation_obstruction", 0.0)),
        "exceptional.scan_exceptional.calls": per_op(c("exceptional.scan_exceptional")),
        "exceptional.scan_exceptional.self_ms":
            per_op(self_ms.get("exceptional.scan_exceptional", 0.0)),
        "exceptional.constraint_residual.calls": per_op(c("exceptional.constraint_residual")),
        "exceptional.constraint_residual.ms":
            per_op(ms.get("exceptional.constraint_residual", 0.0)),
        "exceptional.points": per_op(points),
        "exceptional.accept_ratio": points / brackets if brackets else 0.0,
        "exceptional.find_crossings.calls": per_op(c("exceptional.find_crossings")),
        "exceptional.find_crossings.ms": per_op(ms.get("exceptional.find_crossings", 0.0)),
        "states.reconstruct_exceptional_state.calls":
            per_op(c("states.reconstruct_exceptional_state")),
        "states.reconstruct_exceptional_state.ms":
            per_op(ms.get("states.reconstruct_exceptional_state", 0.0)),
        "spectrum.assemble.calls": per_op(c("spectrum.assemble")),
        "spectrum.assemble.self_ms": per_op(self_ms.get("spectrum.assemble", 0.0)),
        "spectrum.sweep.self_ms": per_op(self_ms.get("spectrum.sweep", 0.0)),
        "spectrum.levels": per_op(sum(a[0] for a in asm)),
        "spectrum.levels_oracle_assisted": per_op(sum(a[1] for a in asm)),
        "spectrum.analytic_dropped": per_op(sum(a[2] for a in asm)),
        "trace.spans": per_op(len(spans)),
        "trace.analytic_oracle_self_share": kernel_self / (1e3 * op_seconds),
    }
    for key, (us, n) in buckets.items():
        m[f"analytic.wronskian_grid.us_per_energy.{key}"] = us / n if n else 0.0
    return m
