"""Full spectrum assembly: regular + exceptional parts, oracle-audited.

Every assembled point is matched against the diagonalization oracle; oracle
eigenvalues that neither method reproduces are emitted as flagged gap entries
(provenance "oracle-assisted") rather than dropped, so discrepancies stay
visible.  Duplicates within the degeneracy tolerance collapse into one point,
whose degeneracy is the number of oracle eigenvalues matched to it.

A sweep finds the regular spectra of all its points in one batched
Wronskian search (``find_regular_spectra``) and then assembles and audits
each point on its own, recording per-point failures.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .model import RabiParams, SpectrumPoint
from . import heun
from .analytic import (exceptional_candidates, find_regular_spectra,
                       find_regular_spectrum)
from .exceptional import ExceptionalPoint, constraint_residual, scan_exceptional
from . import oracle as oracle_mod

GAP_TOL = 1e-4
DEDUP_TOL = oracle_mod.DEGENERACY_TOL    # one consistent scale
GROUP_AXIS_TOL = 1e-6     # coincident markers: axis value ...
GROUP_ENERGY_TOL = 1e-7   # ... and energy


@dataclass
class SweepResult:
    axis: str                           # "g" | "epsilon"
    axis_values: np.ndarray
    levels: List[List[SpectrumPoint]]
    markers: List[ExceptionalPoint]
    marker_groups: List[dict]
    metadata: dict = field(default_factory=dict)


def _exceptional_points_at(p: RabiParams, e_min: float, e_max: float,
                           N_max: int, tol: float) -> List[SpectrumPoint]:
    """The candidates in the window with 1 <= N <= N_max whose truncation
    residual is at most tol."""
    return [SpectrumPoint(energy=E, kind="exceptional", residual=res, N=N,
                          branch=branch, provenance="truncation")
            for N, branch, E in exceptional_candidates(p, e_min, e_max)
            if 1 <= N <= N_max
            for res in [constraint_residual(N, branch, p, tol=tol)] if res <= tol]


def _cluster(values: np.ndarray, tol: float) -> List[List[int]]:
    """Indices of ascending values grouped by gaps below tol."""
    groups: List[List[int]] = []
    for i in range(len(values)):
        if groups and values[i] - values[groups[-1][-1]] < tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def assemble(p: RabiParams, e_window: Tuple[float, float], N_max: int = 4,
             tol: float = heun.TRUNC_TOL, grid_n: int = 600, *,
             regular: Optional[List[SpectrumPoint]] = None) -> List[SpectrumPoint]:
    """Merged, deduplicated, oracle-audited spectrum in the window.

    ``regular`` is the regular spectrum of ``p`` in the window, as
    ``find_regular_spectrum`` returns it; it is computed here when absent
    (``sweep`` passes the points of its batched search).  Raises LinAlgError
    if an oracle eigenvalue in the window is unconverged.
    """
    e_min, e_max = e_window
    if not (e_min < e_max):
        raise ValueError(f"invalid window [{e_min}, {e_max}]")
    if grid_n < 100:
        raise ValueError(f"grid_n must be >= 100, got {grid_n}")
    orc = oracle_mod.eigen_in_window(p, e_min, e_max)
    eigs = orc.eigenvalues
    if orc.converged_count < eigs.size:
        raise np.linalg.LinAlgError(
            f"oracle unconverged at cutoff {orc.cutoff_used}: "
            f"{orc.converged_count} of {eigs.size} eigenvalues in the window")

    if p.g == 0.0:
        # the analytic coordinate degenerates at g = 0: oracle-only mode
        return [SpectrumPoint(energy=float(e), kind="regular", residual=float("nan"),
                              oracle_delta=0.0, degeneracy=len(grp),
                              provenance="oracle-only")
                for grp in _cluster(eigs, DEDUP_TOL)
                for e in [float(np.mean(eigs[grp]))]]

    if regular is None:
        regular = find_regular_spectrum(p, e_min, e_max, grid_n=grid_n)
    candidates = regular + _exceptional_points_at(p, e_min, e_max, N_max, tol)
    candidates.sort(key=lambda q: q.energy)

    # collapse duplicates, preferring the exceptional (closed-form) entry; the
    # audit below sets each point's degeneracy from its oracle cluster
    merged: List[SpectrumPoint] = []
    for pt in candidates:
        if not (merged and abs(pt.energy - merged[-1].energy) < DEDUP_TOL):
            merged.append(pt)
        elif pt.kind == "exceptional" and merged[-1].kind != "exceptional":
            merged[-1] = pt

    # audit against the oracle: assign eigenvalue clusters to points
    clusters = _cluster(eigs, DEDUP_TOL)
    matched = [0] * len(merged)
    deltas = [float("inf")] * len(merged)
    gaps: List[SpectrumPoint] = []
    for grp in clusters:
        e_c = float(np.mean(eigs[grp]))
        best, best_d = None, float("inf")
        for i, pt in enumerate(merged):
            d = abs(pt.energy - e_c)
            if d < best_d:
                best, best_d = i, d
        if best is not None and best_d <= GAP_TOL:
            matched[best] += len(grp)
            deltas[best] = min(deltas[best], best_d)
        else:
            gaps.append(SpectrumPoint(energy=e_c, kind="regular",
                                      residual=float("nan"), oracle_delta=0.0,
                                      degeneracy=len(grp),
                                      provenance="oracle-assisted"))

    out: List[SpectrumPoint] = []
    for i, pt in enumerate(merged):
        if matched[i] == 0:
            continue                      # no oracle partner: spurious, drop
        out.append(replace(pt, degeneracy=matched[i], oracle_delta=deltas[i]))
    out.extend(gaps)
    out.sort(key=lambda q: q.energy)
    return out


def sweep(p_template: RabiParams, axis: str, axis_range: Tuple[float, float],
          steps: int, e_window: Tuple[float, float], N_max: int = 2,
          tol: float = heun.TRUNC_TOL, grid_n: int = 300) -> SweepResult:
    """Spectrum along a g or epsilon sweep plus exceptional-locus markers.

    The regular spectra of all points with g != 0 come from one batched
    ``find_regular_spectra`` search; each point is then assembled and
    oracle-audited on its own.  Per-point failures of the analytic path or
    the oracle (ValueError, DivergentSeriesError, LinAlgError) are recorded
    in the metadata and the sweep continues; an inverted e_window or a
    grid_n below 100 is rejected up front, by that search.
    ``axis`` names the ``RabiParams`` field swept.  Markers found by the
    locus scan are grouped into degenerate coincidences (same axis value and
    energy), each counted on the oracle by the scan's one batch.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if axis not in ("g", "epsilon"):
        raise ValueError(f"axis must be 'g' or 'epsilon', got {axis!r}")
    lo, hi = axis_range
    axis_values = np.linspace(lo, hi, steps)
    points = [replace(p_template, **{axis: float(v)}) for v in axis_values]
    # one batched search for every point off g = 0 (those are oracle-only)
    with_g = [i for i, pv in enumerate(points) if pv.g != 0.0]
    regular = dict(zip(with_g, find_regular_spectra(
        [points[i] for i in with_g], *e_window, grid_n=grid_n)))
    levels: List[List[SpectrumPoint]] = []
    failures = []
    for i, (v, pv) in enumerate(zip(axis_values, points)):
        try:
            levels.append(assemble(pv, e_window, N_max=N_max, tol=tol,
                                   grid_n=grid_n, regular=regular.get(i)))
        except (ValueError, heun.DivergentSeriesError, np.linalg.LinAlgError) as exc:
            # keep sweeping, report the hole
            failures.append({"axis_value": float(v), "error": repr(exc)})
            levels.append([])

    markers = scan_exceptional(p_template, N_max=N_max, tol=tol,
                               **{f"{axis}_range": (lo, hi)})

    marker_groups = _group_markers(markers, axis, e_window)

    max_step = 0.0
    for i in range(len(axis_values) - 1):
        a = [q.energy for q in levels[i]]
        b = [q.energy for q in levels[i + 1]]
        for e in a:
            if b:
                max_step = max(max_step, min(abs(e - x) for x in b))
    meta = {
        "failures": failures,
        "gap_counts": [sum(1 for q in lv if q.provenance == "oracle-assisted")
                       for lv in levels],
        "max_level_step": max_step,
    }
    return SweepResult(axis=axis, axis_values=axis_values, levels=levels,
                       markers=markers, marker_groups=marker_groups,
                       metadata=meta)


def _group_markers(markers: List[ExceptionalPoint], axis: str,
                   e_window: Tuple[float, float]) -> List[dict]:
    """Coincident markers (same value of the ``RabiParams`` field ``axis``
    within GROUP_AXIS_TOL, energy within GROUP_ENERGY_TOL) form degenerate
    groups.

    A group's oracle_degeneracy is the ``oracle_count`` of its first member:
    the converged oracle eigenvalues within 1e-6 of its energy, as the scan
    counted them.
    """
    def axis_of(pt):
        return getattr(pt.params, axis)

    left = [m for m in markers if e_window[0] <= m.energy <= e_window[1]]
    groups = []
    while left:
        m = left[0]
        near = [abs(axis_of(q) - axis_of(m)) <= GROUP_AXIS_TOL
                and abs(q.energy - m.energy) <= GROUP_ENERGY_TOL for q in left]
        groups.append([q for q, c in zip(left, near) if c])
        left = [q for q, c in zip(left, near) if not c]
    return [{"axis_value": axis_of(group[0]),
             "energy": group[0].energy,
             "members": [(q.N, q.branch) for q in group],
             "degeneracy": len(group),
             "oracle_degeneracy": group[0].oracle_count}
            for group in groups]
