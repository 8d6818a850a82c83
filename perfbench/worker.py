"""The measured process: imports rabispec from the checkout and runs one job.

Reads a JSON job on stdin and writes one JSON result on stdout.  It imports
neither scipy nor the references, so its set-up time and peak RSS are the
program's own.

    {"mode": "setup"}                        import, report set-up
    {"mode": "run", "ops": [...], "seconds": s, "trace": false}
    {"mode": "run", ..., "trace": true, "trace_file": path, "src_lines": n}

A run repeats ``ops`` for the whole number of rounds whose operation time
comes nearest to ``seconds``, judged from the first round.  After its first
round, a traced run runs each operation twice, once with the shims and once
without, for rounds of about half of ``seconds``; the tracing overhead comes
from these matched pairs.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_rabispec():
    sys.path.insert(0, SRC)
    import rabispec
    import rabispec.analytic, rabispec.exceptional, rabispec.heun    # noqa: E401
    import rabispec.oracle, rabispec.spectrum, rabispec.states       # noqa: E401
    if not os.path.abspath(rabispec.__file__).startswith(SRC + os.sep):
        raise ImportError(f"rabispec imported from {rabispec.__file__}, not {SRC}")
    return rabispec


def _warm_up(rs):
    """One small call into every layer the workloads use."""
    p = rs.model.RabiParams(g=0.2, delta=0.8, epsilon=0.1)
    rs.spectrum.assemble(p, (-1.5, 1.5))
    rs.exceptional.scan_exceptional(p, g_range=(0.05, 1.0), N_max=1, grid=200)
    rs.exceptional.find_crossings(0.8, 1, 2)
    rs.states.reconstruct_exceptional_state(p, "minus", N=1)


def _levels(points):
    return [[q.energy, q.degeneracy, q.provenance, q.kind, q.N, q.branch]
            for q in points]


def _point(pt):
    return [pt.N, pt.branch, pt.params.g, pt.params.delta, pt.params.epsilon,
            pt.energy]


def run_assemble(rs, op):
    p = rs.model.RabiParams(g=op["g"], delta=op["delta"], epsilon=op["epsilon"])
    return rs.spectrum.assemble(p, tuple(op["window"]))


def run_sweep(rs, op):
    p = rs.model.RabiParams(g=0.1, delta=op["delta"], epsilon=op["epsilon"])
    return rs.spectrum.sweep(p, "g", tuple(op["g_range"]), op["steps"],
                             tuple(op["window"]), N_max=op["N_max"])


def run_loci(rs, op):
    ex = rs.exceptional
    along_g = ex.scan_exceptional(
        rs.model.RabiParams(g=0.1, delta=op["delta"], epsilon=op["epsilon"]),
        g_range=tuple(op["g_range"]), N_max=op["g_N_max"], oracle_check=True)
    along_eps = ex.scan_exceptional(
        rs.model.RabiParams(g=op["g"], delta=op["delta"], epsilon=0.0),
        epsilon_range=tuple(op["epsilon_range"]), N_max=op["epsilon_N_max"],
        oracle_check=True)
    crossings = [ex.find_crossings(op["delta"], n1, n2) for n1, n2 in op["pairs"]]
    states = [(pt, rs.states.reconstruct_exceptional_state(pt.params, pt.branch, N=1))
              for pt in along_g + along_eps if pt.N == 1]
    return along_g, along_eps, crossings, states


def serialize(kind, out):
    if kind == "assemble":
        return {"levels": _levels(out)}
    if kind == "sweep":
        return {"axis_values": [float(v) for v in out.axis_values],
                "levels": [_levels(lv) for lv in out.levels],
                "markers": [_point(m) for m in out.markers],
                "groups": [[grp["axis_value"], grp["energy"], grp["degeneracy"],
                            grp["oracle_degeneracy"]] for grp in out.marker_groups],
                "failures": len(out.metadata["failures"])}
    along_g, along_eps, crossings, states = out
    return {"along_g": [_point(pt) for pt in along_g],
            "along_eps": [_point(pt) for pt in along_eps],
            "crossings": [None if c is None else
                          [c.N1, c.N2, c.epsilon_star, c.g_star, c.energy, c.boundary]
                          for c in crossings],
            "states": [_point(pt) + [s.amplitudes.tolist()] for pt, s in states]}


RUNNERS = {"assemble": run_assemble, "sweep": run_sweep, "loci": run_loci}

CAL_SAMPLES = 3        # calibration samples before every operation
SETUP_CAL_SAMPLES = 15  # right after set-up, to scale that process's set-up time


class Calibration:
    """A fixed kernel, independent of rabispec, timed between operations.

    The machine's speed drifts by 20-50% over minutes (other tenants share
    its cores).  The kernel mixes an interpreter loop, small-array numpy
    calls and a dense symmetric eigensolve, as the operations do; the median
    of its times over a run measures the speed the run saw.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((160, 160))
        self.matrix = a + a.T
        self.vector = rng.standard_normal(256)

    def kernel(self):
        np = self.np
        s = 0.0
        for i in range(12000):
            s += (i % 7) * 0.5
        y = self.vector
        for _ in range(60):
            y = np.where(y > 0.0, 0.5 * y, y + 1.0)
        np.linalg.eigvalsh(self.matrix)
        return s

    def sample(self, n=CAL_SAMPLES):
        """Times of n runs of the kernel, in seconds."""
        clock = time.perf_counter
        times = []
        for _ in range(n):
            t0 = clock()
            self.kernel()
            times.append(clock() - t0)
        return times


def _op(rs, i, op, outputs, records, cal, tracer=None):
    """Run ops[i] once, with the shims installed if a tracer is given;
    returns its time in seconds."""
    clock = time.perf_counter
    cal_s = cal.sample()
    if tracer is not None:
        tracer.op = len(records)
        tracer.install(rs)
    error = None
    try:
        t0 = clock()
        try:
            out = RUNNERS[op["kind"]](rs, op)
        finally:
            t1 = clock()
    except Exception:                           # reported as a failed operation
        error = traceback.format_exc(limit=3)
    else:
        text = json.dumps(serialize(op["kind"], out))
        if i not in outputs:
            outputs[i] = text
        elif outputs[i] != text:
            error = "output differs from the first round's"
    finally:
        if tracer is not None:
            tracer.uninstall()
    records.append([i, 1e3 * (t1 - t0), error, cal_s])
    return t1 - t0


def _round(rs, ops, outputs, records, cal):
    """One pass over ops; returns its summed operation time in seconds."""
    return sum(_op(rs, i, op, outputs, records, cal) for i, op in enumerate(ops))


def _rounds(target, first):
    """Whole rounds nearest to target seconds, given the first round's time."""
    return max(1, round(target / first))


def run(rs, job):
    ops, seconds = job["ops"], job["seconds"]
    outputs, records = {}, []
    result = {}
    cal = Calibration()
    first = _round(rs, ops, outputs, records, cal)
    if job.get("trace"):
        # every operation runs once untraced and once traced, back to back and
        # in alternating order, so the overhead comes from matched pairs
        from tracing import Tracer, report
        untraced, traced = [], []
        tracer = Tracer()
        spent = 0.0
        for r in range(_rounds(seconds / 2, first)):
            for i, op in enumerate(ops):
                pair = [(untraced, None), (traced, tracer)]
                if (r * len(ops) + i) % 2:
                    pair.reverse()
                for recs, tr in pair:
                    dt = _op(rs, i, op, outputs, recs, cal, tr)
                    if tr is not None:
                        spent += dt
        records += untraced + traced
        result["paired"] = {"untraced": untraced, "traced": traced}
        result["per_layer"] = report(tracer.spans, len(traced), spent)
        with open(job["trace_file"], "w") as fh:
            json.dump({"src_rabispec_lines": job["src_lines"],
                       "per_layer": result["per_layer"],
                       "span_fields": ["name", "parent", "op", "start", "end", "info"],
                       "spans": tracer.spans}, fh)
    else:
        for _ in range(_rounds(seconds, first) - 1):
            _round(rs, ops, outputs, records, cal)
    result["records"] = records
    result["outputs"] = {str(i): json.loads(t) for i, t in outputs.items()}
    return result


def main():
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    rs = _import_rabispec()
    setup_s = time.perf_counter() - t0
    setup_cal_s = Calibration().sample(SETUP_CAL_SAMPLES)
    result = {}
    if job["mode"] == "run":
        # rabispec has no warm-up of its own; this keeps first-call costs out
        # of the first timed operation, and out of setup_s
        _warm_up(rs)
        result = run(rs, job)
    result["setup_s"] = setup_s
    result["setup_calibration_s"] = setup_cal_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
