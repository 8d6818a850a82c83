"""Run one workload of the rabispec benchmark and print its metrics.

    python3 perfbench/run.py --workload spectra --seed 0 --seconds 30 --trace 0

The inputs come from the seed (workloads.py).  A fresh worker process
(worker.py) imports rabispec from ./src and runs whole rounds of them as a
closed loop with one caller; a few more workers only time set-up.  This
process then checks every distinct output against the references in
reference.py and prints the metrics.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1).
"""
from __future__ import annotations

import os

# one BLAS thread in this process and, through the environment, in the workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse   # noqa: E402
import glob       # noqa: E402
import json       # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys        # noqa: E402

import checks     # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 8          # set-up-only workers, plus the measuring worker itself
WORKER_TIMEOUT = 150.0
P90_MIN_OPS = 100          # ten samples beyond p90
# Times are reported at a fixed reference speed: each is multiplied by
# CAL_REF_S over the median time of the calibration kernel (worker.Calibration)
# timed next to it -- before the operations within CAL_WINDOW of it, for an
# operation, and in the same process, for set-up.  3 ms is the kernel's time
# on the 2-core Xeon this benchmark was written on, when its neighbours were
# quiet.
CAL_REF_S = 3.0e-3
CAL_WINDOW = 10


def declared_metrics():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def call_worker(job):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "rabispec", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def scaled_times(records):
    """Operation times in ms at the reference speed."""
    out = []
    for k, (_, ms, _, _) in enumerate(records):
        near = records[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1]
        out.append(ms * CAL_REF_S / statistics.median(s for r in near for s in r[3]))
    return out


def judge(ops, result):
    """(attempted, failed, correct, notes) over every operation the run made.

    An operation fails when it raises, when its output fails its check, or
    (spectra) when a level in its window is oracle-assisted: the analytic
    path missed it.  ``correct`` is false only for the first two.
    """
    verdicts = {int(i): checks.check(ops[int(i)], out)
                for i, out in result["outputs"].items()}
    assisted = {int(i): checks.oracle_assisted(out)
                for i, out in result["outputs"].items()
                if ops[int(i)]["kind"] == "assemble"}
    failed, correct, notes = 0, True, []
    for i, _, error, _ in result["records"]:
        problems = ([error] if error else []) + verdicts.get(i, ["no output"])
        if problems:
            correct = False
            notes += [f"op {i}: {p}" for p in problems]
        if problems or assisted.get(i, 0):
            failed += 1
    for i, n in sorted(assisted.items()):
        if n:
            op = ops[i]
            notes.append(f"op {i} (g={op['g']}, delta={op['delta']}, eps={op['epsilon']}): "
                         f"{n} oracle-assisted level(s), counted as failed")
    return len(result["records"]), failed, correct, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics()
    ops = workloads.inputs(args.workload, args.seed)
    setups = [call_worker({"mode": "setup"}) for _ in range(SETUP_SAMPLES)]
    job = {"mode": "run", "ops": ops, "seconds": args.seconds,
           "trace": bool(args.trace)}
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        job["trace_file"] = os.path.join(
            HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        job["src_lines"] = src_lines()
    result = call_worker(job)
    setups.append(result)
    raw_setup = statistics.median(w["setup_s"] for w in setups)
    setup_s = statistics.median(
        w["setup_s"] * CAL_REF_S / statistics.median(w["setup_calibration_s"]) for w in setups)

    attempted, failed, correct, notes = judge(ops, result)
    raw_times = [r[1] for r in result["records"]]
    times = scaled_times(result["records"])
    for note in notes[:20]:
        print(f"note: {note}")
    print(f"info: {args.workload} seed {args.seed}: {attempted} operations in "
          f"{attempted // len(ops)} rounds of {len(ops)}, {failed} failed")
    print(f"info: before scaling to the reference speed: "
          f"ops_per_s {1e3 * attempted / sum(raw_times):.4f}, "
          f"op_ms_p50 {statistics.median(raw_times):.4f}, "
          f"setup_s {raw_setup:.4f}")
    if args.trace:
        print(f"info: reference figure, not a metric: src/rabispec has "
              f"{job['src_lines']} lines")
        print(f"info: spans written to {os.path.relpath(job['trace_file'], ROOT)}")
        # over the matched pairs of untraced and traced runs of each operation
        untraced, traced = (1e3 * len(recs) / sum(scaled_times(recs))
                            for recs in (result["paired"]["untraced"],
                                         result["paired"]["traced"]))
        values = dict(result["per_layer"], **{
            "trace.ops_per_s_untraced": untraced, "trace.ops_per_s_traced": traced,
            "trace.overhead_pct": 100.0 * (untraced - traced) / untraced})
    else:
        if attempted >= P90_MIN_OPS:
            p90 = statistics.quantiles(times, n=10)[8]
            print(f"info: op_ms_p90 {p90:.4f} ms over {attempted} operations "
                  f"(informational, not gated)")
        values = {"ops_per_s": 1e3 * attempted / sum(times),
                  "op_ms_p50": statistics.median(times),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": setup_s}
    units = declared[kind]
    if set(values) != set(units):
        raise SystemExit(f"measured {sorted(set(values) ^ set(units))} "
                         f"differ from BENCHMARK.json's {kind} metrics")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
