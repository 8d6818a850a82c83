"""The benchmark's tracing shims (perfbench/tracing.py) over the library: the
locus layers and a traced sweep report spans, the per-layer report runs, and
uninstalling puts every attribute back."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402
import worker   # noqa: E402

# the package with every module the tracer shims loaded, as the benchmark has it
rabispec = worker._import_rabispec()


def _shimmed():
    return {(owner, name): getattr(getattr(rabispec, owner), name.split(".")[1])
            for name, owners in tracing.SHIMS.items() for owner in owners}


def test_tracer_spans_the_warm_up_and_uninstalls():
    originals = {(owner, name): getattr(getattr(rabispec, owner), name.split(".")[1])
                 for name, owners in tracing.SHIMS.items() for owner in owners}
    tr = tracing.Tracer()
    tr.install(rabispec)
    try:
        worker._warm_up(rabispec)
    finally:
        tr.uninstall()
    names = {s[0] for s in tr.spans}
    assert {"heun.truncation_obstruction", "exceptional.scan_exceptional",
            "exceptional.find_crossings"} <= names
    # scan_exceptional's calls into heun are seen as its children
    parents = {tr.spans[s[1]][0] for s in tr.spans
               if s[0] == "heun.truncation_obstruction" and s[1] >= 0}
    assert "exceptional.scan_exceptional" in parents
    for (owner, name), fn in originals.items():
        assert getattr(getattr(rabispec, owner), name.split(".")[1]) is fn


def test_tracer_reports_a_sweep():
    originals = _shimmed()
    op = {"delta": 0.8, "epsilon": 0.15, "g_range": [0.05, 1.2], "steps": 2,
          "window": [-1.5, 3.0], "N_max": 2}
    tr = tracing.Tracer()
    tr.op = 0
    tr.install(rabispec)
    try:
        worker.run_sweep(rabispec, op)
    finally:
        tr.uninstall()
    top = next(s for s in tr.spans if s[0] == "spectrum.sweep")
    per_layer = tracing.report(tr.spans, 1, top[4] - top[3])
    assert per_layer["spectrum.assemble.calls"] == 2
    assert per_layer["analytic.wronskian_grid.calls"] >= 1
    parents = {tr.spans[s[1]][0] for s in tr.spans
               if s[0] == "analytic.wronskian_grid" and s[1] >= 0}
    assert parents == {"spectrum.sweep"}
    assert _shimmed() == originals
