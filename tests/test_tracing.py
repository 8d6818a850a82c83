"""The benchmark's tracing shims (perfbench/tracing.py) over the library: the
locus layers report spans, and uninstalling puts every attribute back."""
import os
import sys

import rabispec

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402
import worker   # noqa: E402


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
