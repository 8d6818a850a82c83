import math
from dataclasses import replace

import numpy as np
import pytest

from rabispec import oracle
from rabispec.model import RabiParams
from rabispec.spectrum import assemble, sweep

P_EXC = RabiParams(g=0.2, delta=0.8, epsilon=0.1)


def test_assemble_exceptional_window():
    pts = assemble(P_EXC, (-1.5, 1.5))
    assert len(pts) == 4
    kinds = [q.kind for q in pts]
    assert kinds.count("regular") == 3
    assert kinds.count("exceptional") == 1
    exc = next(q for q in pts if q.kind == "exceptional")
    assert exc.N == 1 and exc.branch == "minus"
    assert exc.energy == pytest.approx(0.86, abs=1e-12)
    assert all(q.oracle_delta <= 1e-6 for q in pts)
    assert all(q.degeneracy == 1 for q in pts)
    assert not [q for q in pts if q.provenance == "oracle-assisted"]


def test_assemble_small_g_all_regular():
    pts = assemble(RabiParams(g=0.1, delta=0.8, epsilon=0.1), (-1.5, 1.5))
    assert len(pts) == 4
    assert all(q.kind == "regular" for q in pts)
    assert all(q.oracle_delta <= 1e-6 for q in pts)


def test_assemble_crossing_degeneracy():
    g = 0.5 * math.sqrt(2.0 - 0.64)
    pts = assemble(RabiParams(g=g, delta=0.8, epsilon=0.5), (-1.0, 1.5), N_max=2)
    deg2 = [q for q in pts if q.degeneracy == 2]
    assert len(deg2) == 1
    assert deg2[0].energy == pytest.approx(1.16, abs=1e-9)
    assert deg2[0].kind == "exceptional"


def test_assemble_completeness_counts():
    from rabispec import oracle
    for p in (P_EXC, RabiParams(g=0.4, delta=0.8, epsilon=0.1)):
        pts = assemble(p, (-1.5, 1.5))
        orc = oracle.eigen_in_window(p, -1.5, 1.5)
        assert sum(q.degeneracy for q in pts) == len(orc.eigenvalues)


def test_assemble_g0_oracle_only():
    pts = assemble(RabiParams(g=0.0, delta=0.8, epsilon=0.1), (-1.5, 1.5))
    assert pts
    assert all(q.provenance == "oracle-only" and q.kind == "regular" for q in pts)
    s = math.sqrt(0.8 ** 2 + 0.1 ** 2)
    assert pts[0].energy == pytest.approx(-s, abs=1e-10)


def test_assemble_validates_window():
    with pytest.raises(ValueError):
        assemble(P_EXC, (1.0, -1.0))
    # at g = 0 the finder is never reached, so assemble checks grid_n itself
    with pytest.raises(ValueError, match="grid_n"):
        assemble(RabiParams(g=0.0, delta=0.8, epsilon=0.1), (-1.5, 1.5), grid_n=50)


def test_sweep_two_steps_well_formed():
    res = sweep(P_EXC, "g", (0.15, 0.25), steps=2, e_window=(-1.5, 1.5), N_max=1)
    assert res.axis == "g"
    assert len(res.axis_values) == 2
    assert len(res.levels) == 2
    assert all(len(lv) >= 3 for lv in res.levels)
    assert res.metadata["failures"] == []
    # one marker: the N = 1 minus point at g = 0.2 inside the range
    assert any(abs(m.params.g - 0.2) < 1e-8 for m in res.markers)


def test_sweep_level_continuity():
    res = sweep(P_EXC, "g", (0.1, 0.4), steps=13, e_window=(-1.5, 1.5), N_max=1)
    assert res.metadata["max_level_step"] < 0.5


def test_sweep_epsilon_axis():
    res = sweep(RabiParams(g=0.2, delta=0.8, epsilon=0.0), "epsilon",
                (0.05, 0.15), steps=3, e_window=(0.0, 1.5), N_max=1)
    assert len(res.levels) == 3
    assert any(abs(m.params.epsilon - 0.1) < 1e-8 and m.branch == "minus"
               for m in res.markers)


def test_sweep_validates():
    with pytest.raises(ValueError):
        sweep(P_EXC, "g", (0.1, 0.4), steps=1, e_window=(-1, 1))
    with pytest.raises(ValueError):
        sweep(P_EXC, "x", (0.1, 0.4), steps=3, e_window=(-1, 1))
    # raised up front, not recorded as a failure at every point
    with pytest.raises(ValueError, match="grid_n"):
        sweep(P_EXC, "g", (0.15, 0.25), steps=2, e_window=(-1.5, 1.5), grid_n=50)


def test_sweep_rejects_inverted_window():
    with pytest.raises(ValueError):
        sweep(RabiParams(g=0.1, delta=0.8, epsilon=0.1), "g", (0.05, 1.2), 3, (1.0, 0.0))


def test_sweep_is_one_wronskian_batch(monkeypatch):
    # all points share one grid call and one refinement loop; each point's
    # levels equal its own assemble call
    from rabispec import analytic
    calls = []
    real = analytic.wronskian_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    window = (-1.5, 3.0)
    monkeypatch.setattr(analytic, "wronskian_grid", counted)
    res = sweep(RabiParams(g=0.1, delta=0.8, epsilon=0.15), "g", (0.05, 1.2),
                steps=6, e_window=window, N_max=2)
    assert len(calls) <= 12
    monkeypatch.undo()
    assert res.metadata["failures"] == []
    for v, lv in zip(res.axis_values, res.levels):
        alone = assemble(RabiParams(g=float(v), delta=0.8, epsilon=0.15), window,
                         N_max=2, grid_n=300)
        assert [repr(q) for q in lv] == [repr(q) for q in alone]


def test_sweep_records_only_named_failures(monkeypatch):
    from rabispec import spectrum

    def failing(pv, *args, **kwargs):
        if pv.g > 0.2:
            raise ValueError("no spectrum here")
        return []

    monkeypatch.setattr(spectrum, "assemble", failing)
    res = sweep(P_EXC, "g", (0.15, 0.25), steps=2, e_window=(-1.5, 1.5), N_max=1)
    assert [f["axis_value"] for f in res.metadata["failures"]] == [0.25]

    def broken(pv, *args, **kwargs):
        raise ZeroDivisionError("a bug, not a failed point")

    monkeypatch.setattr(spectrum, "assemble", broken)
    with pytest.raises(ZeroDivisionError):
        sweep(P_EXC, "g", (0.15, 0.25), steps=2, e_window=(-1.5, 1.5), N_max=1)


def _cap_oracle(monkeypatch):
    # one solve at a cutoff below the first one: nothing converges
    from rabispec import oracle
    monkeypatch.setattr(oracle, "N_C_CAP", 12)


def test_assemble_rejects_unconverged_oracle(monkeypatch):
    _cap_oracle(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="cutoff 12"):
        assemble(P_EXC, (-1.5, 1.5))
    res = sweep(P_EXC, "g", (0.15, 0.25), steps=2, e_window=(-1.5, 1.5), N_max=1)
    assert res.levels == [[], []]
    assert all("LinAlgError" in f["error"] for f in res.metadata["failures"])
    assert len(res.metadata["failures"]) == 2


def test_marker_groups_count_only_converged(monkeypatch):
    from rabispec.exceptional import scan_exceptional
    from rabispec.spectrum import _group_markers
    markers = scan_exceptional(P_EXC, g_range=(0.15, 0.25), N_max=1)
    groups = _group_markers(markers, "g", (-1.5, 1.5))
    assert [(grp["degeneracy"], grp["oracle_degeneracy"]) for grp in groups] == [(1, 1)]
    _cap_oracle(monkeypatch)
    markers = scan_exceptional(P_EXC, g_range=(0.15, 0.25), N_max=1, oracle_check=False)
    groups = _group_markers(markers, "g", (-1.5, 1.5))
    assert [(grp["degeneracy"], grp["oracle_degeneracy"]) for grp in groups] == [(1, 0)]


def test_marker_group_counts_match_dense_rule():
    # every group's oracle_degeneracy equals the converged eigen_in_window
    # eigenvalues within 1e-6 of its energy, degenerate groups included
    for eps in (0.1, 0.0, 0.5):
        p = replace(P_EXC, epsilon=eps)
        res = sweep(p, "g", (0.05, 1.2), steps=2, e_window=(-1.5, 3.0), N_max=3)
        assert res.marker_groups
        for grp in res.marker_groups:
            E = grp["energy"]
            orc = oracle.eigen_in_window(replace(p, g=grp["axis_value"]), E - 0.25, E + 0.25)
            near = np.abs(orc.eigenvalues[:orc.converged_count] - E) <= 1e-6
            assert grp["oracle_degeneracy"] == int(near.sum()), (eps, grp)
        if eps == 0.0:
            assert all(grp["oracle_degeneracy"] == 2 for grp in res.marker_groups)


def test_sweep_counts_on_the_oracle_once(monkeypatch):
    # the scan counts every marker in one batch and the groups reuse it
    calls = []
    count_in = oracle.count_in

    def counted(*args):
        calls.append(args)
        return count_in(*args)

    monkeypatch.setattr(oracle, "count_in", counted)
    res = sweep(replace(P_EXC, epsilon=0.0), "g", (0.05, 1.2), steps=2,
                e_window=(-1.5, 3.0), N_max=2)
    assert res.marker_groups
    assert len(calls) == 1


@pytest.mark.parametrize("p, window", [
    (RabiParams(g=0.5, delta=0.8, epsilon=0.1), (-1.5, 12.0)),
    (RabiParams(g=1.0, delta=0.8, epsilon=0.25), (-2.0, 8.0)),
])
def test_wide_window_needs_no_oracle_fill(p, window):
    # the window is cut into pieces no wider than 2: one interpolant over
    # all of it loses most levels to W~'s dynamic range
    pts = assemble(p, window)
    assert len(pts) >= 19
    assert not [q for q in pts if q.provenance == "oracle-assisted"]
