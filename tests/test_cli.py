import json
import os
import subprocess
import sys

import pytest

from rabispec.cli import main
from rabispec.exceptional import constraint_residual
from rabispec.model import RabiParams


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_wronskian_scan_default(tmp_path):
    code, text = run(tmp_path, "wronskian-scan", "--g", "0.2", "--delta", "0.8",
                     "--epsilon", "0.1", "--grid", "301")
    assert code == 0
    zeros = [ln for ln in text.splitlines() if ln.startswith("# zero:")]
    assert len(zeros) == 3
    exc = [ln for ln in text.splitlines()
           if ln.startswith("# exceptional-candidate:") and "is_exceptional=true" in ln]
    assert len(exc) == 1 and "0.86" in exc[0]
    header = [ln for ln in text.splitlines() if ln.startswith("E_over_omega")]
    assert header == ["E_over_omega,w_plus,w_minus,reliable"]


def test_wronskian_scan_small_g_four_zeros(tmp_path):
    code, text = run(tmp_path, "wronskian-scan", "--g", "0.1", "--delta", "0.8",
                     "--epsilon", "0.1", "--grid", "301")
    assert code == 0
    zeros = [ln for ln in text.splitlines() if ln.startswith("# zero:")]
    assert len(zeros) == 4


def test_wronskian_scan_empty_range(tmp_path):
    code, text = run(tmp_path, "wronskian-scan", "--e-min", "2.0", "--e-max", "1.0")
    assert code == 0
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines == ["E_over_omega,w_plus,w_minus,reliable"]


def test_wronskian_scan_honours_tol(tmp_path):
    # the truncation residual at E = 0.86 is about 2e-16, above 1e-30
    code, text = run(tmp_path, "wronskian-scan", "--g", "0.2", "--delta", "0.8",
                     "--epsilon", "0.1", "--grid", "301", "--tol", "1e-30")
    assert code == 0
    cands = [ln for ln in text.splitlines() if ln.startswith("# exceptional-candidate:")]
    assert cands and not [ln for ln in cands if "is_exceptional=true" in ln]


def test_wronskian_scan_tol_leaves_zeros(tmp_path):
    # --tol is the acceptance tolerance of the candidates, not the root width
    from rabispec.analytic import find_regular_spectrum
    from rabispec.model import RabiParams
    code, text = run(tmp_path, "wronskian-scan", "--g", "0.2", "--delta", "0.8",
                     "--epsilon", "0.1", "--grid", "301", "--tol", "1e-4",
                     "--format", "json")
    assert code == 0
    roots = find_regular_spectrum(RabiParams(g=0.2, delta=0.8, epsilon=0.1),
                                  -1.5, 1.5, grid_n=301)
    assert json.loads(text)["zeros"] == [q.energy for q in roots]


def test_scan_deterministic(tmp_path):
    _, a = run(tmp_path, "wronskian-scan", "--grid", "201")
    _, b = run(tmp_path, "wronskian-scan", "--grid", "201")
    assert a == b


def test_spectrum_command_json(tmp_path):
    code, text = run(tmp_path, "spectrum", "--g", "0.2", "--delta", "0.8",
                     "--epsilon", "0.1", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    kinds = [row[1] for row in doc["rows"]]
    assert kinds.count("exceptional") == 1
    assert kinds.count("regular") == 3


def test_spectrum_physical_units(tmp_path):
    # omega = 2 with doubled couplings gives the same reduced spectrum
    code, text = run(tmp_path, "spectrum", "--g", "0.4", "--delta", "1.6",
                     "--epsilon", "0.2", "--omega", "2.0", "--e-min", "-3.0",
                     "--e-max", "3.0", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    energies = [row[0] for row in doc["rows"]]
    assert any(abs(e - 0.86) < 1e-9 for e in energies)


def test_sweep_two_steps(tmp_path):
    code, text = run(tmp_path, "sweep", "--axis", "g", "--range", "0.15:0.25:2",
                     "--e-min", "-1.5", "--e-max", "1.5", "--n-max", "1")
    assert code == 0
    data = [ln for ln in text.splitlines() if ln and not ln.startswith("#")
            and not ln.startswith("axis_value")]
    axis_vals = {ln.split(",")[0] for ln in data}
    assert len(axis_vals) == 2
    markers = (tmp_path / "out.txt.markers.csv").read_text()
    assert "axis_value,N,branch,E_over_omega,degeneracy,oracle_degeneracy" in markers
    # one oracle-assisted count over all points, one row per assisted level
    assisted = sum(ln.split(",")[3] == "regular(oracle-assisted)" for ln in data)
    assert f"# oracle_assisted: {assisted}" in text.splitlines()
    code, text = run(tmp_path, "sweep", "--axis", "g", "--range", "0.15:0.25:2",
                     "--e-min", "-1.5", "--e-max", "1.5", "--n-max", "1",
                     "--format", "json")
    assert code == 0
    meta = json.loads(text)["metadata"]
    assert meta["oracle_assisted"] == assisted and meta["tol"] == 1e-10


def test_sweep_including_g0(tmp_path):
    code, text = run(tmp_path, "sweep", "--axis", "g", "--range", "0.0:0.2:2",
                     "--e-min", "-1.5", "--e-max", "1.5", "--n-max", "1")
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines()
            if ln and not ln.startswith(("#", "axis_value"))]
    g0_rows = [r for r in rows if float(r[0]) == 0.0]
    assert g0_rows and all(r[3] == "regular(oracle-only)" for r in g0_rows)


def test_exceptional_command(tmp_path):
    # N = 1 loci in range: minus at g = 0.2, plus at g = sqrt(0.56)/2
    code, text = run(tmp_path, "exceptional", "--g", "0.1", "--delta", "0.8",
                     "--epsilon", "0.1", "--axis", "g", "--range", "0.05:0.6:200",
                     "--n-max", "1")
    assert code == 0
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "axis_value"))]
    assert len(rows) == 2
    assert abs(float(rows[0].split(",")[0]) - 0.2) < 1e-9 and ",1,minus," in rows[0]
    assert abs(float(rows[1].split(",")[0]) - 0.3741657386773941) < 1e-9 and ",1,plus," in rows[1]


def test_exceptional_n_max_0_prints_header_only(tmp_path):
    code, text = run(tmp_path, "exceptional", "--delta", "0.8", "--epsilon", "0.1",
                     "--n-max", "0")
    assert code == 0
    assert "axis_value,N,branch,E_over_omega,residual" in text.splitlines()
    assert [ln for ln in text.splitlines()
            if ln and not ln.startswith(("#", "axis_value"))] == []


@pytest.mark.parametrize("command, extra", [
    ("exceptional", ["--g", "0.4", "--delta", "0.6", "--n-max", "2"]),
    ("sweep", ["--g", "0.4", "--n-max", "1", "--e-min", "-1.5", "--e-max", "2"]),
])
def test_range_may_start_below_zero(tmp_path, command, extra):
    # "--range -0.6:..." is a value, not an option, and reads as "--range=-0.6:..."
    joined = run(tmp_path, command, "--axis", "epsilon", "--range=-0.6:0.6:5", *extra)
    spaced = run(tmp_path, command, "--axis", "epsilon", "--range", "-0.6:0.6:5", *extra)
    assert joined[0] == 0 and spaced == joined
    assert "# range: -0.6:0.6:5" in spaced[1].splitlines()


def test_tol_reaches_the_locus_scan(tmp_path):
    # no truncation residual is below 1e-30, so no point is accepted
    code, text = run(tmp_path, "exceptional", "--g", "0.1", "--delta", "0.8",
                     "--epsilon", "0.1", "--axis", "g", "--range", "0.05:0.6:200",
                     "--n-max", "1", "--tol", "1e-30")
    assert code == 0
    assert [ln for ln in text.splitlines()
            if ln and not ln.startswith(("#", "axis_value"))] == []
    # the sweep range holds both N = 1 loci; a marker survives tol = 1e-30
    # only where its residual is at most that
    markers = []
    for tol in ([], ["--tol", "1e-30"]):
        code, text = run(tmp_path, "sweep", "--axis", "g", "--range", "0.15:0.45:2",
                         "--e-min", "-1.5", "--e-max", "1.5", "--n-max", "1", *tol)
        assert code == 0
        rows = (tmp_path / "out.txt.markers.csv").read_text().splitlines()
        markers.append([ln.split(",") for ln in rows
                        if ln and not ln.startswith(("#", "axis_value"))])
    assert "# tol: 1e-30" in text.splitlines()
    assert len(markers[1]) < len(markers[0])
    for g, N, branch, *_ in markers[1]:
        p = RabiParams(g=float(g), delta=0.8, epsilon=0.1)
        assert constraint_residual(int(N), branch, p) <= 1e-30


def test_crossings_command(tmp_path):
    code, text = run(tmp_path, "crossings", "--delta", "0.8", "--n1", "1", "--n2", "2",
                     "--format", "json")
    assert code == 0
    doc = json.loads(text)
    row = doc["rows"][0]
    assert row[2] == 0.5
    assert abs(row[3] - 0.58309518948453) < 1e-9


def test_oracle_command(tmp_path):
    code, text = run(tmp_path, "oracle", "--g", "0.2", "--delta", "0.8",
                     "--epsilon", "0.1", "--k", "4")
    assert code == 0
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "index"))]
    assert len(rows) == 4
    assert any(abs(float(r.split(",")[1]) - 0.86) < 1e-8 for r in rows)


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--range", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["crossings", "--delta", "0.8", "--n1", "1", "--n2", "2", "--omega", "0"],
    ["crossings", "--delta", "0.8", "--n1", "1", "--n2", "2", "--omega", "-2"],
    ["crossings", "--delta", "0.8", "--n1", "1", "--n2", "2", "--omega", "inf"],
    ["crossings", "--delta", "0.8", "--n1", "1", "--n2", "2", "--omega", "nan"],
    ["spectrum", "--omega", "0"],
])
def test_omega_must_be_finite_and_positive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "omega must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_grid_below_100_exits_2(tmp_path, command, capsys):
    # --grid is the finder's grid: it is passed on as given, never raised to 100
    extra = ["--range", "0.15:0.25:2", "--n-max", "1"] if command == "sweep" else []
    code, text = run(tmp_path, command, "--grid", "50", *extra)
    assert code == 2 and text == ""
    assert "grid_n must be >= 100" in capsys.readouterr().err


def test_seed_only_for_verify(capsys):
    # only verify has randomized checks, so only verify takes --seed
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--seed", "3"])
    assert exc.value.code == 2


def test_unwritable_path_exit_3(tmp_path):
    code = main(["oracle", "--k", "2", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 3


def test_verify_forced_failure(tmp_path):
    # an absurd tolerance must produce a controlled failure report, exit 1
    out = tmp_path / "report.txt"
    code = main(["verify", "--tol", "1e-30", "--only", "1,5", "--out", str(out)])
    assert code == 1
    text = out.read_text()
    assert "FAIL  1" in text
    assert "PASS  5" in text
    assert "RESULT: FAIL" in text


def test_verify_subset_passes(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["verify", "--only", "5,7", "--out", str(out)])
    assert code == 0
    assert "RESULT: PASS (2/2)" in out.read_text()


def test_verify_report_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["verify", "--only", "5,7", "--seed", "3", "--out", str(a)])
    main(["verify", "--only", "5,7", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_json(tmp_path):
    code, text = run(tmp_path, "verify", "--only", "5,7", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["all_passed"] is True
    assert doc["metadata"]["criteria"] == "5,7"
    assert doc["columns"] == ["index", "name", "passed", "details"]
    assert [row[:3] for row in doc["rows"]] == [[5, "pair-separation", True],
                                                [7, "factorization-identity", True]]


def test_crossings_not_found_row(tmp_path):
    # at delta = 3 the (2, plus) relation 64 g^2 + 121 = (16 g^2 + 17)^2 has
    # no root in g, so the row says found=false with the empty fields
    code, text = run(tmp_path, "crossings", "--delta", "3", "--n1", "2", "--n2", "3")
    assert code == 0
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "N1"))]
    assert rows == ["2,3,0.5,,,,false,false"]


@pytest.mark.parametrize("spec", ["1.0:0.5:3", "0.1:0.2:1"])
def test_range_rejected(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--range", spec])
    assert exc.value.code == 2
    assert "need a < b and steps >= 2" in capsys.readouterr().err


def test_sweep_csv_markers_to_stdout(capsys):
    # without --out the marker table follows the level table on stdout
    code = main(["sweep", "--range", "0.15:0.25:2", "--n-max", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines.count("# command: sweep") == 2
    start = lines.index("axis_value,N,branch,E_over_omega,degeneracy,oracle_degeneracy")
    assert lines.index("axis_value,level_index,E_over_omega,kind,N,branch,degeneracy") < start
    (row,) = [ln.split(",") for ln in lines[start + 1:]]
    assert row[1:3] == ["1", "minus"] and row[4:] == ["1", "1"]
    assert abs(float(row[0]) - 0.2) < 1e-9 and abs(float(row[3]) - 0.86) < 1e-12


def test_python_m_rabispec_runs_without_an_install():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "rabispec", "--help"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "verify" in proc.stdout
