import json
import os

import pytest

from rabispec.cli import main


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


def test_tol_reaches_the_locus_scan(tmp_path):
    # no truncation residual is below 1e-30, so no point is accepted
    code, text = run(tmp_path, "exceptional", "--g", "0.1", "--delta", "0.8",
                     "--epsilon", "0.1", "--axis", "g", "--range", "0.05:0.6:200",
                     "--n-max", "1", "--tol", "1e-30")
    assert code == 0
    assert [ln for ln in text.splitlines()
            if ln and not ln.startswith(("#", "axis_value"))] == []
    code, text = run(tmp_path, "sweep", "--axis", "g", "--range", "0.15:0.25:2",
                     "--e-min", "-1.5", "--e-max", "1.5", "--n-max", "1",
                     "--tol", "1e-30")
    assert code == 0
    assert "# tol: 1e-30" in text.splitlines()
    markers = (tmp_path / "out.txt.markers.csv").read_text().splitlines()
    assert [ln for ln in markers if ln and not ln.startswith(("#", "axis_value"))] == []


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
