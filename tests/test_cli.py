"""CLI: config validation, exit codes, output determinism, round-trips."""

from __future__ import annotations

import csv
import json
import math

import pytest

from qparity.cli import main

TWO_PI = 2.0 * math.pi

PAPER_CONFIG = {
    "schema_version": "1",
    "n_qubits": 3,
    "modes": [
        {"f_GHz": 9.99, "C_couple_fF": 10.0},
        {"f_GHz": 10.01, "C_couple_fF": 10.0},
    ],
    "chi_MHz": "solve",
    "Z0_ohms": 50.0,
    "resonator_model": "stub",
}

CASCADE_CONFIG = {
    "schema_version": "1",
    "kind": "cascade",
    "n_qubits": 3,
    "cavity": {"f_GHz": 10.0, "C_couple_fF": 10.0},
    "chi_MHz": "tune",
}


@pytest.fixture()
def paper_cfg(tmp_path):
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(PAPER_CONFIG))
    return path


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Config + solution JSON produced once for the module."""
    root = tmp_path_factory.mktemp("solved")
    cfg = root / "paper.json"
    cfg.write_text(json.dumps(PAPER_CONFIG))
    out = root / "sol.json"
    rc = main(["solve", str(cfg), "--out", str(out)])
    assert rc == 0
    return cfg, out


# ----------------------------------------------------------------------
# config errors (exit 2, field-precise messages)
# ----------------------------------------------------------------------

def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1", n_qubits: }')
    assert main(["sweep", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_field_names_path(tmp_path, capsys):
    cfg = dict(PAPER_CONFIG)
    del cfg["n_qubits"]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", str(p)]) == 2
    assert "n_qubits" in capsys.readouterr().err


def test_bad_mode_entry_names_index(tmp_path, capsys):
    cfg = json.loads(json.dumps(PAPER_CONFIG))
    cfg["modes"][1]["f_GHz"] = -1.0
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", str(p)]) == 2
    assert "modes[1]" in capsys.readouterr().err


def test_unknown_schema_version(tmp_path, capsys):
    cfg = dict(PAPER_CONFIG, schema_version="2")
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", str(p)]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_sweep_requires_numeric_chi(paper_cfg, tmp_path, capsys):
    assert main(["sweep", str(paper_cfg), "--out", str(tmp_path / "s.csv")]) == 2
    assert "chi_MHz" in capsys.readouterr().err


def test_cascade_nonpositive_z0_names_field(paper_cfg, tmp_path, capsys):
    c = tmp_path / "cascade.json"
    c.write_text(json.dumps(dict(CASCADE_CONFIG, Z0_ohms=0.0)))
    assert main(["compare", str(paper_cfg), str(c)]) == 2
    assert f"{c}.Z0_ohms" in capsys.readouterr().err


# ----------------------------------------------------------------------
# solve (exit 0/4) and summary line
# ----------------------------------------------------------------------

def test_solve_paper_summary(solved, capsys):
    cfg, out = solved
    data = json.loads(out.read_text())
    assert data["f_p_Hz"] == pytest.approx(9.804e9, abs=5e6)
    assert data["chi_Hz"] == pytest.approx(5.77e6, abs=0.15e6)
    assert abs(data["delta_theta_deg"]) == pytest.approx(172.9, abs=1.0)
    rc = main(["solve", str(cfg)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("f_p=") and "chi=" in line and "dtheta=" in line


def test_infeasible_device_exits_4(tmp_path, capsys):
    cfg = dict(PAPER_CONFIG, modes=[{"f_GHz": 10.0, "C_couple_fF": 10.0}])
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", str(p)]) == 4
    assert "modes" in capsys.readouterr().err


# ----------------------------------------------------------------------
# sweep output shape and determinism
# ----------------------------------------------------------------------

def test_sweep_paper_columns(tmp_path):
    cfg = dict(PAPER_CONFIG, chi_MHz=5.77,
               band={"f_lo_GHz": 9.6, "f_hi_GHz": 10.2})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(p), "--out", str(out), "--points", "501"]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["f_GHz", "theta_wt0_deg", "theta_wt1_deg",
                       "theta_wt2_deg", "theta_wt3_deg"]
    assert len(rows) == 502
    freqs = [float(r[0]) for r in rows[1:]]
    assert freqs == sorted(freqs)


def test_sweep_single_qubit_has_two_weight_columns(tmp_path):
    cfg = {
        "schema_version": "1",
        "n_qubits": 1,
        "modes": [{"f_GHz": 10.0, "C_couple_fF": 10.0}],
        "chi_MHz": 5.0,
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(p), "--out", str(out), "--points", "301"]) == 0
    with out.open() as fh:
        header = next(csv.reader(fh))
    assert header == ["f_GHz", "theta_wt0_deg", "theta_wt1_deg"]


def test_sweep_deterministic(tmp_path):
    cfg = dict(PAPER_CONFIG, chi_MHz=5.77)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(p), "--out", str(a), "--points", "301"]) == 0
    assert main(["sweep", str(p), "--out", str(b), "--points", "301"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_deterministic(tmp_path, paper_cfg):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(paper_cfg), "--out", str(a)]) == 0
    assert main(["solve", str(paper_cfg), "--out", str(b)]) == 0
    payload_a = json.loads(a.read_text())
    payload_b = json.loads(b.read_text())
    assert payload_a == payload_b


# ----------------------------------------------------------------------
# fidelity and the round-trip invariant
# ----------------------------------------------------------------------

def test_fidelity_outputs_and_round_trip(solved, tmp_path):
    cfg, sol_path = solved
    out_json = tmp_path / "fid.json"
    out_csv = tmp_path / "fid.csv"
    rc = main(["fidelity", str(cfg), str(sol_path),
               "--alpha-sq", "5", "--T-us", "1",
               "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert rc == 0
    fid = json.loads(out_json.read_text())
    assert len(fid["pairs"]) == 6
    for pair in fid["pairs"]:
        assert 0.0 <= pair["F_numeric"] <= 1.0
        if pair["branch"] == "even-odd":
            assert pair["F_numeric"] < 1e-3
        else:
            assert pair["F_numeric"] > 0.99
    # a solution fed back with the same config reproduces its residuals
    sol = json.loads(sol_path.read_text())
    assert fid["residuals_rad"] == sol["residuals_rad"]
    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7


def _bad_top_level(sol):
    return [sol]


def _chi_object(sol):
    return dict(sol, chi_rad_s={"value": sol["chi_rad_s"]})


def _chi_string(sol):
    return dict(sol, chi_rad_s="x")


def _short_modes(sol):
    sol = dict(sol, mode_f_Hz=sol["mode_f_Hz"][:1])
    del sol["mode_omega_rad_s"]
    return sol


def _probe_off_band(sol):
    return dict(sol, omega_p_rad_s=-5.0)


@pytest.mark.parametrize("corrupt,field", [
    (_bad_top_level, ""),
    (_chi_object, ".chi_rad_s"),
    (_chi_string, ".chi_rad_s"),
    (_short_modes, ".mode_f_Hz"),
    (_probe_off_band, ".omega_p_rad_s"),
], ids=["json-list", "chi-object", "chi-string", "mode-count", "probe-off-band"])
def test_bad_solution_file_names_field(solved, tmp_path, capsys, corrupt, field):
    cfg, sol_path = solved
    bad = tmp_path / "bad_sol.json"
    bad.write_text(json.dumps(corrupt(json.loads(sol_path.read_text()))))
    assert main(["fidelity", str(cfg), str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}{field}:" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# compare and estimate
# ----------------------------------------------------------------------

def test_compare_writes_report(tmp_path):
    p = tmp_path / "paper.json"
    p.write_text(json.dumps(PAPER_CONFIG))
    c = tmp_path / "cascade.json"
    c.write_text(json.dumps(CASCADE_CONFIG))
    out = tmp_path / "cmp.json"
    rc = main(["compare", str(p), str(c), "--alpha-sq", "5", "--T-us", "1",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["b_ratio_parallel_over_cascade"] > 100.0
    assert rep["cascade"]["resonator_count"] == 3
    assert rep["parallel"]["resonator_count"] == 2
    for v in rep["cascade_quadratic_closed_match"].values():
        assert v < 1e-4


def test_solve_four_qubit_free_modes(tmp_path):
    cfg = {
        "schema_version": "1",
        "n_qubits": 4,
        "modes": [
            {"f_GHz": 9.97, "C_couple_fF": 10.0},
            {"f_GHz": 10.0, "C_couple_fF": 10.0},
            {"f_GHz": 10.03, "C_couple_fF": 10.0},
        ],
        "chi_MHz": "solve",
    }
    p = tmp_path / "n4.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sol4.json"
    assert main(["solve", str(p), "--free-modes", "--out", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert len(sol["residuals_rad"]) == 3
    assert max(abs(r) for r in sol["residuals_rad"]) < 1e-9
    # the solver was free to move the mode frequencies
    assert len(sol["mode_f_Hz"]) == 3


def test_solution_reports_bare_and_loaded_poles(solved):
    _, out = solved
    sol = json.loads(out.read_text())
    loaded = sol["loaded_poles_by_weight_Hz"]
    assert set(loaded) == {"0", "1", "2", "3"}
    bare = sol["mode_f_Hz"]
    for poles in loaded.values():
        assert len(poles) == 2
        # coupling caps pull the first pole well below the bare modes
        assert poles[0] < bare[0]


def test_estimate_prints_conventions(capsys, tmp_path):
    out = tmp_path / "est.json"
    rc = main(["estimate", "--delta-GHz", "5", "--kappa-MHz", "5",
               "--chi-MHz", "5.77", "--alpha-sq", "5", "--T-us", "1",
               "--fp-GHz", "9.804", "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Purcell" in text and "convention" in text
    rep = json.loads(out.read_text())
    assert rep["purcell_T1_s"]["cyclic"] * 1e6 == pytest.approx(173.3, rel=1e-3)
    assert rep["peak_power"]["dBm"] == pytest.approx(-135.0, abs=0.5)
