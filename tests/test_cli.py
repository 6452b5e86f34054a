"""CLI: config validation, exit codes, output determinism, round-trips."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
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


ESTIMATE_ARGS = ["estimate", "--delta-GHz", "5", "--kappa-MHz", "5",
                 "--chi-MHz", "5.77", "--fp-GHz", "9.804"]


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "{cfg}", "--out", "{out}", "--points", "0"], "--points"),
    (["sweep", "{cfg}", "--out", "{out}", "--points", "-5"], "--points"),
    (["fidelity", "{cfg}", "{sol}", "--out-json", "{out}", "--T-us", "0"], "--T-us"),
    (["fidelity", "{cfg}", "{sol}", "--out-json", "{out}", "--alpha-sq", "-1"],
     "--alpha-sq"),
    (["compare", "{cfg}", "{cas}", "--out", "{out}", "--alpha-sq", "-2"], "--alpha-sq"),
    (["compare", "{cfg}", "{cas}", "--out", "{out}", "--T-us", "-1"], "--T-us"),
    (ESTIMATE_ARGS + ["--json", "{out}", "--alpha-sq", "-1"], "--alpha-sq"),
    (ESTIMATE_ARGS + ["--json", "{out}", "--T-us", "0"], "--T-us"),
    (["solve", "{cfg}", "--out", "{out}", "--tol", "nan"], "--tol"),
    (["solve", "{cfg}", "--out", "{out}", "--tol", "1e-13"], "--tol"),
    (["fidelity", "{cfg}", "{sol}", "--out-json", "{out}", "--T-us", "inf"], "--T-us"),
    (["compare", "{cfg}", "{cas}", "--out", "{out}", "--alpha-sq", "inf"], "--alpha-sq"),
    (ESTIMATE_ARGS + ["--json", "{out}", "--delta-GHz", "nan"], "--delta-GHz"),
    (ESTIMATE_ARGS + ["--json", "{out}", "--kappa-MHz", "inf"], "--kappa-MHz"),
    # a rate or frequency <= 0 exited 3 naming its rad/s value
    (ESTIMATE_ARGS + ["--json", "{out}", "--delta-GHz", "-5"], "--delta-GHz"),
    (ESTIMATE_ARGS + ["--json", "{out}", "--kappa-MHz", "0"], "--kappa-MHz"),
    (ESTIMATE_ARGS + ["--json", "{out}", "--chi-MHz", "-1"], "--chi-MHz"),
    (ESTIMATE_ARGS + ["--json", "{out}", "--fp-GHz", "0"], "--fp-GHz"),
    # > 0 in microseconds, but 0.0 once converted to seconds
    (["fidelity", "{cfg}", "{sol}", "--out-json", "{out}", "--T-us", "1e-320"], "--T-us"),
    (["compare", "{cfg}", "{cas}", "--out", "{out}", "--T-us", "1e-320"], "--T-us"),
], ids=["points-0", "points-neg", "fidelity-T", "fidelity-alpha", "compare-alpha",
        "compare-T", "estimate-alpha", "estimate-T", "solve-tol-nan", "solve-tol-tiny",
        "fidelity-T-inf", "compare-alpha-inf", "estimate-delta-nan",
        "estimate-kappa-inf", "estimate-delta-neg", "estimate-kappa-0", "estimate-chi-neg",
        "estimate-fp-0", "fidelity-T-subnormal", "compare-T-subnormal"])
def test_bad_numeric_flag_exits_2_before_any_work(tmp_path, capsys, argv, flag):
    cfg, sol = tmp_path / "c.json", tmp_path / "sol.json"
    cas, out = tmp_path / "cascade.json", tmp_path / "out"
    cfg.write_text(json.dumps(dict(PAPER_CONFIG, chi_MHz=5.77)))
    sol.write_text("{}")
    cas.write_text(json.dumps(CASCADE_CONFIG))
    argv = [a.format(cfg=cfg, sol=sol, cas=cas, out=out) for a in argv]
    assert main(argv) == 2
    out_text, err = capsys.readouterr()
    # one line, as every other exit-2 refusal: no argparse usage line
    assert err.startswith(f"config error: argument {flag}: must be ")
    assert err.count("\n") == 1 and err.endswith("\n") and not out_text
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["solve"], "the following arguments are required: config"),
    (["bogus"], "argument cmd: invalid choice: 'bogus'"),
    (["solve", "c.json", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["solve", "c.json", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
], ids=["missing", "choice", "type", "unknown"])
def test_every_parser_refusal_is_one_config_error_line(capsys, argv, message):
    # a flag argparse refuses for itself, not through a checked type, exits
    # 2 in the same one "config error:" line
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not out


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qparity solve")


def test_cascade_nonpositive_z0_names_field(paper_cfg, tmp_path, capsys):
    c = tmp_path / "cascade.json"
    c.write_text(json.dumps(dict(CASCADE_CONFIG, Z0_ohms=0.0)))
    assert main(["compare", str(paper_cfg), str(c)]) == 2
    assert f"{c}.Z0_ohms" in capsys.readouterr().err


def test_compare_qubit_count_mismatch_exits_2_before_solving(paper_cfg, tmp_path,
                                                             capsys, monkeypatch):
    import qparity.cli

    def refuse(*args, **kwargs):
        raise AssertionError("solve_eraser ran")

    monkeypatch.setattr(qparity.cli, "solve_eraser", refuse)
    c, out = tmp_path / "cascade.json", tmp_path / "cmp.json"
    c.write_text(json.dumps(dict(CASCADE_CONFIG, n_qubits=2)))
    assert main(["compare", str(paper_cfg), str(c), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {c}.n_qubits: ")
    assert not out.exists()


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_compare_one_qubit_exits_2_before_solving(tmp_path, capsys, monkeypatch, model):
    # one qubit has no same-parity pair to score; compare used to solve,
    # tune and then fail in max() over no pairs (exit 3)
    import qparity.cli

    def refuse(*args, **kwargs):
        raise AssertionError("solve_eraser ran")

    monkeypatch.setattr(qparity.cli, "solve_eraser", refuse)
    p, c, out = tmp_path / "n1.json", tmp_path / "cascade.json", tmp_path / "cmp.json"
    p.write_text(json.dumps({"schema_version": "1", "n_qubits": 1,
                             "modes": [{"f_GHz": 9.97, "C_couple_fF": 10.0}],
                             "chi_MHz": "solve", "resonator_model": model}))
    c.write_text(json.dumps(dict(CASCADE_CONFIG, n_qubits=1, resonator_model=model)))
    assert main(["compare", str(p), str(c), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {p}.n_qubits: compare needs at least 2 qubits, "
                   "got 1\n")
    assert not out.exists()


def test_main_reuses_its_parser_with_fresh_parser_results(solved, tmp_path, capsys,
                                                         monkeypatch):
    # main parses with one parser per process; alternating commands, a bad
    # flag among them, give the exit codes, streams and files that a parser
    # built anew for every call gives
    import qparity.cli

    cfg, sol = solved

    def run(tag):
        results = []
        for argv in (["solve", str(cfg), "--out", str(tmp_path / f"{tag}.sol.json")],
                     ["solve", str(cfg), "--tol", "0"],
                     ["fidelity", str(cfg), str(sol),
                      "--out-json", str(tmp_path / f"{tag}.fid.json")],
                     ["compare", str(cfg), "--T-us", "-1"],
                     ["solve", str(cfg), "--out", str(tmp_path / f"{tag}.sol2.json")]):
            rc = main(argv)
            out, err = capsys.readouterr()
            results.append((rc, out, err))
        files = [(tmp_path / f"{tag}.{name}.json").read_bytes()
                 for name in ("sol", "fid", "sol2")]
        return results, files

    cached = run("cached")
    monkeypatch.setattr(qparity.cli, "_parser", qparity.cli.build_parser)
    fresh = run("fresh")
    assert cached == fresh
    assert [rc for rc, _, _ in cached[0]] == [0, 2, 0, 2, 0]
    assert cached[0][1][2] == "config error: argument --tol: must be >= 1e-12 and < pi/10, got 0\n"


@pytest.mark.parametrize("field,value,message", [
    ("kind", "tandem", "expected {kind!r}, got 'tandem'"),
    ("n_qubits", 9, "must be 1..8, got 9"),
    ("chi_MHz", "auto", "expected a number or {keyword!r}, got 'auto'"),
    ("chi_MHz", -2.0, "must be > 0, got -2.0"),
    ("chi_MHz", [5.0], "expected a number or {keyword!r}"),
    ("Z0_ohms", -5.0, "must be > 0, got -5.0"),
    ("resonator_model", "coax", "expected 'stub' or 'lumped', got 'coax'"),
], ids=["kind", "n-range", "chi-word", "chi-negative", "chi-list", "z0", "model"])
@pytest.mark.parametrize("kind", ["parallel", "cascade"])
def test_shared_field_errors_name_field(tmp_path, capsys, kind, field, value,
                                        message):
    # both config kinds check their shared fields with the same messages
    configs = {"parallel": dict(PAPER_CONFIG), "cascade": dict(CASCADE_CONFIG)}
    configs[kind][field] = value
    paths = {k: tmp_path / f"{k}.json" for k in configs}
    for k, cfg in configs.items():
        paths[k].write_text(json.dumps(cfg))
    assert main(["compare", str(paths["parallel"]), str(paths["cascade"])]) == 2
    keyword = {"parallel": "solve", "cascade": "tune"}[kind]
    expected = f"config error: {paths[kind]}.{field}: " \
        + message.format(kind=kind, keyword=keyword)
    assert capsys.readouterr().err.strip() == expected


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


NARROW_BAND = {"f_lo_GHz": 9.80, "f_hi_GHz": 10.20}


def test_solve_searches_inside_a_config_band(tmp_path, capsys):
    # the band's lower edge sits above the branch zeros near 9.79 GHz and
    # above the default search band's, which starts near 9.65 GHz
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(PAPER_CONFIG, band=NARROW_BAND)))
    assert main(["solve", str(p)]) == 0
    assert capsys.readouterr().out.startswith(
        "f_p= 9.80398232178 GHz  chi= 5.77349964909 MHz")
    p.write_text(json.dumps(dict(PAPER_CONFIG,
                                 band={"f_lo_GHz": 11.0, "f_hi_GHz": 12.0})))
    assert main(["solve", str(p)]) == 4
    assert "band" in capsys.readouterr().err


# ----------------------------------------------------------------------
# sweep output shape and determinism
# ----------------------------------------------------------------------

def test_sweep_does_not_depend_on_the_config_band(tmp_path):
    # both grids step by 1 MHz; phases in shared rows agree to the 12-digit
    # rendering (1e-9 deg at |theta| >= 100 deg), 2*pi offsets included
    rows = {}
    for name, band, points in (("narrow", NARROW_BAND, "401"),
                               ("wide", {"f_lo_GHz": 9.40, "f_hi_GHz": 10.60}, "1201")):
        p, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        p.write_text(json.dumps(dict(PAPER_CONFIG, chi_MHz=5.77, band=band)))
        assert main(["sweep", str(p), "--out", str(out), "--points", points]) == 0
        with out.open() as fh:
            rows[name] = {r[0]: r[1:] for r in list(csv.reader(fh))[1:]}
    assert len(rows["narrow"]) == 401 and rows["narrow"].keys() <= rows["wide"].keys()
    for f, thetas in rows["narrow"].items():
        for a, b in zip(thetas, rows["wide"][f]):
            assert abs(Decimal(a) - Decimal(b)) <= Decimal("1e-9"), (f, a, b)


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


FOUR_QUBIT_CONFIG = {
    "schema_version": "1",
    "n_qubits": 4,
    "modes": [{"f_GHz": f, "C_couple_fF": 10.0} for f in (9.97, 10.0, 10.03)],
    "chi_MHz": "solve",
}


@pytest.mark.parametrize("config, free", [(PAPER_CONFIG, ()),
                                          (FOUR_QUBIT_CONFIG, ("--free-modes",))],
                         ids=["paper", "n4-free"])
def test_solved_and_file_read_solutions_hold_python_floats(tmp_path, config, free):
    # a solve's omega_p and its basins' are the Python floats a solution
    # read back from its file holds, not numpy scalars
    from qparity.cli import _solution_from_file, load_config, parse_parallel_config
    from qparity.eraser import solve_eraser

    cfg, out = tmp_path / "cfg.json", tmp_path / "sol.json"
    cfg.write_text(json.dumps(config))
    assert main(["solve", str(cfg), "--out", str(out), *free]) == 0
    dev, _ = parse_parallel_config(load_config(str(cfg)), str(cfg))
    solved = solve_eraser(dev, free=("chi", "mode_frequencies") if free else ("chi",))
    read = _solution_from_file(str(out), solved.device)
    for sol in (solved, read):
        assert type(sol.omega_p) is float
        assert type(sol.chi) is float
        assert all(type(v) is float for basin in sol.basins for v in basin)
    assert read.omega_p == solved.omega_p
    assert solved.basins and solved.basins[0][0] == solved.omega_p


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in np.concatenate(
        [np.ravel(np.asarray(v, dtype=float)) for v in values])]


@pytest.mark.parametrize("model", ["stub", "lumped"])
@pytest.mark.parametrize("config, free", [(PAPER_CONFIG, ("chi",)),
                                          (FOUR_QUBIT_CONFIG, ("chi", "mode_frequencies"))],
                         ids=["paper", "n4-free"])
def test_every_solution_route_is_its_own_devices_fold(tmp_path, config, free, model):
    # solved, read back from its file, and replaced in device or probe: every
    # derived field, and the fold held beside them, is a fresh jets fold of
    # the solution's own (device, omega_p), with the definitions written out
    from dataclasses import replace

    from qparity.cli import _solution_from_file, load_config, parse_parallel_config
    from qparity.device import _weight_fold
    from qparity.eraser import solution_to_dict, solve_eraser
    from qparity.network import wrap_phase

    cfg, out = tmp_path / "cfg.json", tmp_path / "sol.json"
    cfg.write_text(json.dumps(dict(config, resonator_model=model)))
    dev, _ = parse_parallel_config(load_config(str(cfg)), str(cfg))
    solved = solve_eraser(dev, free=free)
    out.write_text(json.dumps(solution_to_dict(solved)))
    routes = {
        "solved": solved,
        "file": _solution_from_file(str(out), dev),
        "chi": replace(solved, device=solved.device.with_chi(1.05 * solved.chi)),
        "omega_p": replace(solved, omega_p=solved.omega_p + TWO_PI * 1e5),
    }
    folds = {route: _weight_fold(sol.device, sol.omega_p, jets=True)
             for route, sol in routes.items()}
    for route, sol in routes.items():
        jets = folds[route]
        th, d1, d2 = (row.tolist() for row in jets[:3])
        n = sol.device.n
        pairs = [(a, b) for a in range(n + 1) for b in range(a + 2, n + 1, 2)]
        fresh = {
            "chi": sol.device.chi,
            "theta_by_weight": th,
            "residuals": [th[i] - th[i + 2] - TWO_PI for i in range(n - 1)],
            "delta_theta": wrap_phase(th[0] - th[1]),
            "dispersion_b": max(abs(d1[a] - d1[b]) for a, b in pairs),
            "dispersion_b2": max(abs(d2[a] - d2[b]) for a, b in pairs),
        }
        for name, value in fresh.items():
            assert _hexes([getattr(sol, name)]) == _hexes([value]), (route, name)
    for route, sol in routes.items():
        assert _hexes(sol.jets) == _hexes(folds[route]), route
    assert routes["chi"].theta_by_weight != solved.theta_by_weight
    assert routes["omega_p"].theta_by_weight != solved.theta_by_weight


def test_a_solution_is_folded_once(solved, tmp_path, monkeypatch):
    # one jets fold builds a solution; the fidelity table and the dispersion
    # report read it, so a fidelity run folds its solution once
    from qparity import device
    from qparity.cli import _solution_from_file, load_config, parse_parallel_config
    from qparity.eraser import EraserSolution, dispersion_report
    from qparity.fidelity import ProbePulse, eraser_quality

    cfg, sol_path = solved
    dev, _ = parse_parallel_config(load_config(str(cfg)), str(cfg))
    template = _solution_from_file(str(sol_path), dev)
    folds, fold_jets = [], device._fold_jets

    def counting(*args, **kwargs):
        folds.append(1)
        return fold_jets(*args, **kwargs)

    monkeypatch.setattr(device, "_fold_jets", counting)
    sol = EraserSolution(template.device, template.omega_p)
    assert len(folds) == 1
    eraser_quality(sol, ProbePulse.from_duration(math.sqrt(5.0), sol.omega_p, 1e-6))
    dispersion_report(sol)
    assert len(folds) == 1
    assert main(["fidelity", str(cfg), str(sol_path),
                 "--out-json", str(tmp_path / "fid.json")]) == 0
    assert len(folds) == 2


def _bad_top_level(sol):
    return [sol]


def _chi_object(sol):
    return dict(sol, chi_rad_s={"value": sol["chi_rad_s"]})


def _chi_string(sol):
    return dict(sol, chi_rad_s="x")


def _short_modes(sol):
    return dict(sol, mode_omega_rad_s=sol["mode_omega_rad_s"][:1])


def _probe_off_band(sol):
    return dict(sol, omega_p_rad_s=-5.0)


def _chi_pulls_below_zero(sol):
    # 3 x 5 GHz pulls the 9.99 GHz mode to -5 GHz (it exited 3, naming no field)
    return dict(sol, chi_rad_s=TWO_PI * 5e9)


def _chi_band_below_zero(sol):
    # without its stored band, the default band of that chi reaches f < 0
    return dict(sol, chi_rad_s=TWO_PI * 5e9, band_rad_s=None)


@pytest.mark.parametrize("corrupt,field", [
    (_bad_top_level, ""),
    (_chi_object, ".chi_rad_s"),
    (_chi_string, ".chi_rad_s"),
    (_short_modes, ".mode_omega_rad_s"),
    (_probe_off_band, ".omega_p_rad_s"),
    (_chi_pulls_below_zero, ".chi_rad_s"),
    (_chi_band_below_zero, ".chi_rad_s"),
], ids=["json-list", "chi-object", "chi-string", "mode-count", "probe-off-band",
        "chi-pull", "chi-default-band"])
def test_bad_solution_file_names_field(solved, tmp_path, capsys, corrupt, field):
    cfg, sol_path = solved
    bad = tmp_path / "bad_sol.json"
    bad.write_text(json.dumps(corrupt(json.loads(sol_path.read_text()))))
    assert main(["fidelity", str(cfg), str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}{field}:" in err
    assert "Traceback" not in err


def test_solution_modes_are_read_from_mode_omega_rad_s_alone(solved, tmp_path, capsys):
    # mode_f_Hz is derived, and clamped to 12 digits in the JSON: a short
    # one changes no fidelity output, and it does not stand in for a
    # missing mode_omega_rad_s
    cfg, sol_path = solved
    sol = json.loads(sol_path.read_text())
    short = tmp_path / "short_f.json"
    short.write_text(json.dumps(dict(sol, mode_f_Hz=sol["mode_f_Hz"][:1])))
    outputs = []
    for path in (sol_path, short):
        out_json, out_csv = tmp_path / f"fid_{path.stem}.json", tmp_path / f"fid_{path.stem}.csv"
        assert main(["fidelity", str(cfg), str(path), "--alpha-sq", "5", "--T-us", "1",
                     "--out-json", str(out_json), "--out-csv", str(out_csv)]) == 0
        outputs.append((capsys.readouterr().out, out_json.read_bytes(), out_csv.read_bytes()))
    assert outputs[0] == outputs[1]
    del sol["mode_omega_rad_s"]
    missing = tmp_path / "no_omegas.json"
    missing.write_text(json.dumps(sol))
    assert main(["fidelity", str(cfg), str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {missing}.mode_omega_rad_s: missing required field\n")


def _with_field(cfg, field, value):
    """A copy of cfg with the dotted field (list indices as digits) set."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = [int(k) if k.isdigit() else k for k in field.split(".")]
    holder = cfg
    for key in parents:
        holder = holder[key]
    holder[last] = value
    return cfg


@pytest.mark.parametrize("field,value,shown", [
    ("modes.0.f_GHz", math.nan, "modes[0].f_GHz: must be finite"),
    ("chi_MHz", math.nan, "chi_MHz: must be finite"),
    ("Z0_ohms", math.nan, "Z0_ohms: must be finite"),
    ("band.f_hi_GHz", math.inf, "band.f_hi_GHz: must be finite"),
    ("band.f_hi_GHz", 1e300, "band.f_hi_GHz: 1e+300 is out of float range in SI units"),
    ("modes.1.f_GHz", 1e299, "modes[1].f_GHz: 1e+299 is out of float range in SI units"),
    ("chi_MHz", 1e305, "chi_MHz: 1e+305 is out of float range in SI units"),
    ("modes.0.C_couple_fF", 1e-320,
     "modes[0].C_couple_fF: 1e-320 is out of float range in SI units"),
], ids=["f-nan", "chi-nan", "z0-nan", "band-inf", "band-huge", "f-huge", "chi-huge",
        "c-tiny"])
def test_non_finite_config_number_names_field(tmp_path, capsys, field, value, shown):
    # json reads NaN and Infinity, which slip past every <= 0 check, and a
    # finite number can still overflow (or round to zero) in SI units
    cfg = dict(PAPER_CONFIG, chi_MHz=5.77, band={"f_lo_GHz": 9.4, "f_hi_GHz": 10.6})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_with_field(cfg, field, value)))
    assert main(["sweep", str(p), "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {p}.{shown}"
    assert not (tmp_path / "s.csv").exists()


def test_huge_json_integer_is_a_config_error(solved, tmp_path, capsys):
    # json.loads refuses integers beyond 4300 digits with a plain ValueError
    cfg, sol_path = solved
    huge = "1" * 5000
    bad_cfg = tmp_path / "c.json"
    bad_cfg.write_text(json.dumps(PAPER_CONFIG).replace('"n_qubits": 3',
                                                        f'"n_qubits": {huge}'))
    assert main(["solve", str(bad_cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {bad_cfg}: invalid JSON")
    bad_sol = tmp_path / "sol.json"
    bad_sol.write_text(sol_path.read_text().replace('"chi_rad_s": ',
                                                    f'"chi_rad_s": {huge}, "x": '))
    assert main(["fidelity", str(cfg), str(bad_sol)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {bad_sol}: cannot load solution")


def test_non_finite_solution_number_names_field(solved, tmp_path, capsys):
    cfg, sol_path = solved
    bad = tmp_path / "bad_sol.json"
    bad.write_text(json.dumps(dict(json.loads(sol_path.read_text()),
                                   omega_p_rad_s=math.nan)))
    assert main(["fidelity", str(cfg), str(bad)]) == 2
    assert capsys.readouterr().err.strip() \
        == f"config error: {bad}.omega_p_rad_s: must be finite"


@pytest.mark.parametrize("command,kind,field,value,mode", [
    ("solve", "parallel", "modes.0.f_GHz", 1e-300, "modes[0]"),
    ("sweep", "parallel", "modes.0.f_GHz", 1e-300, "modes[0]"),
    ("compare", "cascade", "cavity.f_GHz", 1e-300, "cavity"),
    ("solve", "parallel", "Z0_ohms", 1e-300, "modes[0]"),
    ("solve", "parallel", "Z0_ohms", 1e300, "modes[0]"),
], ids=["solve-f", "sweep-f", "compare-cavity-f", "solve-z0-tiny", "solve-z0-huge"])
def test_extreme_finite_value_ends_in_one_line(tmp_path, capsys, command, kind,
                                               field, value, mode):
    # values whose lumped equivalent under- or overflows once squared: every
    # command needs it, so the config is refused, naming the mode's f_GHz
    # and the Z0_ohms it is read with
    paper = dict(PAPER_CONFIG, chi_MHz=5.77) if command == "sweep" else PAPER_CONFIG
    configs = {"parallel": paper, "cascade": CASCADE_CONFIG}
    configs[kind] = _with_field(configs[kind], field, value)
    paths = {k: tmp_path / f"{k}.json" for k in configs}
    for k, cfg in configs.items():
        paths[k].write_text(json.dumps(cfg))
    argv = {"solve": ["solve", str(paths["parallel"])],
            "sweep": ["sweep", str(paths["parallel"]), "--out", str(tmp_path / "s.csv")],
            "compare": ["compare", str(paths["parallel"]), str(paths["cascade"])]}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"config error: {paths[kind]}.{mode}.f_GHz: ")
    assert f"{paths[kind]}.Z0_ohms" in err
    assert "\n" not in err


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


def test_compare_keeps_a_numeric_cascade_chi_whose_default_band_reaches_zero(
        paper_cfg, tmp_path, capsys):
    # at 500 MHz the cavity's default band reaches f < 0; the symmetric-point
    # search folds the cavity's table, which reads no band, so the cascade is
    # scored (it exited 3, "need finite 0 < band[0] < band[1], ...")
    cas, out = tmp_path / "cascade.json", tmp_path / "cmp.json"
    cas.write_text(json.dumps(dict(CASCADE_CONFIG, chi_MHz=500)))
    assert main(["compare", str(paper_cfg), str(cas), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    cascade = json.loads(out.read_text())["cascade"]
    assert cascade["chi_Hz"] == 500e6
    assert cascade["f_p_Hz"] == pytest.approx(9.7685e9, rel=1e-5)
    assert 0.0 < cascade["b2_max_s2"] < math.inf


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_compare_names_a_numeric_cascade_chi_the_cavity_cannot_take(paper_cfg, tmp_path,
                                                                    capsys, model):
    # 1396 MHz pulls the 0.281 GHz cavity's bit-1 mode below zero: compare
    # exited 3, "evaluation error: shifts drove mode frequency to ...", naming
    # no field, where sweep and fidelity name their chi for the same pull
    cas, out = tmp_path / "cascade.json", tmp_path / "cmp.json"
    cas.write_text(json.dumps(dict(CASCADE_CONFIG, chi_MHz=1396, resonator_model=model,
                                   cavity={"f_GHz": 0.281, "C_couple_fF": 10.0})))
    assert main(["compare", str(paper_cfg), str(cas), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: {cas}.chi_MHz: shifts drove mode "
                                       "frequency to -7.006e+09 rad/s\n")
    assert not out.exists()


LOW_TWO_MODE = {
    "schema_version": "1",
    "n_qubits": 3,
    "modes": [{"f_GHz": 0.99, "C_couple_fF": 10.0}, {"f_GHz": 1.01, "C_couple_fF": 10.0}],
}


@pytest.mark.parametrize("chi_mhz, band, message", [
    # 3 x 400 MHz pulls the 0.99 GHz mode below zero
    (400, {"f_lo_GHz": 0.5, "f_hi_GHz": 1.5}, "shifts drove mode frequency to -1.319e+09"),
    # 3 x 300 MHz does not, but the default band's margins reach below zero
    (300, None, "need finite 0 < band[0] < band[1], got (-"),
], ids=["pull", "default-band"])
def test_sweep_chi_that_cannot_be_evaluated_names_chi(tmp_path, capsys, chi_mhz, band,
                                                       message):
    cfg = dict(LOW_TWO_MODE, chi_MHz=chi_mhz, **({"band": band} if band else {}))
    p, out = tmp_path / "low.json", tmp_path / "s.csv"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {p}.chi_MHz: ")
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()


# a stub n = 4 device low enough for 4 chi to reach its lowest mode
LOW_FREQUENCY_N4 = {
    "schema_version": "1",
    "n_qubits": 4,
    "modes": [
        {"f_GHz": 0.6537931765382204, "C_couple_fF": 15.788318928102584},
        {"f_GHz": 0.6714462338966602, "C_couple_fF": 13.857957961873346},
        {"f_GHz": 0.6890992912551002, "C_couple_fF": 4.954421896632994},
    ],
    "chi_MHz": "solve",
    "resonator_model": "stub",
}


def test_free_mode_solve_halves_a_step_that_pulls_a_mode_below_zero(tmp_path, capsys):
    # Gauss-Newton tried a step here whose weight-4 state pulled the lowest
    # mode below zero, and the solve exited 3 ("evaluation error: shifts
    # drove mode frequency to ..."); such a step is halved, as one leaving
    # the search box is
    p, out = tmp_path / "lowf.json", tmp_path / "sol.json"
    p.write_text(json.dumps(LOW_FREQUENCY_N4))
    rc = main(["solve", str(p), "--free-modes", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc in (0, 4) and "evaluation error" not in err
    if rc == 0:
        assert max(abs(r) for r in json.loads(out.read_text())["residuals_rad"]) < 1e-9


@pytest.mark.parametrize("tol", ["0.5", "1e308", str(0.1 * math.pi)])
def test_solve_tol_whose_pole_guard_takes_every_phase_exits_2(paper_cfg, tmp_path, capsys,
                                                              monkeypatch, tol):
    # from tol = pi/10 on, 10 tol >= pi >= |wrap theta| for every phase, so
    # every root sat "within 10 tol of a reflection pole": the solve ran its
    # full search and exited 3 (at 1e308 "within inf rad")
    import qparity.cli

    def refuse(*args, **kwargs):
        raise AssertionError("solve_eraser ran")

    monkeypatch.setattr(qparity.cli, "solve_eraser", refuse)
    out = tmp_path / "sol.json"
    assert main(["solve", str(paper_cfg), "--tol", tol, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == ("config error: argument --tol: must be "
                   f">= 1e-12 and < pi/10, got {tol}\n")
    assert not out.exists()


def test_solution_on_a_reflection_pole_exits_3(paper_cfg, tmp_path, capsys):
    # at --tol 0.3 every weight phase lies within 10 tol = 3 rad of a pole
    # (theta = 0 mod 2 pi) or closer, and the verified root is refused
    out = tmp_path / "sol.json"
    assert main(["solve", str(paper_cfg), "--tol", "0.3", "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("evaluation error: solution at omega_p=")
    assert err.endswith("sits within 3.0e+00 rad of a reflection pole")
    assert not out.exists()


def test_compare_searches_chi_about_a_numeric_parallel_chi(paper_cfg, tmp_path,
                                                           monkeypatch):
    # a numeric chi_MHz narrows the parallel solve to [chi/3, 3 chi], as
    # solve's does; the paper root lies inside, so the report is the same
    from qparity import cli

    calls = []
    solve = cli.solve_eraser

    def recording_solve(dev, **kwargs):
        calls.append(kwargs)
        return solve(dev, **kwargs)

    monkeypatch.setattr(cli, "solve_eraser", recording_solve)
    fixed, cas = tmp_path / "fixed.json", tmp_path / "cascade.json"
    fixed.write_text(json.dumps(dict(PAPER_CONFIG, chi_MHz=5.77)))
    cas.write_text(json.dumps(CASCADE_CONFIG))
    for cfg in (paper_cfg, fixed):
        out = tmp_path / f"{cfg.stem}.out"
        assert main(["compare", str(cfg), str(cas), "--out", str(out)]) == 0
    chi = TWO_PI * 5.77 * 1e6
    assert calls == [{}, {"chi_range": (chi / 3.0, chi * 3.0)}]
    assert (tmp_path / "fixed.out").read_bytes() == (tmp_path / "paper.out").read_bytes()


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


def test_solve_frees_the_mode_gaps_from_four_qubits_on(tmp_path, capsys):
    # three conditions outnumber (omega_p, chi), so solve frees the mode
    # gaps with or without --free-modes: the same stdout and the same bytes
    p = tmp_path / "n4.json"
    p.write_text(json.dumps(FOUR_QUBIT_CONFIG))
    runs = []
    for flags in ((), ("--free-modes",)):
        out = tmp_path / f"sol4{len(flags)}.json"
        assert main(["solve", str(p), *flags, "--out", str(out)]) == 0
        runs.append((capsys.readouterr(), out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0].out.endswith("dtheta= -180 deg\n")


def test_compare_scores_a_four_qubit_device(tmp_path, capsys):
    # the surface-code plaquette: compare solves the 4-qubit device with
    # its mode gaps freed, as solve does, and scores it against four
    # cascade cavities, byte for byte the same on a second run
    from json_reference import json_ready

    from qparity.cascade import compare_schemes, comparison_to_dict
    from qparity.cli import parse_cascade_config, parse_parallel_config
    from qparity.eraser import solve_eraser
    from qparity.fidelity import ProbePulse

    p, c = tmp_path / "n4.json", tmp_path / "cascade4.json"
    p.write_text(json.dumps(FOUR_QUBIT_CONFIG))
    c.write_text(json.dumps(dict(CASCADE_CONFIG, n_qubits=4)))
    outs = []
    for run in (1, 2):
        out = tmp_path / f"cmp{run}.json"
        assert main(["compare", str(p), str(c), "--out", str(out)]) == 0, capsys.readouterr()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rep = json.loads(outs[0])
    assert rep["parallel"]["resonator_count"] == 3
    assert rep["cascade"]["resonator_count"] == 4
    assert max(abs(r) for r in rep["parallel"]["residuals_rad"]) < 1e-9
    dev, _ = parse_parallel_config(FOUR_QUBIT_CONFIG, "n4.json")
    _, cavity, _ = parse_cascade_config(dict(CASCADE_CONFIG, n_qubits=4), "cascade4.json")
    sol = solve_eraser(dev, free=("chi", "mode_frequencies"))
    want = comparison_to_dict(compare_schemes(
        sol, cavity, ProbePulse.from_duration(math.sqrt(5.0), sol.omega_p, 1e-6)))
    del rep["pulse"]
    assert rep == json_ready(want)


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_solve_and_compare_free_the_gaps_where_the_solver_needs_them(
        tmp_path, monkeypatch, command):
    # solve_eraser frees the gaps from n = 4 on by itself, so the CLI asks
    # for them only with --free-modes, which compare does not take
    from qparity import cli, eraser

    calls = []

    def recording_solve(dev, **kwargs):
        calls.append((dev.n, kwargs.get("free")))
        raise eraser.NoSolution("recorded")

    monkeypatch.setattr(cli, "solve_eraser", recording_solve)
    cas = tmp_path / "cascade.json"
    for n in range(2, 9):
        cfg = tmp_path / f"n{n}.json"
        cfg.write_text(json.dumps(dict(FOUR_QUBIT_CONFIG, n_qubits=n)))
        cas.write_text(json.dumps(dict(CASCADE_CONFIG, n_qubits=n)))
        argv = ["solve", str(cfg)] if command == "solve" else ["compare", str(cfg), str(cas)]
        assert main(argv) == 4
    assert calls == [(n, None) for n in range(2, 9)]
    if command == "solve":
        calls.clear()
        for n in (3, 4):
            assert main(["solve", str(tmp_path / f"n{n}.json"), "--free-modes"]) == 4
        free = ("chi", "mode_frequencies")
        assert calls == [(3, free), (4, free)]


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


def test_estimate_frequency_beyond_float_range_names_flag(capsys, tmp_path):
    out = tmp_path / "est.json"
    assert main(ESTIMATE_ARGS + ["--fp-GHz", "1e300", "--json", str(out)]) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: argument --fp-GHz: 1e+300 is out of float range in SI units")
    assert not out.exists()


def test_estimate_underflowing_rates_end_in_one_line(capsys):
    # kappa * chi underflows to zero in the Purcell ratio's denominator
    assert main(ESTIMATE_ARGS + ["--kappa-MHz", "1e-300", "--chi-MHz", "1e-300"]) == 3
    err = capsys.readouterr().err.strip()
    assert err == "evaluation error: float division by zero"


@pytest.mark.parametrize("flags, message", [
    (["--delta-GHz", "1e290", "--kappa-MHz", "1e-20", "--chi-MHz", "1e-20"],
     "argument --delta-GHz: Purcell T1 is out of float range with --kappa-MHz "
     "and --chi-MHz"),
    (["--delta-GHz", "1e-300", "--chi-MHz", "1e-318"],
     "argument --chi-MHz: measurement time is out of float range"),
    (["--fp-GHz", "1e290", "--alpha-sq", "1e300", "--T-us", "1e-290"],
     "argument --alpha-sq: peak power is out of float range with --fp-GHz and --T-us"),
], ids=["purcell", "measurement-time", "peak-power"])
def test_estimate_overflowing_result_names_its_flags(capsys, tmp_path, flags, message):
    # finite flags whose result overflows printed inf, or exited 3 naming no flag
    out = tmp_path / "est.json"
    assert main(ESTIMATE_ARGS + flags + ["--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"config error: {message}"
    assert captured.out == ""
    assert not out.exists()


def test_estimate_zero_power_writes_null_dbm(capsys, tmp_path):
    out = tmp_path / "est.json"
    assert main(ESTIMATE_ARGS + ["--alpha-sq", "0", "--json", str(out)]) == 0
    assert "0 W = -inf dBm" in capsys.readouterr().out
    text = out.read_text()
    assert "Infinity" not in text
    assert json.loads(text)["peak_power"]["dBm"] is None


# ----------------------------------------------------------------------
# no command builds a network tree or a phase curve
# ----------------------------------------------------------------------

def test_no_cli_path_builds_a_network_tree_or_curve(monkeypatch, paper_device, tmp_path):
    # every CLI path folds the stacked weight table; the tree, and every
    # evaluation of one (the oracle sweep's points and root solves alike),
    # is only the test oracle's, and a PhaseCurve is only the library's
    import qparity.network
    from qparity import (Mode, ParityDevice, ProbePulse, compare_schemes,
                         eraser_quality, solution_to_dict, solve_eraser)

    def refuse(*args, **kwargs):
        raise AssertionError("a network tree or a phase curve was built or evaluated")

    monkeypatch.setattr(qparity.network, "_impedance_parts", refuse)
    monkeypatch.setattr(qparity.network.PhaseCurve, "__init__", refuse)
    sol = solve_eraser(paper_device)
    assert len(solution_to_dict(sol)["loaded_poles_by_weight_Hz"]["0"]) == 2
    pulse = ProbePulse.from_duration(math.sqrt(5.0), sol.omega_p, 1e-6)
    assert eraser_quality(sol, pulse)
    cavity = ParityDevice.equal_coupling(1, (Mode(TWO_PI * 10e9, 10e-15),), sol.chi)
    assert compare_schemes(sol, cavity, pulse).cascade.b2_max > 0.0
    for argv in _readme_commands(tmp_path):
        assert main(argv) == 0, argv


def _readme_commands(root) -> list:
    """Every subcommand on the README's configs, written under root."""
    n4 = dict(PAPER_CONFIG, n_qubits=4, modes=[
        {"f_GHz": f, "C_couple_fF": 10.0} for f in (9.97, 10.0, 10.03)])
    for name, cfg in (("paper", PAPER_CONFIG), ("fixed", dict(PAPER_CONFIG, chi_MHz=5.77)),
                      ("n4", n4), ("cascade", CASCADE_CONFIG)):
        (root / f"{name}.json").write_text(json.dumps(cfg))
    paper, sol = str(root / "paper.json"), str(root / "sol.json")
    pulse = ["--alpha-sq", "5", "--T-us", "1"]
    return [["sweep", str(root / "fixed.json"), "--points", "101",
             "--out", str(root / "sweep.csv")],
            ["solve", paper, "--out", sol],
            ["solve", str(root / "n4.json"), "--free-modes", "--out", str(root / "sol4.json")],
            ["fidelity", paper, sol, *pulse, "--out-json", str(root / "fid.json")],
            ["compare", paper, str(root / "cascade.json"), *pulse, "--out", str(root / "cmp.json")],
            ["estimate", "--delta-GHz", "5", "--kappa-MHz", "5", "--chi-MHz", "5.77",
             *pulse, "--fp-GHz", "9.804"]]


def test_no_cli_path_imports_scipy(tmp_path):
    # the runtime depends on numpy only: every subcommand, run in one fresh
    # interpreter, leaves no scipy module loaded
    script = "\n".join([
        "import json, sys",
        "from qparity.cli import main",
        "for argv in json.loads(sys.argv[1]):",
        "    assert main(argv) == 0, argv",
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(_readme_commands(tmp_path))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


# ----------------------------------------------------------------------
# output files hold finite numbers only
# ----------------------------------------------------------------------

def test_write_json_refuses_non_finite(tmp_path):
    from qparity.cli import _write_json

    for bad in (math.nan, math.inf, -math.inf):
        for payload in ({"a": [1.0, bad]}, {"omega_p_rad_s": bad}):
            with pytest.raises(ValueError, match=r"^Out of range float values are not "
                                                 r"JSON compliant"):
                _write_json(tmp_path / "x.json", "--out", payload)
    assert not (tmp_path / "x.json").exists()


def _random_json(rng, depth: int = 0):
    """A random JSON payload: nested dicts (string keys, PRECISE_KEYS among
    them), lists and tuples, and leaves where the two writers could part."""
    from qparity.cli import PRECISE_KEYS

    kind = rng.random()
    if depth < 4 and kind < 0.3:
        keys = rng.sample(sorted(PRECISE_KEYS) + ["a", "b_s", "Z", "\u00e9t\u00e9", "k\n", ""],
                          rng.randint(0, 5))
        return {k: _random_json(rng, depth + 1) for k in keys}
    if depth < 4 and kind < 0.5:
        items = [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.3 else items
    return rng.choice([
        lambda: rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308),
        lambda: rng.uniform(1e12, 1e16),           # .12g and repr differ in notation
        lambda: float(rng.randrange(10 ** 11, 10 ** 17)),
        lambda: rng.choice([0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308]),
        lambda: rng.random() * 2.2250738585072014e-308,   # subnormal
        lambda: rng.randrange(-2 ** 70, 2 ** 70),    # ints past 2**53
        lambda: rng.choice([True, False, None, 0, -1]),
        lambda: "".join(rng.choice(["a", "\u00e9", "\u2603", "\U0001f600", "\n", "\t", "\x00",
                                    "\x1f", "\x7f", '"', "\\", "/"])
                        for _ in range(rng.randint(0, 6))),
    ])()


def test_json_writer_matches_the_two_walk_reference():
    # cli._json_text against json.dumps(indent=2, sort_keys=True) over the
    # clamped copy qparity wrote before (tests/json_reference.py), byte for
    # byte on 500 seeded nested payloads, 20000 floats, and one payload that
    # holds each case: PRECISE_KEYS at several depths, one holding a dict;
    # -0.0 and subnormals; floats in [1e12, 1e16), where .12g and repr pick
    # different notations; ints past 2**53, bools and None; non-ASCII and
    # control characters; empty dicts, lists and tuples
    import random

    from json_reference import reference_json

    from qparity.cli import _json_text

    fixed = {
        "omega_p_rad_s": 61600237676.08135, "chi_rad_s": [36275968.16617383, -0.0],
        "band_rad_s": {"lo": 1.0000000000001, "inner": {"x": 2.0 / 3.0}},
        "outer": {"mode_omega_rad_s": (62769021218.72407, 5e-324),
                  "deep": [{"residuals_rad": [1e-13 / 3.0]}, 1e-13 / 3.0]},
        "notation": [1e12, 1.5e12, 123456789012345.6, 9.999999999999e15, 1e16, 1e-5, 1e-4],
        "ints": [2 ** 53 + 1, -2 ** 64, True, False, None],
        "text": ["\u00e9\u2603\U0001f600", "\x00\x1f\x7f\n\t\"\\/"],
        "empty": [{}, [], ()], "tuple": (1, 2.5, "x"), "": -0.0,
    }
    assert _json_text(fixed) == reference_json(fixed)
    rng = random.Random(20261021)
    floats = [rng.choice([1.0, float(rng.randrange(1, 10 ** 17))]) * rng.uniform(-1.0, 1.0)
              * 10.0 ** rng.randint(-30, 30) for _ in range(20000)]
    assert _json_text(floats) == reference_json(floats)
    for _ in range(500):
        payload = {"pairs": _random_json(rng), "f_p_Hz": _random_json(rng, 3),
                   "theta_by_weight_rad": _random_json(rng, 2)}
        assert _json_text(payload) == reference_json(payload), payload
    for bad in ({"a": math.nan}, {"a": [object()]}, {"a": np.int64(1)}):
        with pytest.raises((ValueError, TypeError)) as want:
            reference_json(bad)
        with pytest.raises(want.type):
            _json_text(bad)


@pytest.mark.parametrize("where", ["directory", "under-a-file", "missing-parent",
                                   "trailing-slash"])
@pytest.mark.parametrize("command, flag", [
    ("solve", "--out"), ("sweep", "--out"), ("fidelity", "--out-json"),
    ("fidelity", "--out-csv"), ("compare", "--out"), ("estimate", "--json")])
def test_unwritable_output_path_exits_2_in_one_line(solved, tmp_path, capsys, command,
                                                    flag, where):
    # a directory, a path under a regular file or a missing directory, or
    # one ending in "/", cannot be written: the writer opens the path as
    # given and refuses it as a config error naming its flag, with nothing
    # on stdout, and no path is made or changed
    cfg, sol = solved
    if where == "directory":
        target = tmp_path / "adir"
        target.mkdir()
    elif where == "under-a-file":
        (tmp_path / "afile").write_text("kept")
        target = tmp_path / "afile" / "out.json"
    elif where == "missing-parent":
        target = tmp_path / "newdir" / "sub" / "out.json"
    else:  # a pathlib path drops the slash
        target = f"{tmp_path / 'out'}/"
    fixed, cas = tmp_path / "fixed.json", tmp_path / "cascade.json"
    fixed.write_text(json.dumps(dict(PAPER_CONFIG, chi_MHz=5.77)))
    cas.write_text(json.dumps(CASCADE_CONFIG))
    argv = {"solve": ["solve", str(cfg)], "sweep": ["sweep", str(fixed), "--points", "3"],
            "fidelity": ["fidelity", str(cfg), str(sol)],
            "compare": ["compare", str(cfg), str(cas)], "estimate": ESTIMATE_ARGS}[command]
    assert main([*argv, flag, str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: argument {flag}: cannot write {target}: ")
    assert err.count("\n") == 1
    if where == "directory":
        assert target.is_dir() and not any(target.iterdir())
    elif where == "under-a-file":
        assert (tmp_path / "afile").read_text() == "kept"
    else:
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cascade.json", "fixed.json"]


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
@pytest.mark.parametrize("existing", [False, True, "missing-parent", "dangling-link"])
def test_fidelity_refuses_its_csv_before_writing_its_json(solved, tmp_path, capsys, where,
                                                          existing):
    # both output paths are refused before either file is written: a CSV
    # path that cannot be written leaves no new JSON behind, and an existing
    # JSON unchanged; a JSON path under a missing directory is refused
    # itself, making no directory, and a JSON path that is a dangling
    # symlink keeps its link while the file made at its target goes
    cfg, sol = solved
    out_json = tmp_path / "fid.json"
    if existing is True:
        out_json.write_text("kept")
    elif existing == "missing-parent":
        out_json = tmp_path / "newdir" / "sub" / "fid.json"
    elif existing == "dangling-link":
        out_json.symlink_to(tmp_path / "missing")
    if where == "directory":
        target = tmp_path / "adir"
        target.mkdir()
    else:
        (tmp_path / "afile").write_text("kept")
        target = tmp_path / "afile" / "fid.csv"
    assert main(["fidelity", str(cfg), str(sol), "--out-json", str(out_json),
                 "--out-csv", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    flag, refused = (("--out-json", out_json) if existing == "missing-parent"
                     else ("--out-csv", target))
    assert err.startswith(f"config error: argument {flag}: cannot write {refused}: ")
    assert err.count("\n") == 1
    if existing is True:
        assert out_json.read_text() == "kept"
    elif existing == "dangling-link":
        assert out_json.is_symlink() and not os.path.lexists(tmp_path / "missing")
    else:
        assert not os.path.lexists(out_json) and not (tmp_path / "newdir").exists()


@pytest.mark.parametrize("alias, existing", [
    ("same-path", False), ("same-path", True), ("symlink", False), ("symlink", True),
    ("hard-link", True)])
def test_fidelity_refuses_two_outputs_naming_one_file(solved, tmp_path, capsys, alias,
                                                      existing):
    # --out-json and --out-csv naming one file, by the same path, a symlink
    # or a hard link, would write both tables into it: the second is refused
    # in one line, nothing is written, and a file the call made is removed
    cfg, sol = solved
    out_json, out_csv = tmp_path / "same.out", tmp_path / "alias.out"
    if existing:
        out_json.write_text("kept")
    if alias == "same-path":
        out_csv = out_json
    elif alias == "symlink":
        out_csv.symlink_to(out_json)
    else:
        os.link(out_json, out_csv)
    assert main(["fidelity", str(cfg), str(sol), "--out-json", str(out_json),
                 "--out-csv", str(out_csv)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"config error: argument --out-csv: cannot write {out_csv}: "
                   "same file as --out-json\n")
    if existing:
        assert out_json.read_text() == out_csv.read_text() == "kept"
    else:
        assert not out_json.exists()
        assert out_csv == out_json or out_csv.is_symlink()


def test_outputs_replace_longer_existing_files(solved, tmp_path, capsys):
    # outputs are opened for appending and emptied once all are open: a
    # longer file already at the path leaves nothing of itself behind
    cfg, sol = solved
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    for root in (fresh, stale):
        root.mkdir()
    for name in ("fid.json", "fid.csv", "sol.json"):
        (stale / name).write_text("stale\n" * 10000)
    for root in (fresh, stale):
        assert main(["fidelity", str(cfg), str(sol), "--out-json", str(root / "fid.json"),
                     "--out-csv", str(root / "fid.csv")]) == 0
        assert main(["solve", str(cfg), "--out", str(root / "sol.json")]) == 0
    capsys.readouterr()
    for name in ("fid.json", "fid.csv", "sol.json"):
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()


def test_sweep_points_past_memory_exit_2(tmp_path):
    # a child that caps its own address space (RLIMIT_AS, which limits that
    # process only) at 512 MiB before it imports qparity cannot allocate the
    # 763 MiB grid of 10**8 points: the allocation fails before any page is
    # touched, and sweep refuses --points in one line and writes nothing
    pytest.importorskip("resource")
    script = "\n".join([
        "import resource, sys",
        "resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))",
        "from qparity.cli import main",
        "sys.exit(main(sys.argv[1:]))",
    ])
    fixed, out = tmp_path / "fixed.json", tmp_path / "c.csv"
    fixed.write_text(json.dumps(dict(PAPER_CONFIG, chi_MHz=5.77)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script, "sweep", str(fixed), "--out", str(out),
         "--points", str(10 ** 8)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("config error: argument --points: 100000000 points do not "
                                  "fit in memory: ")
    assert done.stderr.count("\n") == 1
    assert not out.exists()


def test_estimate_writes_its_json_and_prints_its_table(tmp_path, capsys):
    # the JSON is written before the table prints; both as without the other
    assert main(ESTIMATE_ARGS) == 0
    table = capsys.readouterr().out
    out = tmp_path / "est.json"
    assert main([*ESTIMATE_ARGS, "--json", str(out)]) == 0
    assert capsys.readouterr().out == table
    assert json.loads(out.read_text())["peak_power"]["watts"] > 0.0


def test_overflowing_phase_derivatives_end_in_one_line(solved, tmp_path, capsys):
    # a 1e300 fF coupler keeps theta finite, but its derivative jets overflow
    cfg, sol_path = solved
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_with_field(PAPER_CONFIG, "modes.0.C_couple_fF", 1e300)))
    out = tmp_path / "fid.json"
    assert main(["fidelity", str(p), str(sol_path), "--out-json", str(out)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("evaluation error: phase derivatives at omega=")
    assert "\n" not in err
    assert not out.exists()


LOW_MODES = [{"f_GHz": 1e-6, "C_couple_fF": 10.0}, {"f_GHz": 1.002e-6, "C_couple_fF": 10.0}]


@pytest.mark.parametrize("field, value", [
    pytest.param("Z0_ohms", 1e100, id="z0"),
    pytest.param("modes.0.C_couple_fF", 1e300, id="coupler"),
    pytest.param("modes", LOW_MODES, id="low-modes"),
])
def test_search_band_reaching_zero_frequency_names_chi(tmp_path, capsys, field, value):
    # the probe search band runs from the lowest loaded mode zero less n chi
    # and margins; each of these puts it below f = 0, which the solve refuses
    # before any evaluation (it ended in the device's band check, naming no
    # field)
    p, out = tmp_path / "c.json", tmp_path / "sol.json"
    p.write_text(json.dumps(_with_field(PAPER_CONFIG, field, value)))
    assert main(["solve", str(p), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("no solution: the probe search band reaches f <= 0: "
                          "the lowest loaded mode zero, ")
    assert "n x chi_MHz = 3 x 50 MHz" in err
    assert not out.exists()


def test_short_pulse_outside_the_band_is_scored(solved, tmp_path):
    # a 3 ns pulse's mode comb spans f_p +/- 0.42 GHz, beyond the solution's
    # band: theta holds at any omega > 0, so it is scored like any other
    cfg, sol_path = solved
    out = tmp_path / "fid.json"
    assert main(["fidelity", str(cfg), str(sol_path), "--T-us", "0.003",
                 "--out-json", str(out)]) == 0
    pairs = json.loads(out.read_text())["pairs"]
    assert len(pairs) == 6 and all(0.0 <= d["F_numeric"] <= 1.0 for d in pairs)


@pytest.mark.parametrize("command, t_us, why", [
    pytest.param("fidelity", "1e-5", "too short", id="fidelity"),
    pytest.param("compare", "1e-5", "too short", id="compare"),
    # 1/T overflows to an infinite bandwidth, which the pulse refuses
    pytest.param("fidelity", "1e-303", "too short", id="fidelity-overflow"),
    # the comb spacing rounds to zero at the carrier: F was nan, exit 0 to CSV
    pytest.param("fidelity", "1e300", "too long", id="fidelity-long"),
    pytest.param("compare", "1e300", "too long", id="compare-long"),
])
def test_pulse_whose_comb_reaches_zero_names_t_us(solved, tmp_path, capsys, command,
                                                  t_us, why):
    cfg, sol_path = solved
    cas, out = tmp_path / "cascade.json", tmp_path / "out.json"
    cas.write_text(json.dumps(CASCADE_CONFIG))
    argv = {"fidelity": ["fidelity", str(cfg), str(sol_path), "--out-json", str(out)],
            "compare": ["compare", str(cfg), str(cas), "--out", str(out)]}[command]
    assert main(argv + ["--T-us", t_us]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"config error: argument --T-us: {why} for its carrier")
    assert "\n" not in err
    assert not out.exists()


def test_solve_single_qubit_reaches_pi(tmp_path, capsys):
    cfg = {"schema_version": "1", "n_qubits": 1,
           "modes": [{"f_GHz": 10.0, "C_couple_fF": 10.0}], "chi_MHz": "solve"}
    p, out = tmp_path / "n1.json", tmp_path / "sol.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", str(p), "--out", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["residuals_rad"] == []
    assert abs(abs(sol["delta_theta_rad"]) - math.pi) < 1e-8
    assert re.search(r"dtheta= -?180 deg$", capsys.readouterr().out.rstrip())
