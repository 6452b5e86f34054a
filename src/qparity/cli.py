"""Command-line front end: sweeps, eraser solves, fidelity, comparison, estimates.

Configs are JSON (schema_version "1") with frequencies in GHz, capacitances
in fF and chi in MHz, matching how device parameters are usually quoted;
this module is the single place where interface units are converted to
angular SI.  Outputs are deterministic: identical invocations produce
byte-identical CSV/JSON (floats rendered at 12 significant digits).

Exit codes: 0 ok, 2 config or flag error, 3 evaluation error, 4 no solution.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .cascade import comparison_to_dict, compare_schemes
from .device import Mode, NonPositiveResult, ParityDevice, _weight_fold, analysis_band
from .eraser import (
    EraserError,
    DEFAULT_TOL,
    MAX_TOL,
    MIN_TOL,
    EraserSolution,
    NoSolution,
    InfeasibleDevice,
    solution_to_dict,
    solve_eraser,
)
from .estimates import NonFiniteEstimate, estimate_report
from .fidelity import ProbePulse, PulseOutOfRange, eraser_quality, reports_to_dicts
from .network import NetworkError, lumped_equivalent

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_NO_SOLUTION = 4


class ConfigError(Exception):
    """Config rejected; message carries the offending field path."""


# ----------------------------------------------------------------------
# Unit conversion boundary (the only place interface units appear)
# ----------------------------------------------------------------------

def _si(value: float, si: float, where: str) -> float:
    """``si`` (``value`` in SI units) unless the conversion left float range."""
    if not math.isfinite(si) or (si == 0.0) != (value == 0.0):
        raise ConfigError(f"{where}: {value!r} is out of float range in SI units")
    return si


def _ghz(value: float, where: str) -> float:
    return _si(value, TWO_PI * value * 1e9, where)


def _mhz(value: float, where: str) -> float:
    return _si(value, TWO_PI * value * 1e6, where)


def _ff(value: float, where: str) -> float:
    return _si(value, value * 1e-15, where)


def _fmt(x) -> str:
    return f"{x:.12g}"


# Machine-state fields a solution must reproduce bit-exactly when fed back;
# these keep full float precision (shortest repr, still deterministic) while
# presentation values are clamped to 12 significant digits.
PRECISE_KEYS = frozenset({
    "omega_p_rad_s", "chi_rad_s", "band_rad_s", "mode_omega_rad_s",
    "residuals_rad", "theta_by_weight_rad",
})


def _json_text(obj, precise: bool = False, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) in one
    walk, each float outside a PRECISE_KEYS value clamped to 12 significant
    digits (_fmt), for byte-stable output.  Keys must be strings; NaN, inf
    and a type JSON lacks raise json's ValueError and TypeError."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        if precise:
            return float.__repr__(obj)
        # float(_fmt(obj))'s repr, which differs from _fmt's text only where
        # that has an exponent or no point (repr writes "1.0" for "1")
        text = _fmt(obj)
        return float.__repr__(float(text)) if "e" in text else text if "." in text else text + ".0"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        ends, items = "{}", [encode_basestring_ascii(k) + ": "
                             + _json_text(obj[k], precise or k in PRECISE_KEYS, inner)
                             for k in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        ends, items = "[]", [_json_text(v, precise, inner) for v in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _write_outputs(*outputs) -> None:
    """Calls write(file) for each (path, flag, write) of ``outputs`` with a
    path, once every path is open: each is opened as given, for appending,
    which changes no file, and emptied only then.  A path that cannot be
    written, or one naming the file of an earlier flag, is a config error
    naming its flag; it leaves every path as it was and removes the files
    made (through symlinks, which stay)."""
    outputs, handles, made, seen = [out for out in outputs if out[0]], [], [], {}
    try:
        with contextlib.ExitStack() as stack:
            for path, flag, _ in outputs:
                made.append(not os.path.exists(path))  # False where an earlier flag made it
                try:
                    handles.append(stack.enter_context(open(path, "a", newline="")))
                    stat = os.fstat(handles[-1].fileno())
                except OSError as exc:
                    raise ConfigError(f"argument {flag}: cannot write {path}: {exc}") from None
                other = seen.setdefault((stat.st_dev, stat.st_ino), flag)
                if other != flag:
                    raise ConfigError(f"argument {flag}: cannot write {path}: "
                                      f"same file as {other}")
            for fh, (_, _, write) in zip(handles, outputs):
                if fh.tell():  # a file's end, in append mode; a made one is empty
                    fh.truncate(0)
                write(fh)
    except ConfigError:  # only the opening loop raises it
        for fh, new in zip(handles, made):
            if new:
                os.remove(os.path.realpath(fh.name))
        raise


def _write_json(path, flag: str, payload: dict) -> None:
    """payload's _json_text and a newline to ``path`` (_write_outputs), the
    text made before the file opens: a refused payload writes nothing."""
    text = _json_text(payload) + "\n"
    _write_outputs((path, flag, lambda fh: fh.write(text)))


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------

def _finite(value, where: str) -> float:
    """A JSON number as a finite float; json reads NaN and Infinity, and an
    integer too large for a float."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite")
    return value


def _need(cfg: dict, key: str, kind, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = cfg[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        value = _finite(value, f"{path}.{key}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(
            f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def _optional(cfg: dict, key: str, kind, path: str, default):
    if key not in cfg:
        return default
    return _need(cfg, key, kind, path)


def load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an integer past int-string limits
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    version = _need(cfg, "schema_version", str, path)
    if version != "1":
        raise ConfigError(f"{path}.schema_version: unsupported version {version!r}")
    return cfg


def _shared_fields(cfg: dict, path: str, kind: str, chi_keyword: str):
    """The fields both device kinds share: kind, n_qubits, chi_MHz (a number
    or ``chi_keyword``), Z0_ohms and resonator_model.

    Returns (n, chi spec, chi start, z0, model); the chi spec is
    ``chi_keyword`` or chi in rad/s, the chi start what the device is built
    with.
    """
    got = _optional(cfg, "kind", str, path, kind)
    if got != kind:
        raise ConfigError(f"{path}.kind: expected {kind!r}, got {got!r}")
    n = _need(cfg, "n_qubits", int, path)
    if not 1 <= n <= 8:
        raise ConfigError(f"{path}.n_qubits: must be 1..8, got {n}")
    chi_raw = cfg.get("chi_MHz", chi_keyword)
    if isinstance(chi_raw, str):
        if chi_raw != chi_keyword:
            raise ConfigError(f"{path}.chi_MHz: expected a number or "
                              f"{chi_keyword!r}, got {chi_raw!r}")
        chi_spec = chi_keyword
        chi_start = _mhz(5.0, f"{path}.chi_MHz")
    elif isinstance(chi_raw, (int, float)) and not isinstance(chi_raw, bool):
        chi_raw = _finite(chi_raw, f"{path}.chi_MHz")
        if chi_raw <= 0:
            raise ConfigError(f"{path}.chi_MHz: must be > 0, got {chi_raw}")
        chi_spec = _mhz(chi_raw, f"{path}.chi_MHz")
        chi_start = chi_spec
    else:
        raise ConfigError(f"{path}.chi_MHz: expected a number or {chi_keyword!r}")
    z0 = _optional(cfg, "Z0_ohms", float, path, 50.0)
    if z0 <= 0:
        raise ConfigError(f"{path}.Z0_ohms: must be > 0, got {z0}")
    model = _optional(cfg, "resonator_model", str, path, "stub")
    if model not in ("stub", "lumped"):
        raise ConfigError(f"{path}.resonator_model: expected 'stub' or "
                          f"'lumped', got {model!r}")
    return n, chi_spec, chi_start, z0, model


def _mode(cfg: dict, path: str, z0: float, config: str) -> Mode:
    """One mode's f_GHz and C_couple_fF, each > 0, as a Mode whose resonance
    has a lumped equivalent under ``config``'s Z0_ohms, z0, whatever the
    model: the band, probe and tuner estimates read it (_loaded_zero_estimate)."""
    f = _need(cfg, "f_GHz", float, path)
    c = _need(cfg, "C_couple_fF", float, path)
    if f <= 0 or c <= 0:
        raise ConfigError(f"{path}: f_GHz and C_couple_fF must be > 0")
    mode = Mode(_ghz(f, f"{path}.f_GHz"), _ff(c, f"{path}.C_couple_fF"))
    try:
        lumped_equivalent(mode.omega, z0)
    except ValueError:
        raise ConfigError(f"{path}.f_GHz: {f!r} GHz with {config}.Z0_ohms = {z0!r} has no "
                          "lumped equivalent in float range")
    return mode


def parse_parallel_config(cfg: dict, path: str) -> tuple[ParityDevice, object]:
    """Returns (device template, chi spec) with chi spec 'solve' or rad/s."""
    n, chi_spec, chi_start, z0, model = _shared_fields(cfg, path, "parallel", "solve")
    raw_modes = _need(cfg, "modes", list, path)
    if not raw_modes:
        raise ConfigError(f"{path}.modes: must be non-empty")
    modes = []
    for i, m in enumerate(raw_modes):
        if not isinstance(m, dict):
            raise ConfigError(f"{path}.modes[{i}]: expected an object")
        modes.append(_mode(m, f"{path}.modes[{i}]", z0, path))
    freqs = [mo.omega for mo in modes]
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ConfigError(f"{path}.modes: f_GHz values must be strictly increasing")
    band = None
    if "band" in cfg:
        b = _need(cfg, "band", dict, path)
        lo = _need(b, "f_lo_GHz", float, f"{path}.band")
        hi = _need(b, "f_hi_GHz", float, f"{path}.band")
        if not 0 < lo < hi:
            raise ConfigError(f"{path}.band: need 0 < f_lo_GHz < f_hi_GHz")
        band = (_ghz(lo, f"{path}.band.f_lo_GHz"), _ghz(hi, f"{path}.band.f_hi_GHz"))
    try:
        dev = ParityDevice.equal_coupling(n=n, modes=modes, chi=chi_start,
                                          z0=z0, resonator_model=model,
                                          band=band)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    return dev, chi_spec


def parse_cascade_config(cfg: dict, path: str) -> tuple[int, ParityDevice, object]:
    """Returns (n, cavity, chi spec) with chi spec 'tune' or rad/s: n
    copies of the one-qubit, one-mode cavity, one per qubit."""
    n, chi_spec, chi_start, z0, model = _shared_fields(cfg, path, "cascade", "tune")
    mode = _mode(_need(cfg, "cavity", dict, path), f"{path}.cavity", z0, path)
    try:
        cavity = ParityDevice.equal_coupling(n=1, modes=(mode,), chi=chi_start,
                                             z0=z0, resonator_model=model)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    return n, cavity, chi_spec


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_sweep(ns) -> int:
    cfg = load_config(ns.config)
    dev, chi_spec = parse_parallel_config(cfg, ns.config)
    if chi_spec == "solve":
        raise ConfigError(f"{ns.config}.chi_MHz: sweep needs a numeric chi")
    try:
        grid = np.linspace(*analysis_band(dev), ns.points)
        columns = [grid / TWO_PI / 1e9, *np.degrees(_weight_fold(dev, grid))]
    except NonPositiveResult as exc:  # chi pulls a mode, or the default band, to f <= 0
        raise ConfigError(f"{ns.config}.chi_MHz: {exc}")
    except MemoryError as exc:  # numpy's names the array it could not allocate
        raise ConfigError(f"argument --points: {ns.points} points do not fit in memory: "
                          f"{exc}") from None
    rows = itertools.chain([["f_GHz", *(f"theta_wt{w}_deg" for w in range(dev.n + 1))]],
                           ([_fmt(v) for v in row] for row in zip(*columns)))  # streamed, not held
    _write_outputs((ns.out, "--out", lambda fh: csv.writer(fh).writerows(rows)))
    print(f"wrote {ns.out}: {ns.points} rows, weights 0..{dev.n}")
    return EXIT_OK


def _search(chi_spec, free_modes: bool = False) -> dict:
    """solve_eraser's chi_range, (chi/3, 3 chi) about a numeric chi, and its
    knobs: the mode gaps join chi where asked (the solver frees them itself
    from n = 4 on)."""
    kwargs = {} if chi_spec == "solve" else {"chi_range": (chi_spec / 3.0, chi_spec * 3.0)}
    if free_modes:
        kwargs["free"] = ("chi", "mode_frequencies")
    return kwargs


def _pulse(ns, omega_p: float) -> ProbePulse:
    """The probe pulse of the --alpha-sq and --T-us flags at omega_p."""
    return ProbePulse.from_duration(math.sqrt(ns.alpha_sq), omega_p, ns.t_us * 1e-6)


def cmd_solve(ns) -> int:
    cfg = load_config(ns.config)
    dev, chi_spec = parse_parallel_config(cfg, ns.config)
    sol = solve_eraser(dev, tol=ns.tol, **_search(chi_spec, ns.free_modes))
    payload = solution_to_dict(sol)
    payload["config"] = cfg
    if ns.out:
        _write_json(ns.out, "--out", payload)
    print(f"f_p= {_fmt(sol.omega_p / TWO_PI / 1e9)} GHz  "
          f"chi= {_fmt(sol.chi / TWO_PI / 1e6)} MHz  "
          f"dtheta= {_fmt(math.degrees(sol.delta_theta))} deg")
    return EXIT_OK


def _numbers(cfg: dict, key: str, path: str, count: int) -> list[float]:
    values = _need(cfg, key, list, path)
    if len(values) != count or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigError(f"{path}.{key}: expected a list of {count} numbers")
    return [_finite(v, f"{path}.{key}") for v in values]


def _solution_from_file(path: str, dev: ParityDevice) -> EraserSolution:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"{path}: cannot load solution: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    wp = _need(data, "omega_p_rad_s", float, path)
    chi = _need(data, "chi_rad_s", float, path)
    omegas = _numbers(data, "mode_omega_rad_s", path, dev.m)
    changes = [("mode_omega_rad_s", lambda d: d.with_mode_frequencies(omegas)),
               ("chi_rad_s", lambda d: d.with_chi(chi))]
    if data.get("band_rad_s") is not None:
        band = tuple(_numbers(data, "band_rad_s", path, 2))
        changes.append(("band_rad_s", lambda d: replace(d, band=band)))
    for key, change in changes:
        try:
            dev = change(dev)
        except ValueError as exc:
            raise ConfigError(f"{path}.{key}: {exc}")
    try:
        lo, hi = analysis_band(dev)
        if not lo <= wp <= hi:
            raise ConfigError(f"{path}.omega_p_rad_s: {wp!r} lies outside the band")
        return EraserSolution(dev, wp)
    except NonPositiveResult as exc:  # chi pulls a mode, or the default band, to f <= 0
        raise ConfigError(f"{path}.chi_rad_s: {exc}")


def cmd_fidelity(ns) -> int:
    cfg = load_config(ns.config)
    dev, _ = parse_parallel_config(cfg, ns.config)
    sol = _solution_from_file(ns.solution, dev)
    reports = eraser_quality(sol, _pulse(ns, sol.omega_p))
    dicts = reports_to_dicts(reports)
    payload = {
        "alpha_sq": ns.alpha_sq,
        "T_us": ns.t_us,
        "f_p_Hz": sol.omega_p / TWO_PI,
        "residuals_rad": list(sol.residuals),
        "pairs": dicts,
    }
    cols = ["weights", "state_lo", "state_hi", "branch", "F_numeric",
            "F_closed", "F_expansion", "b_s", "b2_s2", "delta_theta_rad"]
    rows = [cols] + [
        [f"{d['weights'][0]}-{d['weights'][1]}", d["state_lo"], d["state_hi"], d["branch"],
         *("" if d[k] is None else _fmt(d[k]) for k in cols[4:])] for d in dicts]
    text = ns.out_json and _json_text(payload) + "\n"
    _write_outputs((ns.out_json, "--out-json", lambda fh: fh.write(text)),
                   (ns.out_csv, "--out-csv", lambda fh: csv.writer(fh).writerows(rows)))
    worst_same = min((d["F_numeric"] for d in dicts
                      if d["branch"].startswith("same-parity")), default=1.0)
    best_cross = max((d["F_numeric"] for d in dicts
                      if d["branch"] == "even-odd"), default=0.0)
    print(f"pairs= {len(dicts)}  min_same_parity_F= {_fmt(worst_same)}  "
          f"max_cross_parity_F= {_fmt(best_cross)}")
    return EXIT_OK


def cmd_compare(ns) -> int:
    cfg_p = load_config(ns.config_parallel)
    dev_p, chi_spec = parse_parallel_config(cfg_p, ns.config_parallel)
    if dev_p.n < 2:  # one qubit has no same-parity pair to score
        raise ConfigError(f"{ns.config_parallel}.n_qubits: compare needs at least 2 "
                          f"qubits, got {dev_p.n}")
    cfg_c = load_config(ns.config_cascade)
    n_c, cavity, chi_spec_c = parse_cascade_config(cfg_c, ns.config_cascade)
    if n_c != dev_p.n:
        raise ConfigError(f"{ns.config_cascade}.n_qubits: the cascade measures {n_c} "
                          f"qubits, {ns.config_parallel} measures {dev_p.n}")
    sol = solve_eraser(dev_p, **_search(chi_spec))
    pulse = _pulse(ns, sol.omega_p)
    try:
        report = compare_schemes(sol, cavity, pulse, tune=(chi_spec_c == "tune"))
    except NonPositiveResult as exc:  # a numeric chi pulls the cavity to f <= 0
        if chi_spec_c == "tune":
            raise
        raise ConfigError(f"{ns.config_cascade}.chi_MHz: {exc}")
    payload = comparison_to_dict(report)
    payload["pulse"] = {"alpha_sq": ns.alpha_sq, "T_us": ns.t_us}
    if ns.out:
        _write_json(ns.out, "--out", payload)
    print(f"b_parallel= {_fmt(report.parallel.b_max)} s  "
          f"b_cascade= {_fmt(report.cascade.b_max)} s  "
          f"ratio= {_fmt(report.b_ratio)}")
    return EXIT_OK


# estimate_report argument -> the flag it is read from
ESTIMATE_FLAGS = {"delta": "--delta-GHz", "kappa": "--kappa-MHz", "chi": "--chi-MHz",
                  "alpha_sq": "--alpha-sq", "omega_p": "--fp-GHz", "duration": "--T-us"}


def cmd_estimate(ns) -> int:
    try:
        rep = estimate_report(
            delta=_ghz(ns.delta_ghz, "argument --delta-GHz"),
            kappa=_mhz(ns.kappa_mhz, "argument --kappa-MHz"),
            chi=_mhz(ns.chi_mhz, "argument --chi-MHz"),
            alpha_sq=ns.alpha_sq,
            omega_p=_ghz(ns.fp_ghz, "argument --fp-GHz"),
            duration=ns.t_us * 1e-6,
        )
    except NonFiniteEstimate as exc:
        first, *rest = (ESTIMATE_FLAGS[name] for name in exc.inputs)
        raise ConfigError(f"argument {first}: {exc}"
                          + (f" with {' and '.join(rest)}" if rest else ""))
    if ns.json:
        _write_json(ns.json, "--json", rep)
    t1 = rep["purcell_T1_s"]
    tm = rep["measurement_time_s"]
    pp = rep["peak_power"]
    print("quantity                     cyclic-convention   angular-convention")
    print(f"Purcell T1 [us]              {t1['cyclic'] * 1e6:<19.6g} {t1['angular'] * 1e6:.6g}")
    print(f"measurement time T [us]      {tm['cyclic'] * 1e6:<19.6g} {tm['angular'] * 1e6:.6g}")
    print(f"  (optimistic, factor 1)     {tm['optimistic_cyclic'] * 1e6:.6g}")
    dbm = "-inf" if pp["dBm"] is None else f"{pp['dBm']:.4g}"
    print(f"peak power                   {pp['watts']:.6g} W = {dbm} dBm")
    print("note: cyclic convention reads quoted MHz/GHz as ordinary frequencies")
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser wiring
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Refuses a flag (its subparsers too) by ConfigError, so main reports
    it as a refused config field: exit 2 in one "config error:" line."""

    def error(self, message):
        raise ConfigError(message)


def _checked(kind, ok, need: str):
    """argparse type: parse with ``kind`` and refuse values failing ``ok``,
    so a bad flag exits 2 naming itself before any work starts."""
    def parse(text):
        if not ok(value := kind(text)):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


POINTS = _checked(int, lambda v: v >= 2, ">= 2")
POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
ALPHA_SQ = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
DURATION_US = _checked(float, lambda v: 0.0 < v * 1e-6 < math.inf,
                       "finite and > 0 in seconds")
TOL = _checked(float, lambda v: MIN_TOL <= v < MAX_TOL, f">= {MIN_TOL} and < pi/10")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="qparity",
        description="Design toolkit for direct multi-qubit parity readout: "
                    "reflection-phase engineering, quantum-eraser solving, "
                    "and coherent-pulse fidelity.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("sweep", help="Per-weight reflection phase curves to CSV.")
    sp.add_argument("config")
    sp.add_argument("--out", required=True)
    sp.add_argument("--points", type=POINTS, default=2001)
    sp.set_defaults(func=cmd_sweep)

    so = sub.add_parser("solve", help="Solve the quantum-eraser conditions.")
    so.add_argument("config")
    so.add_argument("--tol", type=TOL, default=DEFAULT_TOL,
                    help="residual tolerance in radians")
    so.add_argument("--out", help="write the solution JSON here")
    so.add_argument("--free-modes", action="store_true",
                    help="also search mode-frequency spacings (always from n=4 on)")
    so.set_defaults(func=cmd_solve)

    sf = sub.add_parser("fidelity", help="Pairwise output-state overlaps.")
    sf.add_argument("config")
    sf.add_argument("solution", help="solution JSON from 'solve'")
    sf.add_argument("--alpha-sq", type=ALPHA_SQ, default=5.0)
    sf.add_argument("--T-us", dest="t_us", type=DURATION_US, default=1.0)
    sf.add_argument("--out-json")
    sf.add_argument("--out-csv")
    sf.set_defaults(func=cmd_fidelity)

    sc = sub.add_parser("compare", help="Parallel multimode vs sequential cascade.")
    sc.add_argument("config_parallel")
    sc.add_argument("config_cascade")
    sc.add_argument("--alpha-sq", type=ALPHA_SQ, default=5.0)
    sc.add_argument("--T-us", dest="t_us", type=DURATION_US, default=1.0)
    sc.add_argument("--out")
    sc.set_defaults(func=cmd_compare)

    se = sub.add_parser("estimate", help="Purcell T1, measurement time, power.")
    se.add_argument("--delta-GHz", dest="delta_ghz", type=POSITIVE, required=True)
    se.add_argument("--kappa-MHz", dest="kappa_mhz", type=POSITIVE, required=True)
    se.add_argument("--chi-MHz", dest="chi_mhz", type=POSITIVE, required=True)
    se.add_argument("--alpha-sq", type=ALPHA_SQ, default=5.0)
    se.add_argument("--T-us", dest="t_us", type=DURATION_US, default=1.0)
    se.add_argument("--fp-GHz", dest="fp_ghz", type=POSITIVE, required=True)
    se.add_argument("--json", help="write the full report here")
    se.set_defaults(func=cmd_estimate)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built once per process: parsing leaves it
    unchanged, and building it costs more than a short command."""
    return build_parser()


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        return ns.func(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PulseOutOfRange as exc:  # only fidelity and compare build mode combs
        print(f"config error: argument --T-us: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSolution, InfeasibleDevice) as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (NetworkError, EraserError, ValueError, ArithmeticError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
