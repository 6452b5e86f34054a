"""Solves of the seeded random-device corpus (tests/corpus.py) through the CLI."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from corpus import devices
from qparity.cli import _solution_from_file, main, parse_parallel_config
from qparity.eraser import eraser_residuals

CORPUS_TESTED = 40  # of the 400: chosen for run time, all 400 pass the same checks


def test_corpus_solves_end_in_a_verified_root_or_no_solution(tmp_path, capsys):
    # off the paper's corner: 0.2-3.2 GHz modes, gaps of 0.1-5% of f0, unequal
    # couplers, stub and lumped.  Every solve exits 0 or 4, never 2 or 3, and
    # every written solution re-verifies on a fresh fold of its device
    exits = Counter()
    for index, (config, free) in enumerate(devices(CORPUS_TESTED)):
        cfg, out = tmp_path / f"device{index}.json", tmp_path / f"solution{index}.json"
        cfg.write_text(json.dumps(config))
        rc = main(["solve", str(cfg), "--out", str(out)] + ["--free-modes"] * free)
        err = capsys.readouterr().err
        assert rc in (0, 4), f"device {index}: exit {rc}: {err}"
        exits[rc] += 1
        if rc == 4:
            assert err.startswith("no solution: ") and not out.exists()
            continue
        sol = _solution_from_file(str(out), parse_parallel_config(config, str(cfg))[0])
        worst = np.max(np.abs(eraser_residuals(sol.device, sol.omega_p)))
        assert worst < 1e-9, f"device {index}: residual {worst:.3e} rad"
    assert exits[0] >= 21  # 21 of the 40 solve today, and the other 19 exit 4


# n = 3 fixed-gap corpus devices whose most distinguishable root no grid
# minimum of the pole model leads to: the |delta_theta| floor in degrees that
# a dense exact-residual grid's roots reach, against 0.12-10.3 deg from the
# grid seeds (corpus index: floor)
OFF_GRID_ROOTS = {11: 10.9, 59: 3.88, 186: 75.7, 260: 25.2, 386: 37.5, 390: 22.4}


def test_square_corpus_solves_reach_the_roots_off_the_grid(tmp_path, capsys):
    # the square solve seeds from every real pole-model root in the box
    corpus = list(devices(max(OFF_GRID_ROOTS) + 1))
    for index, floor in OFF_GRID_ROOTS.items():
        config, free = corpus[index]
        assert config["n_qubits"] == 3 and not free
        cfg, out = tmp_path / f"device{index}.json", tmp_path / f"solution{index}.json"
        cfg.write_text(json.dumps(config))
        assert main(["solve", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
        dth = abs(json.loads(out.read_text())["delta_theta_deg"])
        assert dth >= floor, f"device {index}: |delta_theta| {dth:.4g} deg"
