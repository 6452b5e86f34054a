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
    assert exits[0] >= 20  # 20 of the 40 solve today, and the other 20 exit 4
