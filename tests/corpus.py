"""A seeded corpus of random parity devices, off the paper's corner.

Each device is drawn from ``random.Random(SEED)`` in this order: n in
{2, 3, 4}, m in {2, 3}, f0 = 10^U(-0.7, 0.5) GHz, gap = f0 10^U(-3, -1.3),
m couplers U(3, 20) fF, the stub or lumped model, and then free gaps: always
for n = 4, else with probability 0.3.  The modes sit at f0 + k gap.  Seed 1's
first 400 devices are the corpus: a solve of each through the CLI exits 0 or
4 (248 and 152 of them).
"""

from __future__ import annotations

import random

SEED = 1
SIZE = 400


def devices(count: int = SIZE):
    """The first ``count`` devices, each as (solve config, free gaps)."""
    rng = random.Random(SEED)
    for _ in range(count):
        n = rng.choice((2, 3, 4))
        m = rng.choice((2, 3))
        f0 = 10.0 ** rng.uniform(-0.7, 0.5)
        gap = f0 * 10.0 ** rng.uniform(-3.0, -1.3)
        couplers = [rng.uniform(3.0, 20.0) for _ in range(m)]
        model = rng.choice(("stub", "lumped"))
        free = n == 4 or rng.random() < 0.3
        config = {
            "schema_version": "1",
            "n_qubits": n,
            "modes": [{"f_GHz": f0 + k * gap, "C_couple_fF": c}
                      for k, c in enumerate(couplers)],
            "chi_MHz": "solve",
            "resonator_model": model,
        }
        yield config, free
