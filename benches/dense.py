"""Dense aligned games for the certify_dense workload.

The recipe follows the aligned family of the test suite (both input maps
share one column space, B^i = b_i * B0, and each player's own control
weight is beta_t * b_i^2 * S_t), with one change: A is rescaled to
spectral norm 1.05 instead of redrawn until the checks pass.  Every
rescaled draw the benchmark has made passed all six checks, so a call needs
no rejection loop and its cost does not depend on how many candidates were
thrown away; the certify_dense output check fails the run if one does not.

Only numpy is used here; the library sees the returned arrays and nothing
else.
"""

from __future__ import annotations

import numpy as np

A_NORM = 1.05


def _spd(rng, k: int, floor: float) -> np.ndarray:
    g = rng.uniform(-1.0, 1.0, size=(k, k))
    return g @ g.T + floor * np.eye(k)


def draw_dense_game(seed: int, index: int, n: int, m: int, T: int) -> dict:
    """Raw matrices of one aligned game, drawn from (seed, index) alone."""
    rng = np.random.default_rng((seed, index))
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a *= A_NORM / np.linalg.norm(a, 2)
    b0 = rng.uniform(-1.5, 1.5, size=(n, m))
    b1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4))
    b2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4))
    zero = np.zeros((m, m))
    r1s, r2s, shifts = [], [], []
    for _ in range(T - 1):
        beta = float(rng.uniform(0.5, 3.0))
        s = _spd(rng, m, 0.3)
        r1s.append(np.block([[b1 * b1 * beta * s, zero], [zero, zero]]))
        r2s.append(np.block([[zero, zero], [zero, b2 * b2 * beta * s]]))
        shifts.append(b2 * b2 * beta * float(np.linalg.eigvalsh(s)[-1]))
    joint = np.hstack([b1 * b0, b2 * b0])
    sv = np.linalg.svd(joint, compute_uv=False)
    b_min = float(sv[sv > 1e-12][-1])
    lift = (A_NORM / b_min) * max(shifts) + 0.1
    qs = [_spd(rng, n, 0.2) + lift * np.eye(n) for _ in range(T - 1)]
    x1 = rng.uniform(-1.0, 1.0, size=n)
    return {"A": a, "B1": b1 * b0, "B2": b2 * b0, "x1": x1, "Q": qs, "R1": r1s, "R2": r2s}
