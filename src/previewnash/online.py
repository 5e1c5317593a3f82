"""Online play under a limited cost preview.

At step t the players know the cost matrices only W stages ahead.  The
missing tail is padded by holding the last revealed matrices constant, and
the padded game is solved from the original start state.  Step t's padded
game depends on t and W only through the last revealed stage min(t+W, T-1),
so the T-1 zero-preview padded games, solved together in one stacked
backward pass, hold the predictions of every preview length; a sweep plays
all its preview lengths from that one pass.  The realized control tracks
each step's prediction through a fixed stabilizing gain.  The gap between
the realized costs and the full-information equilibrium costs is the price
of uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import game as game_mod
from . import linalg
from .game import (
    CostSchedule,
    GameSpec,
    IndexOutOfRangeError,
    NashSolution,
    with_costs,  # noqa: F401 - kept importable here; benches/test_bench.py rebinds it
)
from .linalg import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "NotStabilizableError",
    "ZeroNashCostError",
    "PaddedSchedule",
    "OnlineRun",
    "PouResult",
    "pad_schedule",
    "compute_tracking_gain",
    "predict_nash",
    "run_online",
    "compute_pou",
    "log_rel_pou",
    "gain_decay_diagnostic",
]


class NotStabilizableError(RuntimeError):
    """No stabilizing tracking gain could be certified for (A, B)."""


class ZeroNashCostError(ValueError):
    """Relative price of uncertainty is undefined at zero equilibrium cost."""


@dataclass(frozen=True)
class PaddedSchedule:
    """Cost schedule as seen at step t with preview W, padded to full horizon.

    Stages up to t+W keep their true matrices; beyond that the last revealed
    state weight Q_{t+W+1} and control weights R_{t+W} repeat.  Once
    t+W >= T-1 the padded schedule IS the true schedule.
    """

    base: CostSchedule
    t: int
    W: int
    costs: CostSchedule


def pad_schedule(costs: CostSchedule, t: int, W: int) -> PaddedSchedule:
    T = costs.horizon
    if not 1 <= t <= T - 1:
        raise IndexOutOfRangeError(f"t must be in 1..{T - 1}, got {t}")
    if W < 0:
        raise IndexOutOfRangeError(f"preview length must be >= 0, got {W}")
    known = t + W
    if known >= T - 1:  # nothing is hidden
        return PaddedSchedule(base=costs, t=t, W=W, costs=costs)
    q_pad = tuple(costs.q(tau + 1) if tau <= known else costs.q(known + 1)
                  for tau in range(1, T))
    r1_pad = tuple(costs.r(1, tau) if tau <= known else costs.r(1, known)
                   for tau in range(1, T))
    r2_pad = tuple(costs.r(2, tau) if tau <= known else costs.r(2, known)
                   for tau in range(1, T))
    padded = CostSchedule(Q=q_pad, R1=r1_pad, R2=r2_pad)
    return PaddedSchedule(base=costs, t=t, W=W, costs=padded)


def compute_tracking_gain(spec: GameSpec, tol: Tolerances | None = None) -> np.ndarray:
    """A stabilizing joint feedback gain for (A, [B1 B2]).

    Iterates the time-invariant Riccati map with identity weights until the
    value matrix settles (1e-10, capped at 10^4 sweeps), forms the
    corresponding gain, and certifies the closed-loop spectral radius is
    below 1 by a clear margin.  Any stabilizing gain would do; this one is a
    convenient deterministic default.
    """
    tol = tol or DEFAULT_TOLERANCES
    a = spec.A
    b = spec.joint_b()
    n = spec.n
    eye_n = np.eye(n)
    eye_u = np.eye(2 * spec.m)

    p = eye_n
    converged = False
    for _ in range(10_000):
        btp = b.T @ p
        curv = eye_u + btp @ b
        gain = -linalg.solve_linear(curv, btp @ a)
        p_next = linalg.symmetrize(eye_n + a.T @ p @ a + (a.T @ btp.T) @ gain)
        # cap far below float overflow so divergence raises cleanly instead
        # of warning about inf in the next matmul
        if not np.all(np.isfinite(p_next)) or np.abs(p_next).max() > 1e100:
            raise NotStabilizableError("value iteration diverged; (A, B) is not stabilizable")
        if linalg.two_norm(p_next - p) < 1e-10:
            p = p_next
            converged = True
            break
        p = p_next
    if not converged:
        raise NotStabilizableError("value iteration did not settle; (A, B) may not be stabilizable")

    btp = b.T @ p
    k_bar = -linalg.solve_linear(eye_u + btp @ b, btp @ a)
    radius = linalg.spectral_radius_est(a + b @ k_bar)
    if not radius < 1.0 - tol.spectral_margin:
        raise NotStabilizableError(
            f"closed-loop radius estimate {radius:.6f} is not safely below 1"
        )
    return k_bar


def predict_nash(spec: GameSpec, t: int, W: int, tol: Tolerances | None = None) -> NashSolution:
    """Feedback Nash solution of the step-t padded game, from the original x1.

    The prediction always solves the full horizon; the information
    limitation enters only through the padding, which repeats the weights
    of stage t+W (see `pad_schedule`).  It is the same stacked backward
    pass that `run_online` runs for all T-1 steps at once, here for one
    game.
    """
    if not 1 <= t <= spec.T - 1:
        raise IndexOutOfRangeError(f"t must be in 1..{spec.T - 1}, got {t}")
    if W < 0:
        raise IndexOutOfRangeError(f"preview length must be >= 0, got {W}")
    return game_mod._nash_solution(spec, game_mod._backward(spec, [t + W], tol).certified())


class PouResult(NamedTuple):
    pou: float
    nash_social_cost: float


def compute_pou(spec: GameSpec, run_states, run_controls,
                tol: Tolerances | None = None) -> PouResult:
    """Price of uncertainty of a realized run against the full-information equilibrium.

    pou = (1/2) * sum over players of (J_i(run) - J_i(equilibrium)); the
    equilibrium social cost (same average) is returned alongside.  The value
    can be negative: a padded prediction is not optimal for the true costs,
    but nothing forces it to be worse on a given instance.
    """
    nash = game_mod.solve_feedback_nash(spec, tol=tol)
    return _price(_costs(spec, run_states, run_controls), _costs(spec, nash.x_star, nash.u_star))


def _costs(spec: GameSpec, states, controls) -> tuple[float, float]:
    """Both players' costs (J_1, J_2) along one trajectory."""
    return tuple(game_mod.evaluate_cost(spec, player, states, controls) for player in (1, 2))


def _price(run_costs, nash_costs) -> PouResult:
    """compute_pou from the players' run and equilibrium costs."""
    gap = 0.0
    social = 0.0
    for j_run, j_star in zip(run_costs, nash_costs):
        gap += j_run - j_star
        social += j_star
    return PouResult(pou=0.5 * gap, nash_social_cost=0.5 * social)


def log_rel_pou(pou: float, nash_social_cost: float) -> float:
    """log(|pou / nash_social_cost|); -inf sentinel when pou is exactly zero."""
    if nash_social_cost == 0.0:
        raise ZeroNashCostError("equilibrium social cost is zero")
    if pou == 0.0:
        return -math.inf
    return math.log(abs(pou / nash_social_cost))


@dataclass(frozen=True)
class OnlineRun:
    """One realized online run.

    x is (T, n); u is (T-1, 2m).  x_pred[k] / u_pred[k] hold the step-(k+1)
    predicted trajectory and controls (each full-horizon).  tracking_error[k]
    is the distance between the realized and predicted state at step k+1.
    log_rel_pou is -inf when the run reproduces the equilibrium exactly.
    """

    x: np.ndarray
    u: np.ndarray
    x_pred: tuple
    u_pred: tuple
    K_tracking: np.ndarray
    pou: float
    log_rel_pou: float
    nash_cost_avg: float
    tracking_error: np.ndarray

    def to_dict(self) -> dict:
        lrp = self.log_rel_pou
        return {
            "x": self.x.tolist(),
            "u": self.u.tolist(),
            "x_pred": [p.tolist() for p in self.x_pred],
            "u_pred": [p.tolist() for p in self.u_pred],
            "K_tracking": self.K_tracking.tolist(),
            "pou": self.pou,
            "log_rel_pou": lrp if math.isfinite(lrp) else None,
            "nash_cost_avg": self.nash_cost_avg,
            "tracking_error": self.tracking_error.tolist(),
        }


def run_online(spec: GameSpec, W: int, K_tracking: np.ndarray | None = None,
               tol: Tolerances | None = None) -> OnlineRun:
    """Play the horizon with preview W: predict, track the prediction, step.

    Step t's prediction is the padded game revealed through stage
    min(t+W, T-1); those games are solved in one stacked backward pass and
    tracked by `_play`.  At step t the applied control is
    u_t = K_tracking (x_t - x_pred_t) + u_pred_t.  With full preview the
    prediction matches the equilibrium at every step, the tracking term
    stays exactly zero, and the price of uncertainty vanishes.  Step T-1's
    padded game is the true game, so its prediction is the full-information
    equilibrium the price is measured against (as `compute_pou` solves it).

    If a padded game fails certification, the ThetaNotPDError raised is the
    one `predict_nash` raises at the lowest failing step t.
    """
    tol = tol or DEFAULT_TOLERANCES
    if W < 0:
        raise IndexOutOfRangeError(f"preview length must be >= 0, got {W}")
    if K_tracking is None:
        k_bar = compute_tracking_gain(spec, tol=tol)
    else:
        k_bar = linalg.as_matrix(K_tracking, 2 * spec.m, spec.n, name="K_tracking")

    T = spec.T
    first = min(1 + W, T - 1)  # the game step 1 tracks; every later step's is revealed further
    pred = game_mod._backward(spec, np.arange(first, T), tol).certified()
    x_games, u_games = game_mod._equilibrium_paths(spec, pred.K)
    x, u = _play(spec, x_games, u_games, [W], k_bar)
    x, u = x[0], u[0]
    steps = np.minimum(np.arange(1, T) + W, T - 1) - first
    x_pred = game_mod._freeze(x_games[steps])
    u_pred = game_mod._freeze(u_games[steps])
    err = np.array([linalg.two_norm(x[k] - x_pred[k, k]) for k in range(T - 1)])

    pou, social = _price(_costs(spec, x, u), _costs(spec, x_games[-1], u_games[-1]))
    return OnlineRun(
        x=x,
        u=u,
        x_pred=tuple(x_pred),
        u_pred=tuple(u_pred),
        K_tracking=k_bar,
        pou=pou,
        log_rel_pou=log_rel_pou(pou, social),
        nash_cost_avg=social,
        tracking_error=err,
    )


def _play(spec: GameSpec, x_pred: np.ndarray, u_pred: np.ndarray, Ws,
          k_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Realized runs of the tracking law under each preview length in Ws.

    x_pred (L, T, n) and u_pred (L, T-1, 2m) are the equilibrium paths of
    the last L padded games, revealed through stages T-L..T-1.  Under
    preview W, step t tracks the game revealed through min(t+W, T-1), which
    must be one of them.  All runs step together as `(G, n, 1)` columns, so
    each is bitwise the run it would be alone.  Returns states (G, T, n)
    and controls (G, T-1, 2m).
    """
    T, n, m = spec.T, spec.n, spec.m
    steps = np.minimum(np.arange(1, T) + np.asarray(Ws)[:, None], T - 1) - (T - len(x_pred))
    stages = np.arange(T - 1)
    x_ref = x_pred[steps, stages][..., None]
    u_ref = u_pred[steps, stages][..., None]
    G = steps.shape[0]
    a = spec.A
    b = spec.joint_b()
    x = np.empty((G, T, n))
    u = np.empty((G, T - 1, 2 * m))
    xk = np.repeat(spec.x1[None, :, None], G, axis=0)
    x[:, 0] = spec.x1
    for k in range(T - 1):
        uk = k_bar @ (xk - x_ref[:, k]) + u_ref[:, k]
        xk = a @ xk + b @ uk
        u[:, k] = uk[:, :, 0]
        x[:, k + 1] = xk[:, :, 0]
    return x, u


def gain_decay_diagnostic(spec: GameSpec, W: int,
                          tol: Tolerances | None = None) -> list[tuple[int, float]]:
    """Per-stage gap between the predicted own-stage gain and the true gain.

    Row t holds ||K_t(step-t prediction) - K_t(full information)||_2.  The
    gap closes as the preview grows and is identically zero once t + W
    reaches the last controlled stage.  The full-information game and the
    T-1 padded games are solved in one stacked backward pass; a failed
    certificate raises the error of the full game first, then of the
    lowest failing step t.
    """
    T = spec.T
    gains = game_mod._backward(spec, np.r_[T - 1, np.arange(1, T) + W], tol).certified().K
    return [(t, linalg.two_norm(gains[t, t - 1] - gains[0, t - 1])) for t in range(1, T)]
