"""Online play under a limited cost preview.

At step t the players know the cost matrices only W stages ahead.  The
missing tail is padded by holding the last revealed matrices constant, and
the padded game is solved from the original start state.  Step t's padded
game depends on t and W only through the last revealed stage min(t+W, T-1),
so the zero-preview padded games, solved together in one stacked backward
pass, hold the predictions of every preview length.  `_play_previews`
solves, plays and prices a stack of games under a list of preview
lengths; `run_online` is its one-game, one-preview case, and a sweep hands
it a block of seeds.  The realized control tracks each step's prediction
through a fixed stabilizing gain.  The gap between the realized costs and
the full-information equilibrium costs is the price of uncertainty.
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
    NashSolution,
    with_costs,  # noqa: F401 - kept importable here; benches/test_bench.py rebinds it
)
from .linalg import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "NotStabilizableError",
    "ZeroNashCostError",
    "NonFiniteCostError",
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


class NonFiniteCostError(ArithmeticError):
    """The price of uncertainty or the equilibrium cost is not finite (a cost overflowed)."""


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
    t, W = game_mod._index("t", t, 1, T - 1), game_mod._index("preview length", W, 0)
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

    Solves the Riccati equation with identity weights,
    X = I + A'XA - A'XB (I + B'XB)^-1 B'XA, by structure-preserving
    doubling: from A_0 = A, G_0 = BB', H_0 = I, each step sets
    W = I + G_k H_k, A_{k+1} = A_k W^-1 A_k, G_{k+1} = G_k + A_k W^-1 G_k A_k'
    and H_{k+1} = H_k + A_k' H_k W^-1 A_k, so H_k is the value after 2^k
    Riccati sweeps.  H settles (a step below 1e-15 of its norm, capped at
    64 doublings) in about ten doublings.  Forms the corresponding gain,
    and certifies the closed-loop spectral radius is below 1 by a clear
    margin; a singular step certifies nothing.  Any stabilizing gain would
    do; this one is a convenient deterministic default.  The gain comes
    back read-only, and a spec built by `game_spec` holds it per
    tolerances, so the doubling runs once.
    """
    tol = tol or DEFAULT_TOLERANCES
    return game_mod._kept(spec, "tracking gain", tol, lambda: game_mod._freeze(_doubling_gain(spec, tol)))


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows fails the finiteness guard
def _doubling_gain(spec: GameSpec, tol: Tolerances) -> np.ndarray:
    """compute_tracking_gain's doubling solve, not held."""
    a = spec.A
    b = spec.joint_b()
    n = spec.n
    eye_n = np.eye(n)
    eye_u = np.eye(2 * spec.m)

    def solve(lhs, rhs):
        try:
            return linalg.solve_linear(lhs, rhs)
        except np.linalg.LinAlgError:
            raise NotStabilizableError("a Riccati step is singular; a stabilizing gain "
                                       "could not be certified") from None

    a_k, g_k, h_k = a, b @ b.T, eye_n
    for _ in range(64):
        w_inv = solve(eye_n + g_k @ h_k, np.hstack((a_k, g_k)))  # W^-1 [A_k G_k]
        h_next = h_k + a_k.T @ h_k @ w_inv[:, :n]
        # refuse a diverging H: not finite, or far beyond any stabilizing value
        if not np.all(np.isfinite(h_next)) or np.abs(h_next).max() > 1e100:
            raise NotStabilizableError("value iteration diverged; (A, B) is not stabilizable")
        if linalg.two_norm(h_next - h_k) <= 1e-15 * linalg.two_norm(h_next):
            h_k = h_next
            break
        a_k, g_k, h_k = a_k @ w_inv[:, :n], g_k + a_k @ w_inv[:, n:] @ a_k.T, h_next
    else:
        raise NotStabilizableError("value iteration did not settle; (A, B) may not be stabilizable")

    btp = b.T @ h_k
    k_bar = -solve(eye_u + btp @ b, btp @ a)
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
    t, W = game_mod._index("t", t, 1, spec.T - 1), game_mod._index("preview length", W, 0)
    return game_mod._nash_solution(spec, min(t + W, spec.T - 1), tol)  # a longer preview reveals no more


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
    return tuple(game_mod._costs(spec, *game_mod._trajectory(spec, states, controls)).tolist())


def _price(run_costs, nash_costs) -> PouResult:
    """compute_pou from the players' run and equilibrium costs."""
    gap = 0.0
    social = 0.0
    for j_run, j_star in zip(run_costs, nash_costs):
        gap += j_run - j_star
        social += j_star
    return PouResult(pou=0.5 * gap, nash_social_cost=0.5 * social)


def log_rel_pou(pou: float, nash_social_cost: float) -> float:
    """log(|pou / nash_social_cost|); -inf sentinel when pou is exactly zero.

    A zero equilibrium cost raises ZeroNashCostError, and a non-finite price
    or equilibrium cost NonFiniteCostError: neither has a relative price.
    """
    if nash_social_cost == 0.0:
        raise ZeroNashCostError("equilibrium social cost is zero")
    if not (math.isfinite(pou) and math.isfinite(nash_social_cost)):
        raise NonFiniteCostError(f"price of uncertainty {pou} against equilibrium social cost "
                                 f"{nash_social_cost} is not finite")
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
    min(t+W, T-1).  At step t the applied control is
    u_t = K_tracking (x_t - x_pred_t) + u_pred_t.  With full preview the
    prediction matches the equilibrium at every step, the tracking term
    stays exactly zero, and the price of uncertainty vanishes.  Step T-1's
    padded game is the true game, so its prediction is the full-information
    equilibrium the price is measured against (as `compute_pou` solves it).
    Solving, playing and pricing are `_play_previews`, as in a sweep.

    If a padded game fails certification, the ThetaNotPDError raised is the
    one `predict_nash` raises at the lowest failing step t.
    """
    tol = tol or DEFAULT_TOLERANCES
    W = game_mod._index("preview length", W, 0)
    if K_tracking is None:
        k_bar = compute_tracking_gain(spec, tol=tol)
    else:
        k_bar = linalg.as_matrix(K_tracking, 2 * spec.m, spec.n, name="K_tracking")

    runs, x_games, u_games = _play_previews([spec], [W], k_bar, tol)
    run = runs[0][0]
    if isinstance(run, Exception):
        raise run
    x, u, tracked, (pou, social) = run
    lrp = log_rel_pou(pou, social)  # first: an overflowing run's tracking error overflows too
    x_pred = game_mod._freeze(x_games[tracked])
    u_pred = game_mod._freeze(u_games[tracked])
    err = np.array([linalg.two_norm(x[k] - x_pred[k, k]) for k in range(spec.T - 1)])
    return OnlineRun(
        x=x,
        u=u,
        x_pred=tuple(x_pred),
        u_pred=tuple(u_pred),
        K_tracking=k_bar,
        pou=pou,
        log_rel_pou=lrp,
        nash_cost_avg=social,
        tracking_error=err,
    )


class _Run(NamedTuple):
    """A run of `_play_previews`: states, controls, each step's game, price."""

    x: np.ndarray
    u: np.ndarray
    tracked: np.ndarray
    price: PouResult


def _play_previews(specs, Ws, k_bar: np.ndarray, tol: Tolerances) -> tuple:
    """Solve, play and price every spec, all sharing one system and start,
    under every preview length in Ws.

    Run (spec, W) tracks the padded games revealed through
    min(1+W, T-1)..T-1; one `game._backward` solves those of the smallest W
    for every spec, keeping gains and failures only (through `game._solved`
    for a lone spec, which reads a held pass but never holds this one).
    A run that tracks a failed game is not played and carries its first
    failed game's error, the one `predict_nash` raises at its lowest
    failing step.  The played runs are rolled out in one `_play`
    from the games they track and priced against their spec's true game
    (their last step's) in one stacked cost sum.  Returns (runs, x_games,
    u_games): runs[s][j] is the error or _Run of (specs[s], Ws[j]), whose
    `tracked` indexes the equilibrium paths x_games, u_games.
    """
    T, S = specs[0].T, len(specs)
    Ws = [min(W, T - 1) for W in Ws]  # a preview past the last stage reveals nothing more
    first = min(1 + min(Ws), T - 1)
    L = T - first  # games per spec
    if S == 1:
        pred = game_mod._solved(specs[0], np.arange(first, T), tol)
    else:
        pred = game_mod._backward(specs[0], np.tile(np.arange(first, T), S), tol,
                                  costs=[spec.costs for spec in specs],
                                  schedule=np.repeat(np.arange(S), L))
    steps = _preview_steps(T, Ws, first)  # Ws[j] tracks a spec's games steps[j, 0]..L-1
    runs = [[next(filter(None, pred.failures[s * L + row[0]:(s + 1) * L]), None) for row in steps]
            for s in range(S)]
    played = np.argwhere([[exc is None for exc in errors] for errors in runs])  # (s, j) rows
    owner, ws = played.T
    games = steps[ws] + L * owner[:, None]  # the games each played run tracks, in pred
    used = np.zeros(S * L, dtype=bool)
    used[games] = True
    tracked = (np.cumsum(used) - 1)[games]  # the same games among those rolled out
    # with every game tracked, roll out the gain stack itself, not a copy
    x_games, u_games = game_mod._equilibrium_paths(specs[0], pred.K if used.all() else pred.K[used])
    xs, us = _play(specs[0], x_games, u_games, tracked, k_bar)
    truth = tracked[:, -1]  # a run's last step tracks its spec's true game
    weights = (np.stack([getattr(spec.costs, f) for spec in specs])[owner, None]
               for f in ("Q", "R1", "R2"))
    costs = game_mod._path_costs(*weights, np.stack((xs, x_games[truth]), axis=1),
                                 np.stack((us, u_games[truth]), axis=1)).tolist()
    for r, (s, j) in enumerate(played):
        runs[s][j] = _Run(xs[r], us[r], tracked[r], _price(*costs[r]))
    return runs, x_games, u_games


def _preview_steps(T: int, Ws, first: int) -> np.ndarray:
    """(len(Ws), T-1) index of the game each step tracks under each preview length.

    Under preview W, step t tracks the game revealed through
    min(t+W, T-1); games are counted from the one revealed through `first`.
    """
    return np.minimum(np.arange(1, T) + np.asarray(Ws)[:, None], T - 1) - first


def _play(spec: GameSpec, x_games: np.ndarray, u_games: np.ndarray, steps: np.ndarray,
          k_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Realized runs of the tracking law, one per row of steps.

    x_games (L, T, n) and u_games (L, T-1, 2m) are the equilibrium paths of
    solved games, and at step k+1 run r tracks game steps[r, k].  k_bar is
    the one gain of every run.  The tracking law is `game._rollout` with
    k_bar as every gain and the gathered predictions as its references, so
    all runs step together and each is bitwise the run it would be alone.
    Returns states (R, T, n) and controls (R, T-1, 2m).
    """
    T = spec.T
    stages = np.arange(T - 1)
    gains = np.broadcast_to(k_bar, (steps.shape[0], T - 1, 2 * spec.m, spec.n))
    return game_mod._rollout(spec, gains, spec.x1, x_games[steps, stages], u_games[steps, stages])


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
    W = game_mod._index("preview length", W, 0)
    T = spec.T
    known = np.minimum(np.arange(1, T) + min(W, T - 1), T - 1)
    gains = game_mod._solved(spec, np.r_[T - 1, known], tol).certified().K
    return [(t, linalg.two_norm(gains[t, t - 1] - gains[0, t - 1])) for t in range(1, T)]
