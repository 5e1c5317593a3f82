"""Validity checks and the reduction of the game to a single control problem.

A two-player game from this family behaves like one optimal control problem
when the players' cost structure lines up: the cross control-weight blocks
agree after transposition and both value recursions act identically through
the input channel.  This module scores those conditions (plus definiteness
and stabilizability side conditions) with numerical margins, builds the
equivalent single-agent problem, and exposes oracles that certify the
equivalence and the special single-input structure used by the random
experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import game as game_mod
from . import linalg, online
from .game import (
    DimensionMismatchError,
    GameSpec,
    NashSolution,
    ThetaNotPDError,
    with_costs,  # noqa: F401 - kept importable here; benches/test_bench.py rebinds it
)
from .linalg import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "AssumptionViolatedError",
    "ReductionMismatchError",
    "WrongStructureError",
    "AssumptionCheck",
    "AssumptionReport",
    "OcpReduction",
    "StructureCheck",
    "build_r_potential",
    "check_assumptions",
    "reduce_to_ocp",
    "verify_equivalence",
    "check_sufficient_structure",
]

ASSUMPTION_IDS = ("A1", "A2", "A3", "A4", "A5", "A6")


class AssumptionViolatedError(RuntimeError):
    def __init__(self, assumption_id: str, detail: str = "", report: "AssumptionReport | None" = None):
        self.assumption_id = assumption_id
        self.report = report
        msg = f"assumption {assumption_id} violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ReductionMismatchError(RuntimeError):
    """The shortcut control weight disagreed with its from-scratch construction."""


class WrongStructureError(ValueError):
    """Spec does not have the single-input two-state shape this oracle needs."""


@dataclass(frozen=True)
class AssumptionCheck:
    """One assumption's verdict.  margin is a signed distance to violation
    (positive = pass); None when the quantity could not be computed at all."""

    id: str
    passed: bool
    margin: float | None
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple
    overall: bool

    def check(self, assumption_id: str) -> AssumptionCheck:
        for c in self.checks:
            if c.id == assumption_id:
                return c
        raise KeyError(assumption_id)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "assumptions": [
                {"id": c.id, "passed": c.passed, "margin": c.margin, "detail": c.detail}
                for c in self.checks
            ],
        }


def build_r_potential(r1, r2) -> np.ndarray:
    """Joint control weight assembled from each player's own block rows.

    Takes the top block row from player 1's weight and the bottom block row
    from player 2's: [[R1_11, R1_12], [R2_21, R2_22]].
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if r1.shape != r2.shape or r1.ndim != 2 or r1.shape[0] != r1.shape[1] or r1.shape[0] % 2:
        raise DimensionMismatchError(
            f"control weights must share an even square shape, got {r1.shape} and {r2.shape}"
        )
    return _joint_weights(r1, r2)


def _joint_weights(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """build_r_potential of each stage of two (..., 2m, 2m) stacks, unchecked."""
    m = r1.shape[-1] // 2
    rp = r1.copy()
    rp[..., m:, :] = r2[..., m:, :]
    return rp


def _a1_core(spec: GameSpec, known, tol: Tolerances) -> list:
    """Definiteness of the state weights and stage curvatures, plus the two
    alignment conditions that make the game a potential game, scored on the
    zero-preview padded games whose last revealed stages are `known`
    (known = T-1 is the true game).  Returns one (passed, margin, detail)
    per game.

    All games are solved in one stacked backward pass that also keeps their
    alignment residuals.  Padded game k weighs states by Q_2..Q_{k+1} only,
    so its state-weight pivot is a prefix minimum of the true ones.  A game
    that fails its curvature certificate is scored from the pass's
    failure report: its margin is its failing pivot."""
    q_pivots = list(itertools.accumulate(
        (linalg.cholesky_pd(q, tol.pd_pivot).min_pivot for q in spec.costs.Q), min))
    batch = game_mod._backward(spec, known, tol, residuals=True)
    scores = []
    for k, exc, theta_row, (cross_res, value_res) in zip(
            np.asarray(known).tolist(), batch.failures, batch.theta_min, batch.residuals.tolist()):
        if exc is not None:
            scores.append((False, float(exc.min_pivot) if np.isfinite(exc.min_pivot) else None, str(exc)))
            continue
        q_pivot = q_pivots[k - 1]
        theta_min = min(theta_row.tolist())
        passed = (
            q_pivot > tol.pd_pivot
            and cross_res <= tol.mat_eq
            and value_res <= tol.mat_eq
        )
        margin = min(q_pivot, theta_min, tol.mat_eq - cross_res, tol.mat_eq - value_res)
        detail = (
            f"min state-weight pivot {q_pivot:.3e}; min curvature eig {theta_min:.3e}; "
            f"cross-weight residual {cross_res:.3e}; value-coupling residual {value_res:.3e}"
        )
        scores.append((passed, float(margin), detail))
    return scores


def _a2_check(spec: GameSpec, q_eigs: np.ndarray, tol: Tolerances) -> AssumptionCheck:
    rs = np.concatenate((spec.costs.R1, spec.costs.R2))
    r_eigs = np.linalg.eigvalsh(linalg.symmetrize(rs))  # ascending, (2(T-1), 2m)
    q_lo = min(q_eigs[:, 0].tolist())
    q_hi = max(q_eigs[:, -1].tolist())
    r_lo = min(r_eigs[:, 0].tolist())
    r_hi = max(r_eigs[:, -1].tolist())
    passed = q_lo > tol.pd_pivot and r_lo >= -tol.pd_pivot
    margin = min(q_lo, r_lo + tol.pd_pivot)
    detail = (
        f"state-weight eigenvalues span [{q_lo:.4g}, {q_hi:.4g}]; "
        f"control-weight eigenvalues span [{r_lo:.4g}, {r_hi:.4g}]"
    )
    return AssumptionCheck("A2", passed, float(margin), detail)


def _a3_check(spec: GameSpec, tol: Tolerances) -> AssumptionCheck:
    try:
        k_bar = online.compute_tracking_gain(spec, tol=tol)
    except online.NotStabilizableError as exc:
        return AssumptionCheck("A3", False, None, str(exc))
    radius = linalg.spectral_radius_est(spec.A + spec.joint_b() @ k_bar)
    margin = (1.0 - tol.spectral_margin) - radius
    return AssumptionCheck("A3", True, float(margin),
                           f"tracking closed-loop radius estimate {radius:.6f}")


def _a4_check(rps: np.ndarray, tol: Tolerances) -> AssumptionCheck:
    # the margin reports cholesky_pd's own pivots, so they are taken one matrix at a time
    worst_pivot = min(linalg.cholesky_pd(rp, tol.pd_pivot).min_pivot for rp in rps)
    worst_asym = max(0.0, *linalg._asymmetry(rps).tolist())
    passed = worst_pivot > tol.pd_pivot and worst_asym <= tol.symmetry
    margin = min(worst_pivot, tol.symmetry - worst_asym)
    detail = f"min joint-weight pivot {worst_pivot:.3e}; max asymmetry {worst_asym:.3e}"
    return AssumptionCheck("A4", passed, float(margin), detail)


def _a5_check(spec: GameSpec, q_eigs: np.ndarray, rps: np.ndarray,
              tol: Tolerances) -> AssumptionCheck:
    a_norm = linalg.two_norm(spec.A)
    try:
        b_min = linalg.singular_extremes(spec.joint_b()).sigma_min_pos
    except linalg.AllZeroError:
        return AssumptionCheck("A5", False, None, "input map is numerically zero")
    ratio = a_norm / b_min
    diff_tops = np.linalg.eigvalsh(linalg.symmetrize(rps - spec.costs.R1))[:, -1]
    q_shift = max(0.0, *np.abs(ratio * diff_tops).tolist())
    q_lo = min(q_eigs[:, 0].tolist())
    margin = q_lo - q_shift
    detail = (
        f"min state-weight eigenvalue {q_lo:.4g} vs required excess {q_shift:.4g} "
        f"(gain ratio {ratio:.4g})"
    )
    return AssumptionCheck("A5", margin > 0.0, float(margin), detail)


def _a6_check(spec: GameSpec, padded: list) -> AssumptionCheck:
    """Every padded schedule must itself satisfy the core conditions.

    `padded` holds the _a1_core verdicts of the zero-preview padded games at
    steps 1..T-1.  Padding at (t, W) reproduces the zero-preview padding at
    step t+W, so sweeping t with W = 0 covers every preview length at once.
    """
    worst = np.inf
    failing = []
    for t, (passed, margin, _) in enumerate(padded, start=1):
        if margin is not None:
            worst = min(worst, margin)
        if not passed:
            failing.append(t)
    passed = not failing
    margin = None if worst is np.inf else float(worst)
    if failing:
        detail = f"padded schedules failing at steps {failing} of 1..{spec.T - 1}"
    else:
        detail = f"all {spec.T - 1} padded schedules pass; worst margin {worst:.3e}"
    return AssumptionCheck("A6", passed, margin, detail)


def check_assumptions(spec: GameSpec, mode: str = "strict",
                      tol: Tolerances | None = None) -> AssumptionReport:
    """Score all six validity conditions with numerical margins.

    A1 and A6 come from one stacked backward pass over the T-1 zero-preview
    padded games, the last of which is the true game; A2 and A5 share one
    stacked eigensolve of the state weights.

    strict mode raises AssumptionViolatedError (carrying the full report) on
    the first failed assumption; warn mode always returns the report.  warn
    exists because the random-experiment family deliberately uses indefinite
    state weights yet still solves cleanly.
    """
    if mode not in ("strict", "warn"):
        raise ValueError(f"mode must be 'strict' or 'warn', got {mode!r}")
    tol = tol or DEFAULT_TOLERANCES

    padded = _a1_core(spec, np.arange(1, spec.T), tol)
    q_eigs = np.linalg.eigvalsh(linalg.symmetrize(spec.costs.Q))  # ascending, (T-1, n)
    rps = _joint_weights(spec.costs.R1, spec.costs.R2)
    checks = [
        AssumptionCheck("A1", *padded[-1]),
        _a2_check(spec, q_eigs, tol),
        _a3_check(spec, tol),
        _a4_check(rps, tol),
        _a5_check(spec, q_eigs, rps, tol),
        _a6_check(spec, padded),
    ]
    overall = all(c.passed for c in checks)
    report = AssumptionReport(checks=tuple(checks), overall=overall)
    if mode == "strict" and not overall:
        first = next(c for c in checks if not c.passed)
        raise AssumptionViolatedError(first.id, first.detail, report)
    return report


@dataclass(frozen=True)
class OcpReduction:
    """The single-agent problem equivalent to a valid game.

    R_bar covers stages 1..T-1, Q_bar and P_bar stages 2..T, K_bar_ocp
    stages 1..T-1.  On valid games K_bar_ocp reproduces the game's joint
    Nash gains.
    """

    R_bar: tuple
    Q_bar: tuple
    P_bar: tuple
    K_bar_ocp: tuple


def reduce_to_ocp(spec: GameSpec, tol: Tolerances | None = None) -> OcpReduction:
    """Build the equivalent optimal control problem.

    The joint control weight uses the own-block shortcut (build_r_potential)
    and is cross-checked at every stage against its defining expression, the
    stage curvature minus the input-channel value term; disagreement beyond
    tolerance raises ReductionMismatchError.  The state weight absorbs the
    gap between player 1's control cost and the joint one through the game's
    own gains; the terminal weight is taken as Q_T itself.
    """
    tol = tol or DEFAULT_TOLERANCES
    try:
        nash = game_mod.solve_feedback_nash(spec, tol=tol)
    except ThetaNotPDError as exc:
        raise AssumptionViolatedError("A1", str(exc)) from exc
    return _reduce(spec, nash, tol)


def _reduce(spec: GameSpec, nash: NashSolution, tol: Tolerances) -> OcpReduction:
    """reduce_to_ocp on the game's solved equilibrium `nash`."""
    T = spec.T
    costs = spec.costs
    # one LAPACK factorization per check; cholesky_pd names the first failing matrix
    if not linalg._all_pd(linalg.symmetrize(costs.Q), tol.pd_pivot):
        for t in range(2, T + 1):
            if not linalg.cholesky_pd(costs.q(t), tol.pd_pivot).is_pd:
                raise AssumptionViolatedError("A1", f"state weight at stage {t} is not positive definite")

    b1, b2, b = spec.B1, spec.B2, spec.joint_b()
    m = spec.m
    # the game's stage-t curvature is thetas[t - 1]
    thetas = game_mod._stage_theta(costs.R1, costs.R2,
                                   b1.T @ np.stack(nash.P1), b2.T @ np.stack(nash.P2), b1, b2)
    cross = np.linalg.norm(thetas[:, :m, m:] - thetas[:, m:, :m].transpose(0, 2, 1), 2,
                           axis=(-2, -1))
    bad = np.flatnonzero(cross > tol.mat_eq)
    if bad.size:
        raise AssumptionViolatedError("A1", f"cross-weight blocks disagree at stage {bad[0] + 1}")

    rps = _joint_weights(costs.R1, costs.R2)
    asym = linalg._asymmetry(rps) > tol.symmetry
    r_sym = linalg.symmetrize(rps)
    indefinite = np.zeros(T - 1, dtype=bool)
    if not linalg._all_pd(r_sym, tol.pd_pivot):
        indefinite = np.array([not linalg.cholesky_pd(rp, tol.pd_pivot).is_pd for rp in rps])
    bad = np.flatnonzero(asym | indefinite)
    if bad.size:
        fault = "symmetric" if asym[bad[0]] else "positive definite"
        raise AssumptionViolatedError("A4", f"joint control weight at stage {bad[0] + 1} is not {fault}")
    r_pot = [None, *r_sym]

    a = spec.A
    p_bar = [None] * (T + 1)
    q_bar = [None] * (T + 1)
    k_bar = [None] * T
    q_bar[T] = costs.q(T)
    p_bar[T] = costs.q(T)
    for t in range(T - 1, 0, -1):
        theta_bar = r_pot[t] + b.T @ p_bar[t + 1] @ b
        if not linalg._all_pd(linalg.symmetrize(theta_bar), tol.pd_pivot):
            check = linalg.cholesky_pd(theta_bar, tol.pd_pivot)
            if not check.is_pd:
                raise ReductionMismatchError(
                    f"reduced curvature at stage {t} is not positive definite (pivot {check.min_pivot:.3e})"
                )
        k_bar[t] = -linalg.solve_linear(theta_bar, b.T @ p_bar[t + 1] @ a)
        resid = linalg.two_norm(r_pot[t] - (thetas[t - 1] - b.T @ p_bar[t + 1] @ b))
        if resid > tol.mat_eq:
            raise ReductionMismatchError(
                f"shortcut control weight off by {resid:.3e} at stage {t}"
            )
        if t >= 2:
            kg = nash.gain(t)
            q_bar[t] = linalg.symmetrize(
                costs.q(t) + kg.T @ (costs.r(1, t) - r_pot[t]) @ kg
            )
            closed = a + b @ k_bar[t]
            p_bar[t] = linalg.symmetrize(
                q_bar[t] + k_bar[t].T @ r_pot[t] @ k_bar[t] + closed.T @ p_bar[t + 1] @ closed
            )

    return OcpReduction(
        R_bar=tuple(r_pot[1:]),
        Q_bar=tuple(q_bar[2:]),
        P_bar=tuple(p_bar[2:]),
        K_bar_ocp=tuple(k_bar[1:]),
    )


def verify_equivalence(spec: GameSpec, tol: Tolerances | None = None) -> float:
    """Largest stage-wise gain gap between the game and its reduction.

    The game is solved once and reduced from that solution.  An uncertified
    game raises ThetaNotPDError; a game that does not reduce raises what
    reduce_to_ocp raises.
    """
    tol = tol or DEFAULT_TOLERANCES
    nash = game_mod.solve_feedback_nash(spec, tol=tol)
    reduction = _reduce(spec, nash, tol)
    return max(
        linalg.two_norm(kg - kb) for kg, kb in zip(nash.K, reduction.K_bar_ocp)
    )


class StructureCheck(NamedTuple):
    ratio_ok: bool
    max_p_gap: float


def check_sufficient_structure(spec: GameSpec, tol: Tolerances | None = None) -> StructureCheck:
    """Oracle for the single-input family with matched gain-to-cost ratios.

    Requires one control per player, an input map whose only nonzero row is
    the first, and single-entry control weights (player 1 pays through the
    (1,1) slot, player 2 through the (2,2) slot).  ratio_ok records whether
    b1^2/r1_t equals b2^2/r2_t at every stage (1e-10 relative); when it
    does, both players' value recursions coincide, which max_p_gap measures
    directly on the solved game.
    """
    tol = tol or DEFAULT_TOLERANCES
    if spec.m != 1:
        raise WrongStructureError(f"need one control per player, got m={spec.m}")
    b = spec.joint_b()
    if spec.n > 1 and linalg.two_norm(b[1:, :]) > tol.mat_eq:
        raise WrongStructureError("input map must act on the first state only")
    b1 = float(b[0, 0])
    b2 = float(b[0, 1])
    if b1 == 0.0 or b2 == 0.0:
        raise WrongStructureError("both players need a nonzero input gain")

    off1 = spec.costs.R1.copy()
    off1[:, 0, 0] = 0.0
    off2 = spec.costs.R2.copy()
    off2[:, 1, 1] = 0.0
    spread = ((np.linalg.norm(off1, 2, axis=(-2, -1)) > tol.mat_eq)
              | (np.linalg.norm(off2, 2, axis=(-2, -1)) > tol.mat_eq))
    r1_val = spec.costs.R1[:, 0, 0]
    r2_val = spec.costs.R2[:, 1, 1]
    bad = np.flatnonzero(spread | (r1_val <= 0.0) | (r2_val <= 0.0))
    if bad.size:
        fault = "are not single-entry" if spread[bad[0]] else "must be positive"
        raise WrongStructureError(f"control weights at stage {bad[0] + 1} {fault}")
    rho1 = b1 * b1 / r1_val
    rho2 = b2 * b2 / r2_val
    ratio_ok = not np.any(np.abs(rho1 - rho2) > 1e-10 * np.maximum(np.abs(rho1), np.abs(rho2)))

    nash = game_mod.solve_feedback_nash(spec, tol=tol)
    gap = max(linalg.two_norm(p1 - p2) for p1, p2 in zip(nash.P1, nash.P2))
    return StructureCheck(ratio_ok=ratio_ok, max_p_gap=float(gap))
