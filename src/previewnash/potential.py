"""Validity checks and the reduction of the game to a single control problem.

A two-player game from this family behaves like one optimal control problem
when the players' cost structure lines up: the cross control-weight blocks
agree after transposition and both value recursions act identically through
the input channel.  This module scores those conditions (plus definiteness
and stabilizability side conditions) with numerical margins, builds the
equivalent single-agent problem, solves it on the game's own backward pass
as the game in which both players pay its weights, and exposes oracles
that certify the equivalence and the special single-input structure used
by the random experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import game as game_mod
from . import linalg, online
from .game import CostSchedule, DimensionMismatchError, GameSpec, ThetaNotPDError, with_costs
from .linalg import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "ASSUMPTION_IDS",
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
        self.detail = detail
        self.report = report
        msg = f"assumption {assumption_id} violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):
        # args hold only the message, so unpickling must call __init__ with these
        return type(self), (self.assumption_id, self.detail, self.report)


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
        """The report as JSON-ready data; a non-finite margin is written as None."""
        return {
            "overall": self.overall,
            "assumptions": [
                {"id": c.id, "passed": c.passed,
                 "margin": c.margin if c.margin is not None and math.isfinite(c.margin) else None,
                 "detail": c.detail}
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


def _a1_core(spec: GameSpec, tol: Tolerances) -> tuple:
    """A1's (passed, margin, detail) on the true game, and for A6 the steps
    1..T-1 whose zero-preview padded games fail A1 and their least A1
    margin (inf if none has one); the last padded game is the true game.

    One stacked backward pass keeps every game's value-coupling gaps, and
    the cross-weight gaps are read off its curvatures.  A certified game's
    margin is min(q_pivot, theta_min, mat_eq - cross, mat_eq - value); a
    minimum is exact and x -> mat_eq - x falls as x grows, so A6 takes each
    term's worst case over the certified games, one reduction per stack.
    Padded game k weighs states by Q_2..Q_{k+1} only, so its state-weight
    pivot is a prefix minimum of the true ones.  A game that fails its
    curvature certificate scores its failing pivot, less the ratio floor on
    a pivot-ratio failure, which is then negative."""
    q_pivots = list(itertools.accumulate(linalg._pivots(spec.costs.Q, tol.pd_pivot)[1].tolist(), min))
    batch = game_mod._solved(spec, np.arange(1, spec.T), tol, keep={"theta", "gaps"})
    ok = np.array([exc is None for exc in batch.failures])
    value_over, value_res, value_worst = _residual_maxima(batch.gaps, ok, tol)
    batch = batch._replace(gaps=None)  # the pass's largest stack, not held: freed here
    cross_over, cross_res, cross_worst = _residual_maxima(_cross_gaps(batch.theta, spec.m), ok, tol)
    failing = np.flatnonzero(~ok | ~(np.array(q_pivots) > tol.pd_pivot) | cross_over | value_over) + 1
    margins = [_failure_margin(exc) for exc in batch.failures if exc is not None]

    exc = batch.failures[-1]
    theta_min = math.inf if exc is not None else _least_eig(batch.theta[-1], math.inf)
    if exc is None:
        q_pivot = q_pivots[-1]
        passed = q_pivot > tol.pd_pivot and cross_res <= tol.mat_eq and value_res <= tol.mat_eq
        margin = min(q_pivot, theta_min, tol.mat_eq - cross_res, tol.mat_eq - value_res)
        detail = (f"min state-weight pivot {q_pivot:.3e}; min curvature eig {theta_min:.3e}; "
                  f"cross-weight residual {cross_res:.3e}; value-coupling residual {value_res:.3e}")
        a1 = (passed, float(margin), detail)
    elif exc._ratio_floor is not None:
        a1 = (False, _failure_margin(exc), f"stage {exc.stage}: joint curvature matrix fails the pivot-ratio "
              f"floor (min pivot {exc.min_pivot:.3e} is not above {exc._ratio_floor:.3e})")
    else:
        a1 = (False, _failure_margin(exc), str(exc))
    if ok.any():  # the true game's least eigenvalue, if it has one, screens the others'
        margins.append(min(min(itertools.compress(q_pivots, ok.tolist())),
                           _least_eig(_rows(batch.theta[:-1], ok[:-1]), theta_min),
                           tol.mat_eq - cross_worst, tol.mat_eq - value_worst))
    return a1, failing.tolist(), min((m for m in margins if m is not None), default=math.inf)


def _failure_margin(exc: ThetaNotPDError) -> float | None:
    """The A1 margin of a game that fails its curvature certificate."""
    if exc._ratio_floor is not None:
        return float(exc.min_pivot - exc._ratio_floor)
    return float(exc.min_pivot) if np.isfinite(exc.min_pivot) else None


def _rows(stack: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The `ok` games' entries of a (G, S, ...) stack as one (N, ...) stack, a view if all are."""
    if not ok.all():
        stack = stack[ok]
    return stack.reshape(-1, *stack.shape[2:])


def _residual_maxima(gaps: np.ndarray, ok: np.ndarray, tol: Tolerances) -> tuple:
    """Whether each game of a (G, S, k, l) stack of gaps has a residual past
    mat_eq, the last game's largest residual and the `ok` games' largest, as
    exact norms give them."""
    # bounds a game at a time: the whole stack's would take stack-sized temporaries
    norms = linalg._two_norms(gaps, tol.mat_eq, [linalg._frobenius(g) for g in gaps])
    last = np.fmax.reduce(linalg._max_two_norms(gaps[-1], norms[-1]), initial=0.0)
    worst = np.fmax.reduce(linalg._max_two_norms(_rows(gaps, ok), _rows(norms, ok)),
                           initial=0.0) if ok.any() else 0.0
    return (norms > tol.mat_eq).any(axis=1), float(last), float(worst)


def _least_eig(thetas: np.ndarray, floor: float) -> float:
    """min(floor, each certified curvature's least eigenvalue), bitwise.

    S's symmetric part is not eigensolved when every `linalg._pivots` pivot
    of S - (floor + delta) I is positive, delta = 4 k^3 eps (max|diag S| +
    |floor|): that factorization is exact for a perturbation of about
    k^2 eps max|diag S| (Demmel, LAPACK Working Note 14; Higham, "Accuracy
    and Stability of Numerical Algorithms", 2nd ed., ch. 10), an eigensolve
    for one of about k eps ||S||_2, so S's computed least eigenvalue is at
    least floor."""
    if math.isfinite(floor):  # sym(S) has S's diagonal
        k = thetas.shape[-1]
        scale = np.max(np.abs(np.diagonal(thetas, axis1=-2, axis2=-1)), axis=-1, initial=0.0) + abs(floor)
        thetas = thetas[~linalg._pivots(thetas, 0.0, floor + 4 * k**3 * np.finfo(float).eps * scale)[0]]
    return min([floor] + np.linalg.eigvalsh(linalg.symmetrize(thetas))[:, 0].tolist())


def _cross_gaps(thetas: np.ndarray, m: int) -> np.ndarray:
    """Theta[:m, m:] - Theta[m:, :m]', whose 2-norm is the cross-weight residual,
    of each matrix of a (..., 2m, 2m) stack."""
    return thetas[..., :m, m:] - np.swapaxes(thetas[..., m:, :m], -1, -2)


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
    worst_pivot = min(linalg._pivots(rps, tol.pd_pivot)[1].tolist())  # cholesky_pd's own pivots
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
    q_shift = float(np.max(np.abs(ratio * diff_tops), initial=0.0))  # an undefined (NaN) excess fails
    q_lo = min(q_eigs[:, 0].tolist())
    margin = q_lo - q_shift
    detail = (
        f"min state-weight eigenvalue {q_lo:.4g} vs required excess {q_shift:.4g} "
        f"(gain ratio {ratio:.4g})"
    )
    return AssumptionCheck("A5", margin > 0.0, None if math.isnan(margin) else margin, detail)


def _a6_check(spec: GameSpec, failing: list, worst: float) -> AssumptionCheck:
    """Every padded schedule must itself satisfy the core conditions.

    `failing` lists the steps 1..T-1 whose zero-preview padded games fail
    A1, and `worst` is the least A1 margin over all of them (inf when none
    has one), both from `_a1_core`.  Padding at (t, W) reproduces the
    zero-preview padding at step t+W, so sweeping t with W = 0 covers every
    preview length at once.
    """
    margin = None if worst == math.inf else float(worst)
    if failing:
        detail = f"padded schedules failing at steps {failing} of 1..{spec.T - 1}"
    else:
        detail = f"all {spec.T - 1} padded schedules pass; worst margin {worst:.3e}"
    return AssumptionCheck("A6", not failing, margin, detail)


@np.errstate(over="ignore", invalid="ignore")  # a weight near the end of the float range fails its check
def check_assumptions(spec: GameSpec, mode: str = "strict",
                      tol: Tolerances | None = None) -> AssumptionReport:
    """Score all six validity conditions with numerical margins.

    A1 and A6 come from one stacked backward pass over the T-1 zero-preview
    padded games, the last of which is the true game: A1 scores the true
    game and A6 the worst case over all of them.  A2 and A5 share one
    stacked eigensolve of the state weights.

    strict mode raises AssumptionViolatedError (carrying the full report) on
    the first failed assumption; warn mode always returns the report.  warn
    exists because the random-experiment family deliberately uses indefinite
    state weights yet still solves cleanly.
    """
    if mode not in ("strict", "warn"):
        raise ValueError(f"mode must be 'strict' or 'warn', got {mode!r}")
    tol = tol or DEFAULT_TOLERANCES

    a1, failing, worst = _a1_core(spec, tol)
    q_eigs = np.linalg.eigvalsh(linalg.symmetrize(spec.costs.Q))  # ascending, (T-1, n)
    rps = _joint_weights(spec.costs.R1, spec.costs.R2)
    checks = [
        AssumptionCheck("A1", *a1),
        _a2_check(spec, q_eigs, tol),
        _a3_check(spec, tol),
        _a4_check(rps, tol),
        _a5_check(spec, q_eigs, rps, tol),
        _a6_check(spec, failing, worst),
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
    own gains; the terminal weight is taken as Q_T itself.  The reduced
    problem is the game whose two players both pay (Q_bar, R_bar), and it
    is solved by the same backward pass as the game.  The reduction is
    read-only, and a spec built by `game_spec` holds it per tolerances.
    """
    tol = tol or DEFAULT_TOLERANCES
    try:
        batch = game_mod._solved(spec, [spec.T - 1], tol, keep={"theta"}).certified()
    except ThetaNotPDError as exc:
        raise AssumptionViolatedError("A1", str(exc)) from exc
    return game_mod._kept(spec, "reduction", tol, lambda: _reduce(spec, batch, tol))


def _reduce(spec: GameSpec, batch: game_mod._Batch, tol: Tolerances) -> OcpReduction:
    """reduce_to_ocp on the game's certified one-game `game._solved` batch.

    The game's curvatures and gains are read off the batch.  A second pass
    solves the reduced game: both players' values are P_bar and its joint
    gains are K_bar_ocp.  The shortcut check then runs on all stages at
    once.  The error raised is the one a descent from stage T-1 would meet
    first, a stage's curvature before its shortcut.
    """
    costs = spec.costs
    bad = np.flatnonzero(~(linalg._pivots(costs.Q, tol.pd_pivot)[1] > tol.pd_pivot))  # A1's pivots
    if bad.size:
        raise AssumptionViolatedError("A1", f"state weight at stage {bad[0] + 2} is not positive definite")

    b = spec.joint_b()
    thetas = batch.theta[0]  # the game's stage-t curvature is thetas[t - 1]
    bad = np.flatnonzero(linalg._two_norms(_cross_gaps(thetas, spec.m), tol.mat_eq) > tol.mat_eq)
    if bad.size:
        raise AssumptionViolatedError("A1", f"cross-weight blocks disagree at stage {bad[0] + 1}")

    rps = _joint_weights(costs.R1, costs.R2)
    r_bar = linalg.symmetrize(rps)
    asym = linalg._asymmetry(rps) > tol.symmetry
    bad = np.flatnonzero(asym | ~(linalg._pivots(rps, tol.pd_pivot)[1] > tol.pd_pivot))  # A4's pivots
    if bad.size:
        fault = "symmetric" if asym[bad[0]] else "positive definite"
        raise AssumptionViolatedError("A4", f"joint control weight at stage {bad[0] + 1} is not {fault}")

    # stages 2..T-1 absorb K_t' (R1_t - R_bar_t) K_t through the game's gains
    gains = batch.K[0, 1:]
    q_bar = np.concatenate((
        linalg.symmetrize(costs.Q[:-1] + gains.transpose(0, 2, 1) @ (costs.R1[1:] - r_bar[1:]) @ gains),
        costs.Q[-1:]))
    reduced = game_mod._solved(with_costs(spec, CostSchedule(q_bar, r_bar, r_bar)), [spec.T - 1], tol,
                               keep={"values"})
    failure = reduced.failures[0]
    floor = 0 if failure is None else failure.stage
    # resid[t - 1] is stage t's; a descent stops at a curvature failure, below which P_bar is void
    resid = linalg._two_norms(r_bar - (thetas - b.T @ reduced.P1[0] @ b), tol.mat_eq)
    off = np.flatnonzero(resid[floor:] > tol.mat_eq)
    if off.size:
        t = floor + off[-1] + 1
        raise ReductionMismatchError(f"shortcut control weight off by {resid[t - 1]:.3e} at stage {t}")
    if failure is not None:
        raise ReductionMismatchError(f"reduced curvature at stage {failure.stage} is not positive definite "
                                     f"(pivot {failure.min_pivot:.3e})")
    return OcpReduction(R_bar=tuple(game_mod._freeze(r_bar)), Q_bar=tuple(game_mod._freeze(q_bar)),
                        P_bar=tuple(reduced.P1[0]), K_bar_ocp=tuple(reduced.K[0]))


def verify_equivalence(spec: GameSpec, tol: Tolerances | None = None) -> float:
    """Largest stage-wise gain gap between the game and its reduction.

    The game takes one backward pass and is reduced from it, which takes
    one more unless the spec holds its reduction.  An uncertified game
    raises ThetaNotPDError; one that does not reduce, what reduce_to_ocp
    raises.
    """
    tol = tol or DEFAULT_TOLERANCES
    batch = game_mod._solved(spec, [spec.T - 1], tol, keep={"theta"}).certified()
    reduction = game_mod._kept(spec, "reduction", tol, lambda: _reduce(spec, batch, tol))
    gaps = batch.K[0] - np.stack(reduction.K_bar_ocp)
    return max(linalg._max_two_norms(gaps).tolist())  # Python's max of the stage gaps' norms


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

    batch = game_mod._solved(spec, [spec.T - 1], tol, keep={"values"}).certified()
    gap = max(linalg.two_norm(p1 - p2) for p1, p2 in zip(batch.P1[0], batch.P2[0]))
    return StructureCheck(ratio_ok=ratio_ok, max_p_gap=float(gap))
