"""Two-player linear-quadratic dynamic game on a shared linear system.

Players 1 and 2 jointly drive x_{t+1} = A x_t + B u_t, where B = [B1 B2]
stacks the per-player input maps and u_t is the joint control.  Player i
pays sum over t = 1..T-1 of x_{t+1}' Q_{t+1} x_{t+1} + u_t' R_t^i u_t.
This module holds the data model, simulation and cost evaluation, the
coupled-Riccati feedback Nash solver, and two oracles used to certify the
equilibrium property (stage-wise deviations, and the policy cost-difference
identity).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "DimensionMismatchError",
    "ThetaNotPDError",
    "IndexOutOfRangeError",
    "CostSchedule",
    "GameSpec",
    "NashSolution",
    "DeviationCheck",
    "CostDifference",
    "cost_schedule",
    "game_spec",
    "with_costs",
    "simulate",
    "evaluate_cost",
    "solve_feedback_nash",
    "verify_nash_by_deviation",
    "cost_difference_check",
    "spec_to_dict",
    "spec_from_dict",
    "nash_to_dict",
    "nash_from_dict",
]


class DimensionMismatchError(ValueError):
    pass


class IndexOutOfRangeError(IndexError):
    pass


class ThetaNotPDError(RuntimeError):
    """The stage curvature matrix failed its positive-definiteness check.

    Without it the stage solve is not certified to have a unique answer, so
    this is a hard error rather than a warning.
    """

    def __init__(self, stage: int, min_pivot: float):
        self.stage = stage
        self.min_pivot = min_pivot
        super().__init__(
            f"stage {stage}: joint curvature matrix is not positive definite "
            f"(min pivot {min_pivot:.3e})"
        )


@dataclass(frozen=True)
class CostSchedule:
    """Time-indexed cost matrices, held as read-only float64 stacks.

    Q is (T-1, n, n); Q[k] weighs the state x_{k+2}, so Q covers stages 2..T.
    R1 and R2 are (T-1, 2m, 2m); R1[k] and R2[k] weigh the joint control at
    stage k+1 (stages 1..T-1), each with the block layout
    [[R_11, R_12], [R_21, R_22]], blocks of size m x m.  Construction stacks
    and freezes a copy of whatever it is given, without validating it.
    """

    Q: np.ndarray
    R1: np.ndarray
    R2: np.ndarray

    def __post_init__(self):
        for field in ("Q", "R1", "R2"):
            stack = _freeze(np.array(getattr(self, field), dtype=float))
            object.__setattr__(self, field, stack)
            object.__setattr__(self, f"_{field}_views", tuple(stack))

    @property
    def horizon(self) -> int:
        return len(self.Q) + 1

    def __eq__(self, other) -> bool:
        return _equal_fields(self, other)

    def q(self, t: int) -> np.ndarray:
        """State weight Q_t, valid for t = 2..T; the same read-only view on every call."""
        if not 2 <= t <= self.horizon:
            raise IndexOutOfRangeError(f"Q_{t}: valid stages are 2..{self.horizon}")
        return self._Q_views[t - 2]

    def r(self, player: int, t: int) -> np.ndarray:
        """Control weight R_t^player, valid for t = 1..T-1; the same read-only view on every call."""
        if not 1 <= t <= self.horizon - 1:
            raise IndexOutOfRangeError(f"R_{t}: valid stages are 1..{self.horizon - 1}")
        if player == 1:
            return self._R1_views[t - 1]
        if player == 2:
            return self._R2_views[t - 1]
        raise ValueError(f"player must be 1 or 2, got {player}")


def _freeze(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def _equal_fields(a, b) -> bool:
    """Field-by-field equality of two dataclasses of one type, arrays by np.array_equal."""
    if type(a) is not type(b):
        return False
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


def cost_schedule(Q: Sequence, R1: Sequence, R2: Sequence, tol: Tolerances | None = None) -> CostSchedule:
    """Validate a cost schedule and store it as frozen stacks.

    Q entries must be symmetric (within the symmetry tolerance; definiteness
    is deliberately NOT required here, assumption checking reports on it).
    R entries must be symmetric positive semi-definite with even dimension.
    The first failing entry is reported, in the order Q, R^1, R^2.
    """
    tol = tol or DEFAULT_TOLERANCES
    if len(Q) != len(R1) or len(Q) != len(R2) or len(Q) == 0:
        raise DimensionMismatchError(
            f"schedule lengths must match and be >= 1, got |Q|={len(Q)}, |R1|={len(R1)}, |R2|={len(R2)}"
        )
    n = _rows(Q[0], "Q_2")
    two_m = _rows(R1[0], "R_1^1")
    if two_m % 2 != 0 or two_m == 0:
        raise DimensionMismatchError(f"R matrices must be 2m x 2m, got {two_m} rows")
    return CostSchedule(Q=_checked_stack(Q, n, "Q_{}", 2, tol, psd=False),
                        R1=_checked_stack(R1, two_m, "R_{}^1", 1, tol, psd=True),
                        R2=_checked_stack(R2, two_m, "R_{}^2", 1, tol, psd=True))


def _rows(first, name: str) -> int:
    """Row count of a group's first entry; a scalar, which has none, is rejected by name."""
    shape = np.asarray(first, dtype=float).shape
    if not shape:
        linalg.as_matrix(first, name=name)  # raises
    return shape[0]


def _checked_stack(entries: Sequence, size: int, name: str, first: int, tol: Tolerances,
                   psd: bool) -> np.ndarray:
    """Entries name.format(first), name.format(first + 1), ... as one (len, size, size) stack.

    Raises for the first entry that is not a finite size x size matrix, not
    symmetric, or (with psd) not positive semi-definite, trying an entry's
    faults in that order; a shape fault at entry k gives way to a value
    fault at an earlier entry.
    """
    stack = np.empty((len(entries), size, size))
    shape_error = None
    for k, entry in enumerate(entries):
        try:
            stack[k] = linalg.as_matrix(entry, size, size, name=name.format(first + k))
        except ValueError as exc:
            shape_error, stack = exc, stack[:k]
            break
    asym = linalg._asymmetry(stack) > tol.symmetry
    faulty = asym | (np.linalg.eigvalsh(linalg.symmetrize(stack))[:, 0] < -tol.pd_pivot) if psd else asym
    bad = np.flatnonzero(faulty)
    if bad.size:
        fault = "symmetric within tolerance" if asym[bad[0]] else "positive semi-definite"
        raise DimensionMismatchError(f"{name.format(first + bad[0])} is not {fault}")
    if shape_error is not None:
        raise shape_error
    return stack


@dataclass(frozen=True)
class GameSpec:
    """The ground-truth game: system, horizon, initial state, full costs.

    Stages run 1..T with controls applied at 1..T-1.
    """

    n: int
    m: int
    T: int
    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    x1: np.ndarray
    costs: CostSchedule

    def __eq__(self, other) -> bool:
        return _equal_fields(self, other)

    def joint_b(self) -> np.ndarray:
        """B = [B1 B2], n x 2m."""
        return np.hstack((self.B1, self.B2))


def game_spec(A, B1, B2, x1, costs: CostSchedule, tol: Tolerances | None = None) -> GameSpec:
    """Validate dimensions and assemble a GameSpec."""
    a = linalg.as_matrix(A, name="A")
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatchError(f"A must be square, got {a.shape}")
    b1 = linalg.as_matrix(B1, rows=n, name="B1")
    m = b1.shape[1]
    b2 = linalg.as_matrix(B2, rows=n, cols=m, name="B2")
    x0 = linalg.as_vector(x1, length=n, name="x1")
    if not isinstance(costs, CostSchedule):
        raise TypeError("costs must be a CostSchedule")
    T = costs.horizon
    if T < 2:
        raise DimensionMismatchError("horizon must be at least 2")
    if costs.q(2).shape[0] != n:
        raise DimensionMismatchError(
            f"state weights are {costs.q(2).shape[0]}-dimensional but A is {n}x{n}"
        )
    if costs.r(1, 1).shape[0] != 2 * m:
        raise DimensionMismatchError(
            f"control weights are {costs.r(1, 1).shape[0]}-dimensional but 2m = {2 * m}"
        )
    return GameSpec(n=n, m=m, T=T, A=_freeze(a), B1=_freeze(b1), B2=_freeze(b2),
                    x1=_freeze(x0), costs=costs)


def with_costs(spec: GameSpec, costs: CostSchedule) -> GameSpec:
    """Same system and start, different (already validated) cost schedule."""
    if costs.horizon != spec.T:
        raise DimensionMismatchError("replacement schedule must keep the horizon")
    return replace(spec, costs=costs)


@dataclass(frozen=True)
class NashSolution:
    """Feedback Nash equilibrium of a GameSpec.

    K[k] is the joint gain at stage k+1 (2m x n, rows 1..m player 1, rows
    m+1..2m player 2).  P1[k], P2[k] are the stage-(k+2) value matrices.
    x_star is (T, n), u_star is (T-1, 2m).  theta_min_eig records the
    smallest eigenvalue of each stage's curvature matrix.
    """

    K: tuple
    P1: tuple
    P2: tuple
    x_star: np.ndarray
    u_star: np.ndarray
    theta_min_eig: tuple

    def gain(self, t: int) -> np.ndarray:
        """Joint gain K_t, valid for t = 1..T-1."""
        if not 1 <= t <= len(self.K):
            raise IndexOutOfRangeError(f"K_{t}: valid stages are 1..{len(self.K)}")
        return self.K[t - 1]

    def value(self, player: int, t: int) -> np.ndarray:
        """Value matrix P_t^player, valid for t = 2..T."""
        if not 2 <= t <= len(self.P1) + 1:
            raise IndexOutOfRangeError(f"P_{t}: valid stages are 2..{len(self.P1) + 1}")
        if player == 1:
            return self.P1[t - 2]
        if player == 2:
            return self.P2[t - 2]
        raise ValueError(f"player must be 1 or 2, got {player}")


def simulate(spec: GameSpec, controls) -> np.ndarray:
    """Roll the system forward from x1 under the given joint controls.

    Returns the (T, n) state sequence.
    """
    u = np.asarray(controls, dtype=float)
    if u.shape != (spec.T - 1, 2 * spec.m):
        raise DimensionMismatchError(
            f"controls must be ({spec.T - 1}, {2 * spec.m}), got {u.shape}"
        )
    b = spec.joint_b()
    x = np.empty((spec.T, spec.n))
    x[0] = spec.x1
    for k in range(spec.T - 1):
        x[k + 1] = spec.A @ x[k] + b @ u[k]
    return x


def evaluate_cost(spec: GameSpec, player: int, states, controls) -> float:
    """Cost J_player along a trajectory: terminal-free, weights x_2..x_T and u_1..u_{T-1}."""
    x = np.asarray(states, dtype=float)
    u = np.asarray(controls, dtype=float)
    if x.shape != (spec.T, spec.n):
        raise DimensionMismatchError(f"states must be ({spec.T}, {spec.n}), got {x.shape}")
    if u.shape != (spec.T - 1, 2 * spec.m):
        raise DimensionMismatchError(
            f"controls must be ({spec.T - 1}, {2 * spec.m}), got {u.shape}"
        )
    total = 0.0
    for k in range(spec.T - 1):
        xn = x[k + 1]
        uk = u[k]
        total += float(xn @ spec.costs.q(k + 2) @ xn) + float(uk @ spec.costs.r(player, k + 1) @ uk)
    return total


def _stage_theta(r1, r2, b1p1, b2p2, B1, B2) -> np.ndarray:
    """Stage curvature matrix: R blocks plus the players' input-channel value terms.

    b1p1 = B1' P1_{t+1} and b2p2 = B2' P2_{t+1}.  Arguments may carry one
    leading stack axis, the same on r1, r2, b1p1 and b2p2.
    """
    m = B1.shape[1]
    theta = np.empty(r1.shape)
    theta[..., :m, :m] = r1[..., :m, :m] + b1p1 @ B1
    theta[..., :m, m:] = r1[..., :m, m:] + b1p1 @ B2
    theta[..., m:, :m] = r2[..., m:, :m] + b2p2 @ B1
    theta[..., m:, m:] = r2[..., m:, m:] + b2p2 @ B2
    return theta


class _Batch(NamedTuple):
    """Solutions of G padded games from one stacked backward pass.

    K is (G, T-1, 2m, n), or None when the pass scored residuals, and
    theta_min (G, T-1).  P1, P2 are per-stage (n, n) value matrices for
    stages 2..T, kept only when G == 1.  residuals is None unless the pass
    was asked to score them; then it is (G, 2), each game's largest
    cross-weight residual ||Theta_t[:m, m:] - Theta_t[m:, :m]'||_2 over
    stages 1..T-1 and largest value-coupling residual
    ||B'(P1_t - P2_t) A||_2 over stages 2..T.  failures[g] is None or the
    ThetaNotPDError game g raises alone; its other entries are then void.
    """

    K: np.ndarray | None
    theta_min: np.ndarray
    P1: tuple | None
    P2: tuple | None
    residuals: np.ndarray | None
    failures: tuple

    def certified(self) -> "_Batch":
        """The batch itself, or the first failed game's error, raised."""
        for exc in filter(None, self.failures):
            raise exc
        return self


def _backward(spec: GameSpec, known, tol: Tolerances | None = None,
              residuals: bool = False) -> _Batch:
    """Coupled Riccati pass for the padded games whose last revealed stages are `known`.

    Game g sees the true schedule through stage known[g] and its last
    revealed weights repeated after that: stage tau uses R_min(tau, known[g])
    and the state weight of stage s is Q_min(s, known[g]+1).  Every product
    is a stacked `@`, so each game's arithmetic is the same as if it were
    solved alone.  With `residuals` the pass also keeps each game's running
    maxima of the two alignment residuals (see _Batch) and keeps no gain
    stack.  Weights are read by index from the schedule's stacks.

    A failed certificate is reported, not raised: failures[g] is the error
    game g raises alone (its highest failing stage, with the pivot
    `linalg.cholesky_pd` reports there), and the game goes on with identity
    curvature and zero values, which leaves the other games untouched.
    """
    tol = tol or DEFAULT_TOLERANCES
    known = np.asarray(known, dtype=np.intp).reshape(-1)
    T, n, m = spec.T, spec.n, spec.m
    G = known.shape[0]
    a, b1, b2 = spec.A, spec.B1, spec.B2
    b = spec.joint_b()
    qs, r1s, r2s = spec.costs.Q, spec.costs.R1, spec.costs.R2

    p1 = p2 = qs[np.minimum(T, known + 1) - 2]
    keep_values = G == 1
    p1_hist, p2_hist = [p1[0]], [p2[0]]
    gains = None if residuals else np.empty((G, T - 1, 2 * m, n))
    theta_min = np.empty((G, T - 1))
    res = np.zeros((G, 2)) if residuals else None
    failures = [None] * G
    failed = np.zeros(G, dtype=bool)

    for t in range(T - 1, 0, -1):
        r_idx = np.minimum(t, known) - 1
        r1t, r2t = r1s[r_idx], r2s[r_idx]
        b1p1 = b1.T @ p1
        b2p2 = b2.T @ p2
        theta = _stage_theta(r1t, r2t, b1p1, b2p2, b1, b2)
        theta[failed] = np.eye(2 * m)
        sym = (theta + theta.transpose(0, 2, 1)) / 2.0
        if not linalg._all_pd(sym, tol.pd_pivot):
            for g in range(G):
                if not linalg._all_pd(sym[g], tol.pd_pivot):
                    failures[g] = ThetaNotPDError(t, linalg.cholesky_pd(theta[g], tol.pd_pivot).min_pivot)
                    failed[g] = True
            theta[failed] = sym[failed] = np.eye(2 * m)
        theta_min[:, t - 1] = np.linalg.eigvalsh(sym)[:, 0]
        if residuals:
            # fmax, like max(), passes over a NaN norm
            cross = theta[:, :m, m:] - theta[:, m:, :m].transpose(0, 2, 1)
            gap = b.T @ (p1 - p2) @ a  # stage t+1 values
            res[:, 0] = np.fmax(res[:, 0], np.linalg.norm(cross, 2, axis=(-2, -1)))
            res[:, 1] = np.fmax(res[:, 1], np.linalg.norm(gap, 2, axis=(-2, -1)))
        rhs = np.concatenate((b1p1, b2p2), axis=1) @ a
        kt = -np.linalg.solve(theta, rhs)
        if gains is not None:
            gains[:, t - 1] = kt
        if t >= 2:
            closed = a + b @ kt
            closed_t = closed.transpose(0, 2, 1)
            kt_t = kt.transpose(0, 2, 1)
            qt = qs[np.minimum(t, known + 1) - 2]
            p1 = qt + kt_t @ r1t @ kt + closed_t @ p1 @ closed
            p2 = qt + kt_t @ r2t @ kt + closed_t @ p2 @ closed
            p1 = (p1 + p1.transpose(0, 2, 1)) / 2.0
            p2 = (p2 + p2.transpose(0, 2, 1)) / 2.0
            p1[failed] = p2[failed] = 0.0
            if keep_values:
                p1_hist.append(p1[0])
                p2_hist.append(p2[0])

    values = (tuple(p1_hist[::-1]), tuple(p2_hist[::-1])) if keep_values else (None, None)
    return _Batch(gains, theta_min, *values, res, tuple(failures))


def _rollout(spec: GameSpec, gains: np.ndarray, x_start) -> tuple[np.ndarray, np.ndarray]:
    """Closed-loop rollout of G gain sequences, all from the state x_start.

    gains is (G, L, 2m, n); the k-th control is gains[:, k] applied to the
    k-th state.  Returns states (G, L+1, n) and controls (G, L, 2m).
    """
    G, L = gains.shape[:2]
    a = spec.A
    b = spec.joint_b()
    x = np.empty((G, L + 1, spec.n))
    u = np.empty((G, L, 2 * spec.m))
    # `@` on (G, n, 1) columns gives every game the rollout it would get
    # alone, bit for bit; an einsum over the stack does not
    xk = np.repeat(x_start[None, :, None], G, axis=0)
    x[:, 0] = x_start
    for k in range(L):
        uk = gains[:, k] @ xk
        xk = a @ xk + b @ uk
        u[:, k] = uk[:, :, 0]
        x[:, k + 1] = xk[:, :, 0]
    return x, u


def _equilibrium_paths(spec: GameSpec, gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frozen equilibrium trajectories of solved games, from x1."""
    x, u = _rollout(spec, gains, spec.x1)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):  # pragma: no cover - defensive
        raise ThetaNotPDError(0, float("nan"))
    return _freeze(x), _freeze(u)


def _nash_solution(spec: GameSpec, batch: _Batch) -> NashSolution:
    """The single game of a G == 1 batch as a NashSolution."""
    x, u = _equilibrium_paths(spec, batch.K)
    return NashSolution(
        K=tuple(batch.K[0]),
        P1=batch.P1,
        P2=batch.P2,
        x_star=x[0],
        u_star=u[0],
        theta_min_eig=tuple(batch.theta_min[0].tolist()),
    )


def solve_feedback_nash(spec: GameSpec, tol: Tolerances | None = None) -> NashSolution:
    """Backward coupled-Riccati pass, then a forward rollout.

    At each stage the joint gain solves Theta_t K_t = -[B1' P1; B2' P2] A,
    with Theta_t assembled from the control weights and next-stage value
    matrices; value matrices update through the closed loop A + B K_t.
    The terminal condition is P_T^1 = P_T^2 = Q_T.  Raises ThetaNotPDError
    if any stage's curvature matrix fails certification.
    """
    return _nash_solution(spec, _backward(spec, [spec.T - 1], tol).certified())


class DeviationCheck(NamedTuple):
    cost_at_nash: float
    cost_deviated: float


def verify_nash_by_deviation(spec: GameSpec, nash: NashSolution, stage: int,
                             player: int, deviation) -> DeviationCheck:
    """Cost effect of a one-shot control deviation at the given stage.

    The equilibrium trajectory is replayed up to the stage; there the
    deviating player adds `deviation` to their equilibrium control while the
    other player's feedback policy is evaluated at the (unchanged) state.
    From the next stage on, BOTH equilibrium feedback policies act on the
    realized, perturbed states.  When the solution is a genuine equilibrium
    the deviated cost can only be higher.
    """
    T, m = spec.T, spec.m
    if not 1 <= stage <= T - 1:
        raise IndexOutOfRangeError(f"stage must be in 1..{T - 1}, got {stage}")
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")
    dev = linalg.as_vector(deviation, length=m, name="deviation")

    x_dev = nash.x_star[stage - 1]
    ut = nash.gain(stage) @ x_dev
    rows = slice(0, m) if player == 1 else slice(m, 2 * m)
    ut[rows] += dev
    tail_x, tail_u = _rollout(spec, np.asarray(nash.K)[None, stage:],
                              spec.A @ x_dev + spec.joint_b() @ ut)
    x = np.concatenate((nash.x_star[:stage], tail_x[0]))
    u = np.concatenate((nash.u_star[:stage - 1], ut[None], tail_u[0]))

    return DeviationCheck(
        cost_at_nash=evaluate_cost(spec, player, nash.x_star, nash.u_star),
        cost_deviated=evaluate_cost(spec, player, x, u),
    )


class CostDifference(NamedTuple):
    lhs: float
    rhs: float


def _stage_cost(spec: GameSpec, player: int, t: int, x_next: np.ndarray, u: np.ndarray) -> float:
    """Stage-t cost x_next' Q_{t+1} x_next + u' R_t u of the control u leading to x_next."""
    return float(x_next @ spec.costs.q(t + 1) @ x_next) + float(u @ spec.costs.r(player, t) @ u)


def _value_under(spec: GameSpec, player: int, gains: np.ndarray, t: int, x: np.ndarray) -> float:
    """Cost-to-go from stage t, state x, playing the (T-1, 2m, n) gains to the end.

    Stage T has no control and no remaining cost, so the value there is 0.
    """
    xs, us = _rollout(spec, gains[None, t - 1:], x)
    total = 0.0
    for s, x_next, u_s in zip(range(t, spec.T), xs[0, 1:], us[0]):
        total += _stage_cost(spec, player, s, x_next, u_s)
    return total


def cost_difference_check(spec: GameSpec, policies_a, policies_b, player: int) -> CostDifference:
    """Both sides of the policy cost-difference identity.

    lhs is the direct cost gap J(a) - J(b).  rhs re-derives it stage by
    stage along the a-trajectory: the one-step advantage of playing a's
    control now and b thereafter, versus playing b from the current state.
    The two must agree for ANY pair of linear feedback policies, which makes
    this a strong independent oracle for the cost and rollout plumbing.
    """
    ka = [linalg.as_matrix(g, 2 * spec.m, spec.n, name="policy_a gain") for g in policies_a]
    kb = [linalg.as_matrix(g, 2 * spec.m, spec.n, name="policy_b gain") for g in policies_b]
    if len(ka) != spec.T - 1 or len(kb) != spec.T - 1:
        raise DimensionMismatchError(f"need {spec.T - 1} gains per policy")

    gains = np.stack((ka, kb))
    x, u = _rollout(spec, gains, spec.x1)
    xa, ua = x[0], u[0]
    lhs = evaluate_cost(spec, player, xa, ua) - evaluate_cost(spec, player, x[1], u[1])

    rhs = 0.0
    for t in range(1, spec.T):
        q_val = (_stage_cost(spec, player, t, xa[t], ua[t - 1])
                 + _value_under(spec, player, gains[1], t + 1, xa[t]))
        v_val = _value_under(spec, player, gains[1], t, xa[t - 1])
        rhs += q_val - v_val
    return CostDifference(lhs=lhs, rhs=rhs)


def spec_to_dict(spec: GameSpec) -> dict:
    """JSON-ready form: matrices as row-major nested lists."""
    return {
        "n": spec.n,
        "m": spec.m,
        "T": spec.T,
        "A": spec.A.tolist(),
        "B1": spec.B1.tolist(),
        "B2": spec.B2.tolist(),
        "x1": spec.x1.tolist(),
        "Q": spec.costs.Q.tolist(),
        "R1": spec.costs.R1.tolist(),
        "R2": spec.costs.R2.tolist(),
    }


def spec_from_dict(data: dict, tol: Tolerances | None = None) -> GameSpec:
    try:
        costs = cost_schedule(data["Q"], data["R1"], data["R2"], tol=tol)
        spec = game_spec(data["A"], data["B1"], data["B2"], data["x1"], costs, tol=tol)
    except KeyError as exc:
        raise DimensionMismatchError(f"game description is missing field {exc}") from exc
    for field in ("n", "m", "T"):
        if field in data and int(data[field]) != getattr(spec, field):
            raise DimensionMismatchError(
                f"declared {field}={data[field]} disagrees with matrix shapes ({getattr(spec, field)})"
            )
    return spec


def nash_to_dict(sol: NashSolution) -> dict:
    return {
        "K": [k.tolist() for k in sol.K],
        "P1": [p.tolist() for p in sol.P1],
        "P2": [p.tolist() for p in sol.P2],
        "x_star": sol.x_star.tolist(),
        "u_star": sol.u_star.tolist(),
        "theta_min_eig": list(sol.theta_min_eig),
    }


def nash_from_dict(data: dict) -> NashSolution:
    """Inverse of nash_to_dict; rejects mutually inconsistent shapes.

    x_star fixes T and n, u_star fixes 2m; there must be T-1 gains (2m x n),
    value matrices (n x n) and curvature eigenvalues.
    """
    try:
        x = np.asarray(data["x_star"], dtype=float)
        u = np.asarray(data["u_star"], dtype=float)
        gains = tuple(np.asarray(k, dtype=float) for k in data["K"])
        p1 = tuple(np.asarray(p, dtype=float) for p in data["P1"])
        p2 = tuple(np.asarray(p, dtype=float) for p in data["P2"])
        theta_min = tuple(float(v) for v in data["theta_min_eig"])
    except KeyError as exc:
        raise DimensionMismatchError(f"solution is missing field {exc}") from exc
    if x.ndim != 2 or x.shape[0] < 2:
        raise DimensionMismatchError(f"x_star must be (T, n) with T >= 2, got shape {x.shape}")
    T, n = x.shape
    if u.ndim != 2 or u.shape[0] != T - 1 or u.shape[1] == 0 or u.shape[1] % 2:
        raise DimensionMismatchError(f"u_star must be ({T - 1}, 2m), got shape {u.shape}")
    two_m = u.shape[1]
    for name, mats, shape in (("K", gains, (two_m, n)), ("P1", p1, (n, n)), ("P2", p2, (n, n))):
        if len(mats) != T - 1:
            raise DimensionMismatchError(f"{name} must hold {T - 1} entries, got {len(mats)}")
        for k, mat in enumerate(mats):
            if mat.shape != shape:
                raise DimensionMismatchError(f"{name}[{k}] must be {shape}, got {mat.shape}")
    if len(theta_min) != T - 1:
        raise DimensionMismatchError(
            f"theta_min_eig must hold {T - 1} entries, got {len(theta_min)}"
        )
    return NashSolution(K=gains, P1=p1, P2=p2, x_star=x, u_star=u, theta_min_eig=theta_min)
