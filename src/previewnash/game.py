"""Two-player linear-quadratic dynamic game on a shared linear system.

Players 1 and 2 jointly drive x_{t+1} = A x_t + B u_t, where B = [B1 B2]
stacks the per-player input maps and u_t is the joint control.  Player i
pays sum over t = 1..T-1 of x_{t+1}' Q_{t+1} x_{t+1} + u_t' R_t^i u_t.
This module holds the data model, simulation and cost evaluation, the
coupled-Riccati feedback Nash solver, and two oracles used to certify the
equilibrium property (stage-wise deviations, and the policy cost-difference
identity).  Every trajectory in the package, open loop, closed loop or
tracking, is stepped by the one affine rollout `_rollout`, and every
backward pass, the reduced control problem's too, is the one Riccati
recursion `_backward`.  A pass keeps gains, failures and what its caller
names in `keep`; a spec holds only passes that keep curvatures.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields, replace
from typing import AbstractSet, NamedTuple, Sequence

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
    this is a hard error rather than a warning.  `_ratio_floor` is the
    pivot-ratio floor when every pivot cleared pd_pivot but not it, else None.
    """

    _ratio_floor = None

    def __init__(self, stage: int, min_pivot: float):
        self.stage = stage
        self.min_pivot = min_pivot
        super().__init__(
            f"stage {stage}: joint curvature matrix is not positive definite "
            f"(min pivot {min_pivot:.3e})"
        )

    def __reduce__(self):
        # args hold only the message, so unpickling must call __init__ with these
        return type(self), (self.stage, self.min_pivot), self.__dict__


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
            object.__setattr__(self, field, _freeze(np.array(getattr(self, field), dtype=float)))

    @property
    def horizon(self) -> int:
        return len(self.Q) + 1

    def __eq__(self, other) -> bool:
        return _equal_fields(self, other)

    def q(self, t: int) -> np.ndarray:
        """State weight Q_t, valid for t = 2..T: a read-only view of Q[t - 2]."""
        if not 2 <= t <= self.horizon:
            raise IndexOutOfRangeError(f"Q_{t}: valid stages are 2..{self.horizon}")
        return self.Q[t - 2]

    def r(self, player: int, t: int) -> np.ndarray:
        """Control weight R_t^player, valid for t = 1..T-1: a read-only view of R1[t - 1] or R2[t - 1]."""
        if not 1 <= t <= self.horizon - 1:
            raise IndexOutOfRangeError(f"R_{t}: valid stages are 1..{self.horizon - 1}")
        if player == 1:
            return self.R1[t - 1]
        if player == 2:
            return self.R2[t - 1]
        raise ValueError(f"player must be 1 or 2, got {player}")


def _number(value, kind: type):
    """kind(value) for kind int or float.  Text and booleans, which int()
    and float() read as numbers but JSON does not, are a TypeError, and for
    int a value that int() would round is a ValueError."""
    if isinstance(value, linalg._NOT_NUMBERS):
        raise TypeError(f"{value!r} is not a number")
    number = kind(value)
    if kind is int and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _index(name: str, value, low: int, high: int | None = None) -> int:
    """value as an int in low..high, or at least low if high is None; text, a
    boolean, a value that int() would round, or one out of range, is an
    IndexOutOfRangeError."""
    try:
        index = _number(value, int)
    except (TypeError, ValueError, OverflowError) as exc:
        raise IndexOutOfRangeError(f"{name} must be an integer, got {value!r}") from exc
    if index < low or high is not None and index > high:
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise IndexOutOfRangeError(f"{name} must be {bounds}, got {value}")
    return index


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
    shape = linalg._floats(first, name).shape
    if not shape:
        linalg.as_matrix(first, name=name)  # raises
    return shape[0]


def _checked_stack(entries: Sequence, size: int, name: str, first: int, tol: Tolerances,
                   psd: bool) -> np.ndarray:
    """Entries name.format(first), name.format(first + 1), ... as one (len, size, size) stack.

    Raises for the first entry that is not a finite size x size matrix, not
    symmetric, or (with psd) not positive semi-definite, trying an entry's
    faults in that order; a shape fault at entry k gives way to a value
    fault at an earlier entry.  The group is coerced in one call, and
    entry by entry only when that fails, to find the first faulty entry.
    """
    try:
        stack = linalg._floats(entries, name)
    except (TypeError, ValueError):
        stack = None
    shape_error = None
    if stack is None or stack.shape != (len(entries), size, size) or not np.all(np.isfinite(stack)):
        stack = np.empty((len(entries), size, size))
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

    # {(name, tol): result}, see `_hold`: a cache, not a field
    _kept_results = None

    def __eq__(self, other) -> bool:
        return _equal_fields(self, other)

    def __getstate__(self):
        # pickles and copies drop what the spec holds
        return {k: v for k, v in self.__dict__.items() if k != "_kept_results"}

    def joint_b(self) -> np.ndarray:
        """B = [B1 B2], n x 2m."""
        return np.hstack((self.B1, self.B2))


def game_spec(A, B1, B2, x1, costs: CostSchedule) -> GameSpec:
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

    The controls are applied open loop: `_rollout` with zero gains and the
    controls as its control reference.  Returns the (T, n) state sequence.
    """
    u = np.asarray(controls, dtype=float)
    if u.shape != (spec.T - 1, 2 * spec.m):
        raise DimensionMismatchError(
            f"controls must be ({spec.T - 1}, {2 * spec.m}), got {u.shape}"
        )
    x, _ = _rollout(spec, np.zeros((1, spec.T - 1, 2 * spec.m, spec.n)), spec.x1, u_ref=u[None])
    return x[0]


def evaluate_cost(spec: GameSpec, player: int, states, controls) -> float:
    """Cost J_player along a trajectory: terminal-free, weights x_2..x_T and u_1..u_{T-1}."""
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")
    return float(_costs(spec, *_trajectory(spec, states, controls))[player - 1])


def _trajectory(spec: GameSpec, states, controls) -> tuple[np.ndarray, np.ndarray]:
    """states and controls as (T, n) and (T-1, 2m) float arrays, or a DimensionMismatchError."""
    x = np.asarray(states, dtype=float)
    u = np.asarray(controls, dtype=float)
    if x.shape != (spec.T, spec.n):
        raise DimensionMismatchError(f"states must be ({spec.T}, {spec.n}), got {x.shape}")
    if u.shape != (spec.T - 1, 2 * spec.m):
        raise DimensionMismatchError(
            f"controls must be ({spec.T - 1}, {2 * spec.m}), got {u.shape}"
        )
    return x, u


@np.errstate(over="ignore", invalid="ignore")  # a cost past the float range is inf
def _path_costs(q: np.ndarray, r1: np.ndarray, r2: np.ndarray, x: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Both players' costs along stacked paths of L steps, as a (..., 2) array.

    x (..., L+1, n) and u (..., L, 2m) are the states and controls of the
    steps, and q (..., L, n, n), r1 and r2 (..., L, 2m, 2m) their weights;
    step k costs x[k+1]' q[k] x[k+1] + u[k]' r[k] u[k].  Each step's cost
    is one stacked `@`, and the steps are summed in order by `np.cumsum`,
    which gives the running sum of a loop over the steps bit for bit.
    """
    xs = x[..., 1:, None, :]
    us = u[..., None, :]
    state = xs @ q @ x[..., 1:, :, None]
    steps = np.concatenate([state + us @ r @ u[..., :, None] for r in (r1, r2)], axis=-1)
    return np.cumsum(steps[..., 0, :], axis=-2)[..., -1, :]


def _costs(spec: GameSpec, x: np.ndarray, u: np.ndarray, first: int = 1) -> np.ndarray:
    """Both players' costs (..., 2) along paths of spec that start at stage `first`.

    x (..., L+1, n) holds the states of stages first..first+L and u
    (..., L, 2m) the controls of stages first..first+L-1.
    """
    c = spec.costs
    steps = slice(first - 1, first - 1 + u.shape[-2])
    return _path_costs(c.Q[steps], c.R1[steps], c.R2[steps], x, u)


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

    Every pass keeps K, the (G, T-1, 2m, n) joint gains, and failures[g],
    None or the ThetaNotPDError game g raises alone.  What `keep` names is
    kept too, and None otherwise: "theta" the (G, T-1, 2m, 2m) stage
    curvatures; "values" P1 and P2, (G, T-1, n, n), the two halves of one
    buffer, [g, k] game g's stage-(k+2) values (bitwise equal when both
    players pay the same weights, as in the reduced problem);
    "gaps" the (G, T-1, 2m, n) value-coupling gaps B'(P1_{t+1} - P2_{t+1}) A.
    A failed game's entries are void from its failing stage down, where its
    curvature is the identity and its gaps and values are zero.  Every
    array is read-only, so a pass that a spec holds (see `_solved`) can be
    handed out again.
    """

    K: np.ndarray
    theta: np.ndarray | None
    P1: np.ndarray | None
    P2: np.ndarray | None
    gaps: np.ndarray | None
    failures: tuple

    def certified(self) -> "_Batch":
        """The batch itself, or the first failed game's error, raised."""
        for exc in filter(None, self.failures):
            raise exc
        return self


# c of the certificate's pivot-ratio floor c k eps, k = 2m.  A computed
# Cholesky factor of a k x k matrix is exact for a perturbation of about
# k eps of its size (Higham, "Accuracy and Stability of Numerical
# Algorithms", 2nd ed., SIAM 2002, ch. 10), so a curvature whose smallest
# pivot is within c k eps of its largest may be singular to `solve`.
_PIVOT_RATIO = 10.0


@np.errstate(over="ignore", invalid="ignore")  # a non-finite Theta fails its certificate
def _backward(spec: GameSpec, known, tol: Tolerances | None = None,
              keep: AbstractSet[str] = frozenset(), costs: Sequence[CostSchedule] | None = None,
              schedule=None) -> _Batch:
    """Coupled Riccati pass for the padded games whose last revealed stages are `known`.

    Game g plays spec's system under the schedule costs[schedule[g]]
    (spec.costs for every game when costs is omitted).  It sees that
    schedule through stage known[g] and its last revealed weights repeated
    after that: stage tau uses R_min(tau, known[g]) and the state weight of
    stage s is Q_min(s, known[g]+1).  Every product is a stacked `@`, so
    each game's arithmetic is the same as if it were solved alone, and the
    two players' values are one pair updated by one expression,
    P^i_t = Q_t + K_t' R^i_t K_t + (A + B K_t)' P^i_{t+1} (A + B K_t),
    symmetrized.  The pass keeps every game's gains and failures, and of
    "theta", "values" and "gaps" what `keep` names (see _Batch).  Weights
    are read by index from the schedules' stacks.  This is the raw pass; a
    library caller that solves a spec's own schedule goes through `_solved`.

    A curvature is certified when every Cholesky pivot of its symmetric
    part exceeds tol.pd_pivot and _PIVOT_RATIO * 2m * eps times its largest
    pivot.  A failed certificate is reported, not raised: failures[g] is
    the error game g raises alone (its highest failing stage, with the
    pivot `linalg.cholesky_pd` reports there), and the game goes on with
    identity curvature and zero values, which leaves the other games
    untouched.
    """
    tol = tol or DEFAULT_TOLERANCES
    known = np.asarray(known, dtype=np.intp).reshape(-1)
    T, n, m = spec.T, spec.n, spec.m
    G = known.shape[0]
    a, b1, b2 = spec.A, spec.B1, spec.B2
    b = spec.joint_b()
    costs = (spec.costs,) if costs is None else costs
    # the schedules' stacks end to end; game g reads schedule[g]'s from row base[g]
    qs, r1s, r2s = (np.concatenate([getattr(c, f) for c in costs]) for f in ("Q", "R1", "R2"))
    base = 0 if schedule is None else np.asarray(schedule, dtype=np.intp) * (T - 1)
    # each game's stage-t weights: R at rows[t - 1], Q_min(t, k+1) at rows[t - 2]
    rows = base + np.minimum(np.arange(1, T)[:, None], known) - 1

    p = [qs[rows[-1]]] * 2  # the players' stage-(t+1) values, P1 and P2
    gains = np.empty((G, T - 1, 2 * m, n))
    thetas = np.empty((G, T - 1, 2 * m, 2 * m)) if "theta" in keep else None
    gaps = np.empty((G, T - 1, 2 * m, n)) if "gaps" in keep else None
    values = np.empty((2, G, T - 1, n, n)) if "values" in keep else None
    failures = [None] * G
    failed = np.zeros(G, dtype=bool)
    any_failed = False  # the masks below are void until a game fails
    ratio_floor = _PIVOT_RATIO * 2 * m * np.finfo(float).eps

    for t in range(T - 1, 0, -1):
        if values is not None:
            values[:, :, t - 1] = p
        r = r1s[rows[t - 1]], r2s[rows[t - 1]]
        bp = [bi.T @ pi for bi, pi in zip((b1, b2), p)]  # B1' P1 and B2' P2
        theta = _stage_theta(*r, *bp, b1, b2)
        if any_failed:
            theta[failed] = np.eye(2 * m)
        sym = (theta + theta.transpose(0, 2, 1)) / 2.0
        bad = linalg._not_pd(sym, tol.pd_pivot, ratio_floor)
        if bad:
            for g in bad:
                check = linalg.cholesky_pd(sym[g], tol.pd_pivot)
                failures[g] = exc = ThetaNotPDError(t, check.min_pivot)
                if check.is_pd and linalg._all_pd(sym[g], tol.pd_pivot):  # only the ratio failed
                    exc._ratio_floor = ratio_floor * float(max(np.linalg.cholesky(sym[g]).diagonal() ** 2))
            failed[bad] = any_failed = True
            theta[failed] = np.eye(2 * m)
        if thetas is not None:
            thetas[:, t - 1] = theta
        if gaps is not None:
            gap = b.T @ (p[0] - p[1]) @ a
            gap[failed] = 0.0  # void, and maybe not finite, which the norm's SVD refuses
            gaps[:, t - 1] = gap
        kt = -np.linalg.solve(theta, np.concatenate(bp, axis=1) @ a)
        gains[:, t - 1] = kt
        if t >= 2:
            closed = a + b @ kt
            closed_t = closed.transpose(0, 2, 1)
            kt_t = kt.transpose(0, 2, 1)
            qt = qs[rows[t - 2]]
            p = [qt + kt_t @ ri @ kt + closed_t @ pi @ closed for ri, pi in zip(r, p)]
            p = [(pi + pi.transpose(0, 2, 1)) / 2.0 for pi in p]
            if any_failed:
                for pi in p:
                    pi[failed] = 0.0

    for stack in (gains, thetas, gaps, values):
        if stack is not None:
            _freeze(stack)
    return _Batch(gains, thetas, *(values if values is not None else (None, None)), gaps, tuple(failures))


def _solved(spec: GameSpec, known, tol: Tolerances | None = None,
            keep: AbstractSet[str] = frozenset()) -> _Batch:
    """`_backward(spec, known, tol, keep)`, read off the pass spec holds where it can.

    A spec with read-only A, B1 and B2 holds, per tolerances, one pass over
    its own schedule that kept curvatures, without its values and gaps.  A
    request keeping at most curvatures, for games that pass holds, gets
    their rows (bitwise a fresh pass, as each game is solved as if alone)
    with new errors, so a raise never grows a held error's traceback.  Any
    other request runs a pass, which replaces the held one if it keeps
    curvatures and has no fewer games.
    """
    tol = tol or DEFAULT_TOLERANCES
    known = np.asarray(known, dtype=np.intp).reshape(-1).tolist()
    first, held = (spec._kept_results or {}).get(("pass", tol), (None, None))
    if held is not None and keep <= {"theta"}:
        rows = [first.get(k) for k in known]
        if None not in rows:
            lo = rows[0]
            pick = slice(lo, lo + len(rows)) if rows == list(range(lo, lo + len(rows))) else rows
            return _Batch(_freeze(held.K[pick]), _freeze(held.theta[pick]), None, None, None,
                          tuple(_fresh(held.failures[g]) for g in rows))
    batch = _backward(spec, known, tol, keep=keep)
    if "theta" in keep and (held is None or len(known) >= len(held.failures)):
        first = {k: g for g, k in reversed(list(enumerate(known)))}  # each game's first row
        _hold(spec, ("pass", tol), (first, batch._replace(P1=None, P2=None, gaps=None,
                                                          failures=tuple(map(_fresh, batch.failures)))))
    return batch


def _hold(spec: GameSpec, key: tuple, result):
    """result, held in spec's one cache under key (name, tol) if spec may hold
    results: its A, B1 and B2 are read-only, as `game_spec` leaves them."""
    if not any(x.flags.writeable for x in (spec.A, spec.B1, spec.B2)):
        object.__setattr__(spec, "_kept_results", {**(spec._kept_results or {}), key: result})
    return result


def _kept(spec: GameSpec, name: str, tol: Tolerances, make):
    """make(), which must return read-only data, held by `_hold` under (name,
    tol), so a later call returns it again; an error is not held."""
    kept = spec._kept_results or {}
    return kept[name, tol] if (name, tol) in kept else _hold(spec, (name, tol), make())


def _fresh(exc: ThetaNotPDError | None) -> ThetaNotPDError | None:
    """A new error equal to exc, or None."""
    return None if exc is None else copy.copy(exc)


def _rollout(spec: GameSpec, gains: np.ndarray, x_start, x_ref: np.ndarray | None = None,
             u_ref: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one forward rollout: G affine feedback laws, all from the state x_start.

    gains is (G, L, 2m, n); the k-th control is
    gains[:, k] (x_k - x_ref[:, k]) + u_ref[:, k], with the references
    x_ref (G, L, n) and u_ref (G, L, 2m) read as zero when omitted, which
    leaves the plain closed loop u_k = gains[:, k] x_k.  Returns states
    (G, L+1, n) and controls (G, L, 2m).
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
        uk = gains[:, k] @ (xk if x_ref is None else xk - x_ref[:, k, :, None])
        if u_ref is not None:
            uk += u_ref[:, k, :, None]
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


def _nash_solution(spec: GameSpec, known: int, tol: Tolerances | None) -> NashSolution:
    """The padded game revealed through stage `known`, certified, as a NashSolution."""
    batch = _solved(spec, [known], tol, keep={"theta", "values"}).certified()
    x, u = _equilibrium_paths(spec, batch.K)
    return NashSolution(
        K=tuple(batch.K[0]),
        P1=tuple(batch.P1[0]),
        P2=tuple(batch.P2[0]),
        x_star=x[0],
        u_star=u[0],
        theta_min_eig=tuple(np.linalg.eigvalsh(linalg.symmetrize(batch.theta))[0, :, 0].tolist()),
    )


def solve_feedback_nash(spec: GameSpec, tol: Tolerances | None = None) -> NashSolution:
    """Backward coupled-Riccati pass, then a forward rollout.

    At each stage the joint gain solves Theta_t K_t = -[B1' P1; B2' P2] A,
    with Theta_t assembled from the control weights and next-stage value
    matrices; value matrices update through the closed loop A + B K_t.
    The terminal condition is P_T^1 = P_T^2 = Q_T.  Raises ThetaNotPDError
    if any stage's curvature matrix fails certification.
    """
    return _nash_solution(spec, spec.T - 1, tol)


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
    realized, perturbed states.  The deviating step and the ones after it
    are one `_rollout` of the equilibrium gains, with the deviation as the
    control reference of its first step, and the equilibrium and deviated
    trajectories are priced in one stacked cost sum.  When the solution is
    a genuine equilibrium the deviated cost can only be higher.
    """
    T, m = spec.T, spec.m
    stage = _index("stage", stage, 1, T - 1)
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")
    dev = linalg.as_vector(deviation, length=m, name="deviation")

    x_star, u_star = _trajectory(spec, nash.x_star, nash.u_star)
    shift = np.zeros((1, T - stage, 2 * m))
    shift[0, 0, (player - 1) * m:player * m] = dev
    tail_x, tail_u = _rollout(spec, np.asarray(nash.K)[None, stage - 1:], x_star[stage - 1],
                              u_ref=shift)
    x = np.stack((x_star, np.concatenate((x_star[:stage - 1], tail_x[0]))))
    u = np.stack((u_star, np.concatenate((u_star[:stage - 1], tail_u[0]))))
    at_nash, deviated = _costs(spec, x, u)[:, player - 1].tolist()
    return DeviationCheck(cost_at_nash=at_nash, cost_deviated=deviated)


class CostDifference(NamedTuple):
    lhs: float
    rhs: float


def _value_under(spec: GameSpec, player: int, gains: np.ndarray, t: int, x: np.ndarray) -> float:
    """Cost-to-go from stage t, state x, playing the (T-1, 2m, n) gains to the end.

    Stage T has no control and no remaining cost, so the value there is 0.
    """
    if t == spec.T:
        return 0.0
    xs, us = _rollout(spec, gains[None, t - 1:], x)
    return float(_costs(spec, xs[0], us[0], first=t)[player - 1])


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
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")
    if len(ka) != spec.T - 1 or len(kb) != spec.T - 1:
        raise DimensionMismatchError(f"need {spec.T - 1} gains per policy")

    gains = np.stack((ka, kb))
    x, u = _rollout(spec, gains, spec.x1)
    xa, ua = x[0], u[0]
    j_a, j_b = _costs(spec, x, u)[:, player - 1].tolist()
    lhs = j_a - j_b

    rhs = 0.0
    for t in range(1, spec.T):
        q_val = (float(_costs(spec, xa[t - 1:t + 1], ua[t - 1:t], first=t)[player - 1])
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
    """Inverse of spec_to_dict.

    A non-object, a missing field, a mistyped one, or a matrix that is
    ragged, misshapen or not finite raises DimensionMismatchError.
    """
    if not isinstance(data, dict):
        raise DimensionMismatchError(
            f"game description must be a JSON object, got {type(data).__name__}"
        )
    try:
        costs = cost_schedule(data["Q"], data["R1"], data["R2"], tol=tol)
        spec = game_spec(data["A"], data["B1"], data["B2"], data["x1"], costs)
        declared = {field: data[field] for field in ("n", "m", "T") if field in data}
    except KeyError as exc:
        raise DimensionMismatchError(f"game description is missing field {exc}") from exc
    except TypeError as exc:
        raise DimensionMismatchError(f"game description has a mistyped field: {exc}") from exc
    except DimensionMismatchError:
        raise
    except ValueError as exc:  # as_matrix's, or numpy's for a ragged entry
        raise DimensionMismatchError(str(exc)) from exc
    for field, value in declared.items():
        try:
            value = _number(value, int)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionMismatchError(f"declared {field}={data[field]!r} is not an integer") from exc
        if value != getattr(spec, field):
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
    value matrices (n x n) and curvature eigenvalues, all finite.  Like
    spec_from_dict, it raises DimensionMismatchError for any malformed input.
    """
    if not isinstance(data, dict):
        raise DimensionMismatchError(f"solution must be a JSON object, got {type(data).__name__}")
    try:
        x, u = (linalg._floats(data[field], field) for field in ("x_star", "u_star"))
        gains, p1, p2 = (tuple(linalg._floats(v, field) for v in data[field]) for field in ("K", "P1", "P2"))
        theta_min = linalg._floats(data["theta_min_eig"], "theta_min_eig")
        if theta_min.ndim != 1:
            raise ValueError(f"theta_min_eig: expected a list of numbers, got ndim={theta_min.ndim}")
    except KeyError as exc:
        raise DimensionMismatchError(f"solution is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"solution has a mistyped or ragged field: {exc}") from exc
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
    if not all(np.all(np.isfinite(v)) for v in (x, u, *gains, *p1, *p2, theta_min)):
        raise DimensionMismatchError("solution holds a non-finite entry")
    return NashSolution(K=gains, P1=p1, P2=p2, x_star=x, u_star=u, theta_min_eig=tuple(theta_min.tolist()))
