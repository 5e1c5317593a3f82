"""Game layer: schedules, the coupled recursion, rollouts, serialization.

The scalar fixture (A = B1 = B2 = 1, Q = 1, own control weight 1, T = 2)
has a closed-form equilibrium: stage curvature [[2, 1], [1, 2]], joint gain
(-1/3, -1/3), per-player cost 2/9.  Most oracles below are frozen from that
arithmetic.
"""

import json

import numpy as np
import pytest

from previewnash import (
    CostDifference,
    CostSchedule,
    DimensionMismatchError,
    ExperimentConfig,
    IndexOutOfRangeError,
    ThetaNotPDError,
    cost_difference_check,
    cost_schedule,
    evaluate_cost,
    game_spec,
    generate_game,
    nash_from_dict,
    nash_to_dict,
    simulate,
    solve_feedback_nash,
    spec_from_dict,
    spec_to_dict,
    verify_nash_by_deviation,
    with_costs,
)

from previewnash import linalg
from previewnash.linalg import DEFAULT_TOLERANCES

from conftest import make_aligned_game, make_loose_game, spd


# ---------------------------------------------------------------- schedules

def test_schedule_indexing_conventions(scalar_spec_t3):
    costs = scalar_spec_t3.costs
    assert costs.horizon == 3
    # state weights live at t = 2..T, control weights at t = 1..T-1
    costs.q(2), costs.q(3), costs.r(1, 1), costs.r(2, 2)
    for bad in (1, 4):
        with pytest.raises(IndexOutOfRangeError):
            costs.q(bad)
    for bad in (0, 3):
        with pytest.raises(IndexOutOfRangeError):
            costs.r(1, bad)
    with pytest.raises(ValueError):
        costs.r(3, 1)


def test_schedule_validation():
    q = [[1.0]]
    r = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DimensionMismatchError):
        cost_schedule([q, q], [r], [r])  # length mismatch
    with pytest.raises(DimensionMismatchError):
        cost_schedule([q], [[[1.0]]], [[[1.0]]])  # odd control dimension
    with pytest.raises(DimensionMismatchError):
        cost_schedule([[[0.0, 1.0], [0.0, 0.0]]], [r], [r])  # asymmetric Q
    with pytest.raises(DimensionMismatchError):
        cost_schedule([q], [[[-1.0, 0.0], [0.0, 1.0]]], [r])  # indefinite R
    # indefinite Q is allowed at this layer; assumption checks report on it
    cost_schedule([[[1.0, 3.0], [3.0, 0.0]]],
                  [np.eye(2)], [np.eye(2)])


def test_schedule_matrices_are_frozen(scalar_spec):
    with pytest.raises(ValueError):
        scalar_spec.costs.q(2)[0, 0] = 5.0
    with pytest.raises(ValueError):
        scalar_spec.A[0, 0] = 2.0


# a drawn game's serialised form, fixed when the schedule was stored as
# per-stage matrices; the stacked storage must write the same text
_DRAWN_T3_SEED0 = (
    '{"n": 2, "m": 1, "T": 3, "A": [[1.6, 0.0], [0.0, 0.9]], "B1": [[-0.85], [0.0]], '
    '"B2": [[-0.89], [0.0]], "x1": [1.0, 1.0], "Q": [[[61.89932705759129, 104.82059434142718], '
    '[104.82059434142718, 0.0]], [[13.266592647853228, 16.859503860234696], '
    '[16.859503860234696, 0.0]]], "R1": [[[71.5086276698452, 0.0], [0.0, 0.0]], '
    '[[13.064536830262796, 0.0], [0.0, 0.0]]], "R2": [[[0.0, 0.0], [0.0, 78.39720965714102]], '
    '[[0.0, 0.0], [0.0, 14.323072142908183]]]}'
)


def test_schedule_storage_contract():
    spec = make_loose_game(np.random.default_rng(3), n=3, m=2, T=5)
    costs = spec.costs
    for stack, size in ((costs.Q, 3), (costs.R1, 4), (costs.R2, 4)):
        assert stack.shape == (4, size, size) and stack.dtype == np.float64
        assert stack.flags.c_contiguous and not stack.flags.writeable
    for t in range(1, 5):
        views = ((costs.q(t + 1), costs.Q), (costs.r(1, t), costs.R1), (costs.r(2, t), costs.R2))
        for view, stack in views:
            assert np.shares_memory(view, stack) and not view.flags.writeable
            assert np.array_equal(view, stack[t - 1])
    # built directly from per-stage matrices, as pad_schedule does
    direct = CostSchedule(Q=tuple(costs.Q), R1=tuple(costs.R1), R2=tuple(costs.R2))
    for got, want in ((direct.Q, costs.Q), (direct.R1, costs.R1), (direct.R2, costs.R2)):
        assert np.array_equal(got, want) and not np.shares_memory(got, want)
        assert got.flags.c_contiguous and not got.flags.writeable
    drawn = generate_game(ExperimentConfig(), T=3, seed=0)
    assert json.dumps(spec_to_dict(drawn)) == _DRAWN_T3_SEED0


def test_scalar_first_entry_is_named():
    q, r = [[1.0]], np.eye(2)
    with pytest.raises(ValueError, match=r"^Q_2: expected a 2-D array, got ndim=0$"):
        cost_schedule([1.0], [r], [r])
    with pytest.raises(ValueError, match=r"^R_1\^1: expected a 2-D array, got ndim=0$"):
        cost_schedule([q], [1.0], [1.0])


def _reference_cost_schedule(Q, R1, R2, tol=DEFAULT_TOLERANCES):
    """The per-matrix validation loop the stacked one replaced; returns the three stacks."""
    if len(Q) != len(R1) or len(Q) != len(R2) or len(Q) == 0:
        raise DimensionMismatchError(
            f"schedule lengths must match and be >= 1, got |Q|={len(Q)}, |R1|={len(R1)}, |R2|={len(R2)}"
        )
    n = np.asarray(Q[0], dtype=float).shape[0]
    two_m = np.asarray(R1[0], dtype=float).shape[0]
    if two_m % 2 != 0 or two_m == 0:
        raise DimensionMismatchError(f"R matrices must be 2m x 2m, got {two_m} rows")

    q_out, r1_out, r2_out = [], [], []
    for k, qk in enumerate(Q):
        q = linalg.as_matrix(qk, n, n, name=f"Q_{k + 2}")
        if linalg.two_norm(q - q.T) > tol.symmetry:
            raise DimensionMismatchError(f"Q_{k + 2} is not symmetric within tolerance")
        q_out.append(q)
    for player, rs, out in ((1, R1, r1_out), (2, R2, r2_out)):
        for k, rk in enumerate(rs):
            r = linalg.as_matrix(rk, two_m, two_m, name=f"R_{k + 1}^{player}")
            if linalg.two_norm(r - r.T) > tol.symmetry:
                raise DimensionMismatchError(f"R_{k + 1}^{player} is not symmetric within tolerance")
            if float(linalg.sym_eig(r)[0]) < -tol.pd_pivot:
                raise DimensionMismatchError(f"R_{k + 1}^{player} is not positive semi-definite")
            out.append(r)
    return np.array(q_out), np.array(r1_out), np.array(r2_out)


def _inject_fault(rng, groups):
    """Break one entry of one group in place: shape, non-finite, asymmetry or indefiniteness."""
    name = str(rng.choice(["Q", "R1", "R2"]))
    entries = groups[name]
    k = int(rng.integers(len(entries)))
    mat = np.array(entries[k], dtype=float)
    size = mat.shape[0] if mat.ndim == 2 else 1
    kind = str(rng.choice(["shape", "nonfinite", "asymmetric", "indefinite"]))
    if kind == "shape":
        shape = [(size + 1, size + 1), (size, size + 1), (size,), (), (size + 2, size + 2)]
        entries[k] = np.ones(shape[int(rng.integers(len(shape)))])
    elif kind == "nonfinite" and mat.size:
        mat.flat[int(rng.integers(mat.size))] = rng.choice([np.nan, np.inf, -np.inf])
        entries[k] = mat
    elif kind == "asymmetric" and mat.ndim == 2 and size > 1:
        mat[0, size - 1] += 1e-3
        entries[k] = mat
    elif kind == "indefinite" and mat.ndim == 2 and name != "Q" and np.isfinite(mat).all():
        mat[size - 1, size - 1] -= 1.0 + float(np.abs(mat).sum())
        entries[k] = mat


def _reference_outcome(Q, R1, R2):
    try:
        return ("built", *_reference_cost_schedule(Q, R1, R2))
    except IndexError:
        # the loop failed on a scalar first entry's row count; the stacked
        # pass names that entry instead
        name = "Q_2" if np.ndim(Q[0]) == 0 else "R_1^1"
        return ("raised", ValueError, f"{name}: expected a 2-D array, got ndim=0")
    except ValueError as exc:  # DimensionMismatchError included
        return ("raised", type(exc), str(exc))


def _outcome(Q, R1, R2):
    try:
        costs = cost_schedule(Q, R1, R2)
    except ValueError as exc:
        return ("raised", type(exc), str(exc))
    return ("built", costs.Q, costs.R1, costs.R2)


def test_stacked_validation_matches_the_per_matrix_loop():
    rng = np.random.default_rng(71)
    raised = set()
    for _ in range(600):
        n, m, T = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 7))
        groups = {
            "Q": [spd(rng, n, -0.5) for _ in range(T - 1)],  # indefinite Q is valid here
            "R1": [spd(rng, 2 * m, 0.0) for _ in range(T - 1)],
            "R2": [spd(rng, 2 * m, 0.0) for _ in range(T - 1)],
        }
        for _ in range(int(rng.integers(0, 4))):
            _inject_fault(rng, groups)
        want = _reference_outcome(groups["Q"], groups["R1"], groups["R2"])
        got = _outcome(groups["Q"], groups["R1"], groups["R2"])
        assert got[0] == want[0]
        if want[0] == "raised":
            assert got == want
            raised.add(want[2].split(" ", 1)[-1])
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))
    assert {"is not symmetric within tolerance", "is not positive semi-definite",
            "entries must be finite", "expected a 2-D array, got ndim=0"} <= raised


def test_game_spec_validation(scalar_spec):
    costs = scalar_spec.costs
    with pytest.raises(DimensionMismatchError):
        game_spec([[1.0, 0.0]], [[1.0]], [[1.0]], [1.0], costs)
    with pytest.raises(ValueError):
        game_spec([[1.0]], [[1.0], [0.0]], [[1.0]], [1.0], costs)
    with pytest.raises(ValueError):
        game_spec([[1.0]], [[1.0]], [[1.0]], [1.0, 2.0], costs)
    with pytest.raises(TypeError):
        game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], {"Q": []})
    wide = cost_schedule([np.eye(2)], [np.eye(2)], [np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], wide)


def test_with_costs_keeps_horizon(scalar_spec, scalar_spec_t3):
    swapped = with_costs(scalar_spec, scalar_spec.costs)
    assert swapped.T == 2
    with pytest.raises(DimensionMismatchError):
        with_costs(scalar_spec, scalar_spec_t3.costs)


def test_schedules_and_specs_compare_by_value():
    config = ExperimentConfig()
    spec = generate_game(config, 5, 0)
    assert spec == generate_game(config, 5, 0)
    assert spec.costs == generate_game(config, 5, 0).costs
    q = spec.costs.Q.copy()
    q[1, 0, 0] += 1e-9
    perturbed = cost_schedule(q, spec.costs.R1, spec.costs.R2)
    assert perturbed != spec.costs and with_costs(spec, perturbed) != spec
    assert generate_game(config, 6, 0) != spec
    assert generate_game(config, 6, 0).costs != spec.costs
    assert game_spec(spec.A, spec.B1, spec.B2, -spec.x1, spec.costs) != spec
    assert (spec == spec.costs) is False and (spec.costs == spec.costs.Q) is False
    for value in (spec, spec.costs):
        with pytest.raises(TypeError):
            hash(value)


# ---------------------------------------------------------------- the solver

def test_scalar_equilibrium_closed_form(scalar_spec):
    nash = solve_feedback_nash(scalar_spec)
    assert np.allclose(nash.gain(1), [[-1.0 / 3.0], [-1.0 / 3.0]], atol=1e-14)
    assert np.allclose(nash.value(1, 2), [[1.0]])
    assert np.allclose(nash.value(2, 2), [[1.0]])
    assert nash.theta_min_eig == pytest.approx((1.0,))
    assert nash.x_star[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert np.allclose(nash.u_star[0], [-1.0 / 3.0, -1.0 / 3.0])
    assert evaluate_cost(scalar_spec, 1, nash.x_star, nash.u_star) == pytest.approx(2.0 / 9.0)
    assert evaluate_cost(scalar_spec, 2, nash.x_star, nash.u_star) == pytest.approx(2.0 / 9.0)


def test_scalar_three_step_values(scalar_spec_t3):
    # backward pass by hand: P_3 = 1, K_2 = (-1/3, -1/3), P_2 = 11/9,
    # then K_1 = -(11/31, 11/31)
    nash = solve_feedback_nash(scalar_spec_t3)
    assert np.allclose(nash.value(1, 2), [[11.0 / 9.0]], atol=1e-14)
    assert np.allclose(nash.gain(2), [[-1.0 / 3.0], [-1.0 / 3.0]], atol=1e-14)
    assert np.allclose(nash.gain(1), [[-11.0 / 31.0], [-11.0 / 31.0]], atol=1e-14)


def test_solution_index_bounds(scalar_spec):
    nash = solve_feedback_nash(scalar_spec)
    with pytest.raises(IndexOutOfRangeError):
        nash.gain(0)
    with pytest.raises(IndexOutOfRangeError):
        nash.gain(2)
    with pytest.raises(IndexOutOfRangeError):
        nash.value(1, 1)
    with pytest.raises(IndexOutOfRangeError):
        nash.value(1, 3)



def test_value_rejects_unknown_player(scalar_spec):
    nash = solve_feedback_nash(scalar_spec)
    for player in (0, 3):
        with pytest.raises(ValueError):
            nash.value(player, 2)

def test_singular_curvature_is_rejected():
    # zero control weights leave the curvature [[1, 1], [1, 1]], singular
    costs = cost_schedule([[[1.0]]], [np.zeros((2, 2))], [np.zeros((2, 2))])
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
    with pytest.raises(ThetaNotPDError) as exc:
        solve_feedback_nash(spec)
    assert exc.value.stage == 1
    assert exc.value.min_pivot < 1e-9


def test_value_matrices_track_cost_to_go():
    # P_t^i must price the equilibrium tail: x_t' P_t^i x_t equals the
    # remaining cost of player i from stage t on
    rng = np.random.default_rng(3)
    for _ in range(8):
        spec = make_loose_game(rng, T_max=6)
        nash = solve_feedback_nash(spec)
        for player in (1, 2):
            for t in range(2, spec.T + 1):
                xt = nash.x_star[t - 1]
                # the stage-t value prices Q at t..T and controls at t..T-1
                tail_states = sum(
                    float(nash.x_star[k - 1] @ spec.costs.q(k) @ nash.x_star[k - 1])
                    for k in range(t, spec.T + 1)
                )
                tail_controls = sum(
                    float(nash.u_star[k - 1] @ spec.costs.r(player, k) @ nash.u_star[k - 1])
                    for k in range(t, spec.T)
                )
                want = float(xt @ nash.value(player, t) @ xt)
                assert want == pytest.approx(tail_states + tail_controls, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------- rollouts

def test_simulate_matches_hand_rollout(scalar_spec):
    x = simulate(scalar_spec, [[0.25, -0.5]])
    assert np.allclose(x, [[1.0], [0.75]])
    with pytest.raises(DimensionMismatchError):
        simulate(scalar_spec, [[0.25]])


def test_evaluate_cost_hand_value(scalar_spec):
    x = [[1.0], [2.0]]
    u = [[3.0, 4.0]]
    # J1 = 2^2 * 1 + 3^2 * 1, J2 = 4 + 16
    assert evaluate_cost(scalar_spec, 1, x, u) == pytest.approx(13.0)
    assert evaluate_cost(scalar_spec, 2, x, u) == pytest.approx(20.0)
    with pytest.raises(DimensionMismatchError):
        evaluate_cost(scalar_spec, 1, [[1.0]], u)


def test_deviation_increases_cost_quadratically(scalar_spec):
    nash = solve_feedback_nash(scalar_spec)
    check = verify_nash_by_deviation(scalar_spec, nash, stage=1, player=1,
                                     deviation=[0.5])
    assert check.cost_at_nash == pytest.approx(2.0 / 9.0)
    # own-block curvature is 2, so the penalty is 2 * 0.5^2
    assert check.cost_deviated - check.cost_at_nash == pytest.approx(0.5, abs=1e-12)
    check2 = verify_nash_by_deviation(scalar_spec, nash, 1, 2, [-0.25])
    assert check2.cost_deviated - check2.cost_at_nash == pytest.approx(2 * 0.0625, abs=1e-12)



@pytest.mark.parametrize("family", [make_aligned_game, make_loose_game])
def test_zero_deviation_replays_the_equilibrium(family):
    # the tail after the deviating stage must replay the equilibrium gains
    # of the right stages, or a zero deviation would change the cost
    rng = np.random.default_rng(61)
    for _ in range(6):
        spec = family(rng, T_max=8)
        nash = solve_feedback_nash(spec)
        for stage in range(1, spec.T):
            for player in (1, 2):
                check = verify_nash_by_deviation(spec, nash, stage, player, np.zeros(spec.m))
                assert check.cost_deviated == pytest.approx(check.cost_at_nash, rel=1e-12, abs=0.0)

def test_deviation_argument_validation(scalar_spec):
    nash = solve_feedback_nash(scalar_spec)
    with pytest.raises(IndexOutOfRangeError):
        verify_nash_by_deviation(scalar_spec, nash, 0, 1, [0.1])
    with pytest.raises(IndexOutOfRangeError):
        verify_nash_by_deviation(scalar_spec, nash, 2, 1, [0.1])
    with pytest.raises(ValueError):
        verify_nash_by_deviation(scalar_spec, nash, 1, 3, [0.1])
    with pytest.raises(ValueError):
        verify_nash_by_deviation(scalar_spec, nash, 1, 1, [0.1, 0.2])


def test_cost_difference_matches_direct_gap(scalar_spec):
    nash = solve_feedback_nash(scalar_spec)
    nash_gains = [nash.gain(1)]
    zero_gains = [np.zeros((2, 1))]
    diff = cost_difference_check(scalar_spec, nash_gains, zero_gains, player=1)
    assert isinstance(diff, CostDifference)
    # J1(nash) - J1(zero) = 2/9 - 1
    assert diff.lhs == pytest.approx(-7.0 / 9.0)
    assert diff.rhs == pytest.approx(diff.lhs, abs=1e-12)


def test_cost_difference_identity_on_random_policies():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spec = make_loose_game(rng, T_max=6)
        shape = (2 * spec.m, spec.n)
        ka = [rng.uniform(-0.6, 0.6, size=shape) for _ in range(spec.T - 1)]
        kb = [rng.uniform(-0.6, 0.6, size=shape) for _ in range(spec.T - 1)]
        for player in (1, 2):
            diff = cost_difference_check(spec, ka, kb, player)
            assert diff.lhs == pytest.approx(diff.rhs, abs=1e-9)


def test_cost_difference_validates_gain_count(scalar_spec):
    with pytest.raises(DimensionMismatchError):
        cost_difference_check(scalar_spec, [], [np.zeros((2, 1))], 1)


# ------------------------------------------------------------ serialization

def test_spec_round_trip(scalar_spec):
    data = spec_to_dict(scalar_spec)
    assert set(data) == {"n", "m", "T", "A", "B1", "B2", "x1", "Q", "R1", "R2"}
    back = spec_from_dict(data)
    assert back.n == 1 and back.m == 1 and back.T == 2
    assert np.array_equal(back.A, scalar_spec.A)
    assert np.array_equal(back.costs.q(2), scalar_spec.costs.q(2))
    assert np.array_equal(back.x1, scalar_spec.x1)


def test_spec_from_dict_rejects_malformed():
    with pytest.raises((KeyError, ValueError)):
        spec_from_dict({"n": 1})


def test_nash_round_trip(scalar_spec):
    nash = solve_feedback_nash(scalar_spec)
    back = nash_from_dict(nash_to_dict(nash))
    assert np.allclose(back.gain(1), nash.gain(1))
    assert np.allclose(back.value(2, 2), nash.value(2, 2))
    assert np.allclose(back.x_star, nash.x_star)
    assert back.theta_min_eig == pytest.approx(nash.theta_min_eig)


def test_round_trip_solution_still_verifies(scalar_spec):
    nash = nash_from_dict(nash_to_dict(solve_feedback_nash(scalar_spec)))
    check = verify_nash_by_deviation(scalar_spec, nash, 1, 1, [0.3])
    assert check.cost_deviated >= check.cost_at_nash - 1e-12


def test_nash_from_dict_rejects_truncated_gains(scalar_spec_t3):
    data = nash_to_dict(solve_feedback_nash(scalar_spec_t3))
    data["K"] = data["K"][:-1]
    with pytest.raises(DimensionMismatchError, match="K must hold 2"):
        nash_from_dict(data)


def test_nash_from_dict_rejects_mismatched_state_width(scalar_spec_t3):
    data = nash_to_dict(solve_feedback_nash(scalar_spec_t3))
    data["x_star"] = [row + [0.0] for row in data["x_star"]]
    # the gains and value matrices are still 1-state wide
    with pytest.raises(DimensionMismatchError, match=r"K\[0\] must be \(2, 2\)"):
        nash_from_dict(data)
