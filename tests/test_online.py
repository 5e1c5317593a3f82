"""Preview-limited play: padding, prediction, tracking, price of uncertainty."""

import math

import numpy as np
import pytest

from previewnash import (
    ExperimentConfig,
    IndexOutOfRangeError,
    NonFiniteCostError,
    NotStabilizableError,
    ThetaNotPDError,
    ZeroNashCostError,
    compute_pou,
    compute_tracking_gain,
    cost_schedule,
    gain_decay_diagnostic,
    game_spec,
    generate_game,
    log_rel_pou,
    pad_schedule,
    predict_nash,
    run_online,
    solve_feedback_nash,
)

from previewnash import linalg

from conftest import make_aligned_game, make_loose_game, make_padded_failure_game


def _varied_costs(T):
    """Scalar schedule whose stage weights encode the stage index."""
    qs = [[[float(t)]] for t in range(2, T + 1)]
    r1s = [np.diag([float(t), 0.0]) for t in range(1, T)]
    r2s = [np.diag([0.0, float(t)]) for t in range(1, T)]
    return cost_schedule(qs, r1s, r2s)


def _varied_spec(T):
    return game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], _varied_costs(T))


# ------------------------------------------------------------------ padding

def test_padding_repeats_last_revealed_weights():
    spec = _varied_spec(4)
    padded = pad_schedule(spec.costs, t=1, W=1).costs
    # revealed through stage 2: Q3 and R2 stay, the tail repeats them
    assert padded.q(2)[0, 0] == 2.0
    assert padded.q(3)[0, 0] == 3.0
    assert padded.q(4)[0, 0] == 3.0
    assert padded.r(1, 1)[0, 0] == 1.0
    assert padded.r(1, 2)[0, 0] == 2.0
    assert padded.r(1, 3)[0, 0] == 2.0
    assert padded.r(2, 3)[1, 1] == 2.0


def test_padding_with_enough_preview_is_identity():
    spec = _varied_spec(5)
    for t in range(1, 5):
        padded = pad_schedule(spec.costs, t=t, W=5 - 1 - t)
        assert padded.costs is spec.costs


def test_padding_depends_only_on_revealed_prefix():
    spec = _varied_spec(6)
    a = pad_schedule(spec.costs, t=2, W=2).costs
    b = pad_schedule(spec.costs, t=4, W=0).costs
    for tau in range(2, 7):
        assert np.array_equal(a.q(tau), b.q(tau))
    for tau in range(1, 6):
        assert np.array_equal(a.r(1, tau), b.r(1, tau))
        assert np.array_equal(a.r(2, tau), b.r(2, tau))


def test_padding_argument_validation():
    spec = _varied_spec(4)
    for t in (0, 4):
        with pytest.raises(IndexOutOfRangeError):
            pad_schedule(spec.costs, t=t, W=0)
    with pytest.raises(IndexOutOfRangeError):
        pad_schedule(spec.costs, t=1, W=-1)


# ------------------------------------------------------------ tracking gain

def test_tracking_gain_scalar_fixed_point():
    costs = cost_schedule([[[1.0]]], [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])])
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
    k = compute_tracking_gain(spec)
    want = -(math.sqrt(3.0) - 1.0) / 2.0
    assert np.allclose(k, [[want], [want]], atol=1e-8)
    closed = spec.A + spec.joint_b() @ k
    assert abs(closed[0, 0]) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-8)


def test_tracking_gain_zero_dynamics():
    costs = cost_schedule([[[1.0]]], [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])])
    spec = game_spec([[0.0]], [[1.0]], [[1.0]], [1.0], costs)
    assert np.array_equal(compute_tracking_gain(spec), np.zeros((2, 1)))


def test_tracking_gain_rejects_unstabilizable_pair():
    # second state is unstable and no input reaches it
    a = [[2.0, 0.0], [0.0, 2.0]]
    b = [[1.0], [0.0]]
    q = np.eye(2)
    costs = cost_schedule([q], [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])])
    spec = game_spec(a, b, b, [1.0, 1.0], costs)
    with pytest.raises(NotStabilizableError):
        compute_tracking_gain(spec)


def _value_iteration_gain(spec, rel=None):
    """The tracking gain by value iteration, the solver doubling replaced.

    It stops once a sweep moves P by less than 1e-10, or, given rel, by at
    most rel ||P||; the absolute stop is the replaced solver's.
    """
    a, b = spec.A, spec.joint_b()
    eye_n, eye_u = np.eye(spec.n), np.eye(2 * spec.m)
    p = eye_n
    for _ in range(10_000):
        btp = b.T @ p
        gain = -linalg.solve_linear(eye_u + btp @ b, btp @ a)
        p_next = linalg.symmetrize(eye_n + a.T @ p @ a + (a.T @ btp.T) @ gain)
        if not np.all(np.isfinite(p_next)) or np.abs(p_next).max() > 1e100:
            raise NotStabilizableError("value iteration diverged")
        step = linalg.two_norm(p_next - p)
        settled = step < 1e-10 if rel is None else step <= rel * linalg.two_norm(p_next)
        p = p_next
        if settled:
            break
    else:
        raise NotStabilizableError("value iteration did not settle")
    btp = b.T @ p
    return -linalg.solve_linear(eye_u + btp @ b, btp @ a)


def _drawn_grid():
    """Drawn-family games over a grid of the dynamics a and the first input gain b1."""
    for a in np.linspace(0.5, 2.5, 21):
        for b1 in (0.3, 0.85, 1.7):
            yield generate_game(ExperimentConfig(a=float(a), b1=b1), 3, 0)


def _conftest_games():
    for seed in range(12):
        yield make_aligned_game(np.random.default_rng(seed), T_max=3)
        yield make_loose_game(np.random.default_rng(seed), T_max=3)


def _relative_gap(k, want):
    return np.abs(k - want).max() / np.abs(want).max()


@pytest.mark.parametrize("a, message", [
    (1.0, r"^value iteration did not settle; \(A, B\) may not be stabilizable$"),
    (1.0 - 1e-7, r"^closed-loop radius estimate 1\.000000 is not safely below 1$"),
], ids=["unsettled", "radius"])
def test_doubling_gain_refusals_name_their_cause(a, message):
    # with no input, H doubles at every step for a = 1, so 64 doublings do
    # not settle it; just below 1 it settles, but leaves the open loop,
    # which is not safely stable
    costs = cost_schedule([[[1.0]]], [np.eye(2)], [np.eye(2)])
    spec = game_spec([[a]], [[0.0]], [[0.0]], [1.0], costs)
    with pytest.raises(NotStabilizableError, match=message):
        compute_tracking_gain(spec)


def test_doubling_gain_is_bitwise_value_iteration_on_the_default_family():
    spec = generate_game(ExperimentConfig(), 5, 0)
    assert np.array_equal(compute_tracking_gain(spec), _value_iteration_gain(spec))


@pytest.mark.parametrize("games, rel", [
    (_drawn_grid, None),
    # on these games the absolute 1e-10 stop leaves value iteration up to
    # 1e-11 from the Riccati solution, so it runs to a relative stop
    (_conftest_games, 1e-14),
])
def test_doubling_gain_matches_value_iteration(games, rel):
    compared = 0
    for spec in games():
        try:
            want = _value_iteration_gain(spec, rel)
        except NotStabilizableError:
            with pytest.raises(NotStabilizableError):
                compute_tracking_gain(spec)
            continue
        assert _relative_gap(compute_tracking_gain(spec), want) <= 1e-12
        compared += 1
    assert compared >= 24


def test_doubling_gain_solves_the_riccati_equation():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    compared = 0
    for spec in (*_drawn_grid(), *_conftest_games()):
        try:
            k = compute_tracking_gain(spec)
        except NotStabilizableError:
            continue
        a, b = spec.A, spec.joint_b()
        btx = b.T @ scipy_linalg.solve_discrete_are(a, b, np.eye(spec.n), np.eye(2 * spec.m))
        assert _relative_gap(k, -np.linalg.solve(np.eye(2 * spec.m) + btx @ b, btx @ a)) <= 1e-10
        compared += 1
    assert compared >= 80


# --------------------------------------------------------------- prediction

def test_prediction_exact_under_constant_costs():
    q = [[1.0]]
    r1 = np.diag([2.0, 0.0])
    r2 = np.diag([0.0, 2.0])
    costs = cost_schedule([q] * 3, [r1] * 3, [r2] * 3)
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
    full = solve_feedback_nash(spec)
    for t in range(1, 4):
        for W in range(0, 3):
            pred = predict_nash(spec, t, W)
            for s in range(1, 4):
                assert np.array_equal(pred.gain(s), full.gain(s))


def test_prediction_differs_when_preview_truncates():
    spec = _varied_spec(3)
    full = solve_feedback_nash(spec)
    pred = predict_nash(spec, t=1, W=0)
    assert not np.allclose(pred.gain(2), full.gain(2))


# ------------------------------------------------------------------ running

def test_full_preview_reproduces_equilibrium_exactly():
    spec = _varied_spec(5)
    run = run_online(spec, W=spec.T - 1)
    nash = solve_feedback_nash(spec)
    assert run.pou == 0.0
    assert run.log_rel_pou == -math.inf
    assert np.array_equal(run.x, nash.x_star)
    assert np.array_equal(run.u, nash.u_star)
    assert np.all(run.tracking_error == 0.0)


def test_full_preview_exact_on_random_aligned_games():
    rng = np.random.default_rng(17)
    for _ in range(5):
        spec = make_aligned_game(rng, T_max=7)
        run = run_online(spec, W=spec.T - 1)
        assert run.pou == 0.0


def test_time_invariant_costs_make_preview_irrelevant():
    q = [[1.0]]
    r1 = np.diag([2.0, 0.0])
    r2 = np.diag([0.0, 2.0])
    costs = cost_schedule([q] * 4, [r1] * 4, [r2] * 4)
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
    for W in (0, 1, 2):
        assert run_online(spec, W).pou == 0.0


def test_run_replays_its_own_policy():
    spec = _varied_spec(5)
    run = run_online(spec, W=1)
    b = spec.joint_b()
    for t in range(1, spec.T):
        pred_x = run.x_pred[t - 1]
        pred_u = run.u_pred[t - 1]
        offset = run.x[t - 1] - pred_x[t - 1]
        assert run.tracking_error[t - 1] == pytest.approx(float(np.linalg.norm(offset)))
        want_u = run.K_tracking @ offset + pred_u[t - 1]
        assert np.array_equal(run.u[t - 1], want_u)
        assert np.array_equal(run.x[t], spec.A @ run.x[t - 1] + b @ run.u[t - 1])
    assert run.tracking_error[0] == 0.0



@pytest.mark.parametrize("W", [0, 1, 3])
def test_run_prices_against_the_full_information_equilibrium(W):
    # the run reads the equilibrium off its last prediction; compute_pou
    # solves the true game afresh, and the two must agree to the bit
    spec_varied = _varied_spec(6)
    spec_aligned = make_aligned_game(np.random.default_rng(71), T_max=7)
    for spec in (spec_varied, spec_aligned):
        run = run_online(spec, W)
        res = compute_pou(spec, run.x, run.u)
        assert run.pou == res.pou
        assert run.nash_cost_avg == res.nash_social_cost

def test_run_raises_the_first_failure_its_preview_meets():
    # the zero-preview games revealed through stages 2, 3 and 4 fail
    # certification; preview W tracks those revealed through
    # min(1 + W, 5)..5, so W <= 3 meets a failed game and W = 4, 5 play
    spec = make_padded_failure_game()
    for W in range(6):
        failures = []
        for t in range(1, spec.T):
            try:
                predict_nash(spec, t, W)
            except ThetaNotPDError as exc:
                failures.append(exc)
        if W <= 3:
            with pytest.raises(ThetaNotPDError) as raised:
                run_online(spec, W)
            assert (raised.value.stage, raised.value.min_pivot) == (failures[0].stage,
                                                                   failures[0].min_pivot)
        else:
            assert failures == []
            assert math.isfinite(run_online(spec, W).pou)


def test_limited_preview_costs_something_here():
    spec = _varied_spec(5)
    run = run_online(spec, W=0)
    assert run.pou != 0.0
    assert math.isfinite(run.log_rel_pou)
    assert run.log_rel_pou == pytest.approx(math.log(abs(run.pou) / run.nash_cost_avg))


def test_explicit_tracking_gain_is_used():
    spec = _varied_spec(4)
    run = run_online(spec, W=spec.T - 1, K_tracking=np.zeros((2, 1)))
    assert np.array_equal(run.K_tracking, np.zeros((2, 1)))
    assert run.pou == 0.0  # offsets are zero, the gain never engages
    with pytest.raises(ValueError):
        run_online(spec, W=0, K_tracking=np.zeros((1, 2)))
    with pytest.raises(IndexOutOfRangeError):
        run_online(spec, W=-1)


def test_run_serialization_shapes():
    spec = _varied_spec(4)
    d = run_online(spec, W=1).to_dict()
    assert set(d) == {"x", "u", "x_pred", "u_pred", "K_tracking", "pou",
                      "log_rel_pou", "nash_cost_avg", "tracking_error"}
    assert len(d["x"]) == 4 and len(d["u"]) == 3
    assert len(d["x_pred"]) == 3
    d0 = run_online(spec, W=3).to_dict()
    assert d0["log_rel_pou"] is None  # -inf is not JSON-portable


# -------------------------------------------------------------- pou metrics

def test_pou_against_zero_control_oracle(scalar_spec):
    x = np.array([[1.0], [1.0]])
    u = np.zeros((1, 2))
    res = compute_pou(scalar_spec, x, u)
    assert res.pou == pytest.approx(7.0 / 9.0, abs=1e-12)
    assert res.nash_social_cost == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert log_rel_pou(res.pou, res.nash_social_cost) == pytest.approx(math.log(3.5), abs=1e-12)


def test_log_rel_pou_edge_cases():
    assert log_rel_pou(0.0, 1.0) == -math.inf
    assert log_rel_pou(-0.5, 2.0) == pytest.approx(math.log(0.25))
    with pytest.raises(ZeroNashCostError):
        log_rel_pou(0.5, 0.0)
    # a cost that overflowed has no relative price either; zero is checked first
    for pou, cost in ((math.nan, 1.0), (math.inf, 1.0), (0.0, -math.inf), (0.5, math.nan)):
        with pytest.raises(NonFiniteCostError):
            log_rel_pou(pou, cost)
    with pytest.raises(ZeroNashCostError):
        log_rel_pou(math.nan, 0.0)


def test_an_overflowing_equilibrium_path_is_a_non_finite_cost():
    # every curvature certifies, but the paths from a start near the float
    # range overflow; that was reported as a curvature failure at "stage 0"
    spec = generate_game(ExperimentConfig(x1=(1e308, 1e308)), 5, 0)
    for W in (0, 1):
        with pytest.raises(NonFiniteCostError):
            run_online(spec, W)
    with pytest.raises(NonFiniteCostError, match="equilibrium path from x1 is not finite"):
        solve_feedback_nash(generate_game(ExperimentConfig(x1=(1.5e308, 0.0)), 5, 0))


def test_zero_start_has_no_relative_scale():
    costs = cost_schedule([[[1.0]]], [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])])
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [0.0], costs)
    with pytest.raises(ZeroNashCostError):
        run_online(spec, W=0)


# --------------------------------------------------------------- diagnostic

def test_gain_decay_diagnostic_axes():
    spec = _varied_spec(6)
    table = gain_decay_diagnostic(spec, W=1)
    assert [t for t, _ in table] == [1, 2, 3, 4, 5]
    # once t + W reaches the final controlled stage the prediction is exact
    assert table[-1][1] == 0.0
    assert table[-2][1] == 0.0
    assert table[0][1] > 0.0


@pytest.mark.parametrize("huge", [2 ** 63, 10 ** 31])
def test_a_preview_past_the_last_stage_is_full_information(huge):
    # W = T-1 already reveals everything; a larger W reveals nothing more,
    # however far past 2^63 it reaches
    spec = generate_game(ExperimentConfig(), 6, 0)
    full = run_online(spec, spec.T - 1).to_dict()
    fresh = generate_game(ExperimentConfig(), 6, 0)  # solves its own passes
    assert run_online(fresh, huge).to_dict() == full
    assert gain_decay_diagnostic(fresh, huge) == gain_decay_diagnostic(spec, spec.T - 1)
    for t in (1, spec.T - 1):
        assert np.array_equal(predict_nash(spec, t, huge).K, predict_nash(spec, t, spec.T - 1 - t).K)


def test_singular_tracking_step_is_not_stabilizable():
    # at a = 1e10 a step of the tracking-gain solve is singular
    spec = generate_game(ExperimentConfig(a=1e10), 6, 0)
    with pytest.raises(NotStabilizableError, match="could not be certified"):
        compute_tracking_gain(spec)
    with pytest.raises(NotStabilizableError, match="could not be certified"):
        run_online(spec, 1)


def test_gain_decay_diagnostic_rejects_negative_preview():
    # a negative W would read the weights of wrapped stage indices
    spec = generate_game(ExperimentConfig(), 6, 0)
    with pytest.raises(IndexOutOfRangeError, match="preview length must be >= 0, got -1"):
        gain_decay_diagnostic(spec, -1)


# values that int() would round, or cannot read: at W=0.5 or t=2.5 the
# library would otherwise answer for W=0 or fail on a slice index
_NON_INTEGRAL = [0.5, 1.5, float("nan"), None, "2.5"]
_NON_INTEGRAL_STEPS = [(2, 0.5), (2.5, 0), (2, 1.5), (2.5, 1), (None, 0), (2, float("nan"))]


@pytest.mark.parametrize("W", _NON_INTEGRAL)
def test_run_online_refuses_non_integral_previews(W):
    with pytest.raises(IndexOutOfRangeError, match="preview length must be an integer"):
        run_online(_varied_spec(5), W)


@pytest.mark.parametrize("t, W", _NON_INTEGRAL_STEPS)
def test_predict_nash_refuses_non_integral_steps_and_previews(t, W):
    with pytest.raises(IndexOutOfRangeError, match="must be an integer"):
        predict_nash(_varied_spec(5), t, W)


@pytest.mark.parametrize("t, W", _NON_INTEGRAL_STEPS)
def test_padding_refuses_non_integral_steps_and_previews(t, W):
    with pytest.raises(IndexOutOfRangeError, match="must be an integer"):
        pad_schedule(_varied_spec(5).costs, t, W)


@pytest.mark.parametrize("W", _NON_INTEGRAL)
def test_gain_decay_diagnostic_refuses_non_integral_previews(W):
    with pytest.raises(IndexOutOfRangeError, match="preview length must be an integer"):
        gain_decay_diagnostic(_varied_spec(5), W)


def test_gain_decay_diagnostic_constant_costs_all_zero():
    q = [[1.0]]
    r1 = np.diag([2.0, 0.0])
    r2 = np.diag([0.0, 2.0])
    costs = cost_schedule([q] * 4, [r1] * 4, [r2] * 4)
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
    assert all(gap == 0.0 for _, gap in gain_decay_diagnostic(spec, W=0))
