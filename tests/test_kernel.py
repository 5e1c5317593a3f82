"""The stacked backward pass against the one-game-at-a-time reference.

`_reference_solve` is the scalar coupled-Riccati recursion and forward
rollout the solver used before every padded game of a run was solved in
one stacked pass.  It is the reference path: the solver, the predictions
and the order of certification errors are all pinned to it.
"""

import warnings

import numpy as np
import pytest

from previewnash import (
    ThetaNotPDError,
    check_assumptions,
    gain_decay_diagnostic,
    pad_schedule,
    predict_nash,
    run_online,
    solve_feedback_nash,
    with_costs,
)
from previewnash import game as game_mod
from previewnash import linalg, online

from conftest import make_aligned_game, make_loose_game, make_padded_failure_game


def _reference_theta(r1, r2, B1, B2, p1_next, p2_next):
    m = B1.shape[1]
    theta = np.empty((2 * m, 2 * m))
    theta[:m, :m] = r1[:m, :m] + B1.T @ p1_next @ B1
    theta[:m, m:] = r1[:m, m:] + B1.T @ p1_next @ B2
    theta[m:, :m] = r2[m:, :m] + B2.T @ p2_next @ B1
    theta[m:, m:] = r2[m:, m:] + B2.T @ p2_next @ B2
    return theta


def _reference_solve(spec, tol=linalg.DEFAULT_TOLERANCES):
    """Scalar backward pass and forward rollout, one stage at a time.

    Returns (K, P1, P2, theta_min_eig, x_star, u_star) with the stage
    conventions of NashSolution; raises ThetaNotPDError like the solver.
    """
    T, n, m = spec.T, spec.n, spec.m
    a, b1, b2 = spec.A, spec.B1, spec.B2
    b = spec.joint_b()
    costs = spec.costs

    p1 = [None] * (T + 1)
    p2 = [None] * (T + 1)
    p1[T] = costs.q(T)
    p2[T] = costs.q(T)
    gains = [None] * T
    theta_min = [0.0] * T
    for t in range(T - 1, 0, -1):
        r1t = costs.r(1, t)
        r2t = costs.r(2, t)
        theta = _reference_theta(r1t, r2t, b1, b2, p1[t + 1], p2[t + 1])
        check = linalg.cholesky_pd(theta, tol.pd_pivot)
        if not check.is_pd:
            raise ThetaNotPDError(t, check.min_pivot)
        theta_min[t] = float(linalg.sym_eig(theta)[0])
        rhs = np.vstack((b1.T @ p1[t + 1], b2.T @ p2[t + 1])) @ a
        kt = -linalg.solve_linear(theta, rhs)
        gains[t] = kt
        if t >= 2:
            closed = a + b @ kt
            qt = costs.q(t)
            p1[t] = linalg.symmetrize(qt + kt.T @ r1t @ kt + closed.T @ p1[t + 1] @ closed)
            p2[t] = linalg.symmetrize(qt + kt.T @ r2t @ kt + closed.T @ p2[t + 1] @ closed)

    x = np.empty((T, n))
    u = np.empty((T - 1, 2 * m))
    x[0] = spec.x1
    for k in range(T - 1):
        u[k] = gains[k + 1] @ x[k]
        x[k + 1] = a @ x[k] + b @ u[k]
    return gains[1:], p1[2:], p2[2:], theta_min[1:], x, u


def _reference_predict(spec, t, W):
    return _reference_solve(with_costs(spec, pad_schedule(spec.costs, t, W).costs))


def _assert_close(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale


def _families():
    rng = np.random.default_rng(23)
    for _ in range(8):
        yield make_aligned_game(rng, n_max=4, m_max=2, T_max=9)
        yield make_loose_game(rng, n_max=4, m_max=3, T_max=9)


@pytest.mark.parametrize("spec", list(_families()))
def test_solver_matches_reference(spec):
    nash = solve_feedback_nash(spec)
    gains, p1, p2, theta_min, x, u = _reference_solve(spec)
    _assert_close(nash.K, gains)
    _assert_close(nash.P1, p1)
    _assert_close(nash.P2, p2)
    _assert_close(nash.theta_min_eig, theta_min)
    _assert_close(nash.x_star, x)
    _assert_close(nash.u_star, u)


@pytest.mark.parametrize("spec", list(_families()))
def test_predictions_match_reference_on_copied_schedules(spec):
    # the index map min(tau, t+W) must solve what pad_schedule's copy states
    for W in (0, 1):
        run = run_online(spec, W, K_tracking=np.zeros((2 * spec.m, spec.n)))
        for t in range(1, spec.T):
            gains, _, _, _, x, u = _reference_predict(spec, t, W)
            _assert_close(run.x_pred[t - 1], x)
            _assert_close(run.u_pred[t - 1], u)
            _assert_close(predict_nash(spec, t, W).K, gains)


def test_failed_padded_game_raises_the_lowest_step_error():
    spec = make_padded_failure_game()
    solve_feedback_nash(spec)  # the true game is certified
    failures = {}
    for t in range(1, spec.T):
        try:
            predict_nash(spec, t, 0)
        except ThetaNotPDError as exc:
            with pytest.raises(ThetaNotPDError) as ref:
                _reference_predict(spec, t, 0)
            assert (exc.stage, exc.min_pivot) == (ref.value.stage, ref.value.min_pivot)
            failures[t] = (exc.stage, exc.min_pivot)
    assert sorted(failures) == [2, 3, 4]
    assert failures[3][0] > failures[2][0]

    with pytest.raises(ThetaNotPDError) as exc:
        run_online(spec, 0, K_tracking=np.zeros((2, 1)))
    assert (exc.value.stage, exc.value.min_pivot) == failures[2]


@pytest.mark.parametrize("residuals", [False, True])
def test_one_pass_reports_each_failed_game(residuals):
    # a failed game is data, not a replay: its error is the one it raises
    # alone, and the certified games in the same pass are untouched
    spec = make_padded_failure_game()
    known = list(range(1, spec.T))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = game_mod._backward(spec, known, residuals=residuals)
    assert [exc is None for exc in batch.failures] == [k in (1, 5) for k in known]
    for g, (k, exc) in enumerate(zip(known, batch.failures)):
        if exc is None:
            alone = game_mod._backward(spec, [k], residuals=residuals)
            assert np.array_equal(batch.theta_min[g], alone.theta_min[0])
            if residuals:
                assert np.array_equal(batch.residuals[g], alone.residuals[0])
            else:
                assert np.array_equal(batch.K[g], alone.K[0])
        else:
            with pytest.raises(ThetaNotPDError) as ref:
                _reference_predict(spec, k, 0)
            assert (exc.stage, exc.min_pivot) == (ref.value.stage, ref.value.min_pivot)
    with pytest.raises(ThetaNotPDError) as first:
        batch.certified()
    assert first.value is batch.failures[1]


def test_scoring_passes_roll_nothing_out(monkeypatch):
    # A1/A6 scoring and the gain-decay table read gains and curvatures only
    def no_rollout(*args, **kwargs):
        raise AssertionError("rollout called")

    monkeypatch.setattr(game_mod, "_rollout", no_rollout)
    spec = make_aligned_game(np.random.default_rng(29), T_max=8)
    assert check_assumptions(spec, "warn").overall
    assert not check_assumptions(make_padded_failure_game(), "warn").overall
    assert len(gain_decay_diagnostic(spec, 1)) == spec.T - 1
    with pytest.raises(AssertionError, match="rollout called"):
        solve_feedback_nash(spec)


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_scoring_pass_keeps_no_gain_stack(seed):
    # the A1/A6 pass reads curvatures and residuals only; the report itself
    # is pinned to the per-step reference in test_potential.py
    spec = make_aligned_game(np.random.default_rng(seed), T_max=9)
    known = np.arange(1, spec.T)
    scored = game_mod._backward(spec, known, residuals=True)
    plain = game_mod._backward(spec, known)
    assert scored.K is None and plain.K is not None
    assert scored.residuals.shape == (spec.T - 1, 2)
    assert np.array_equal(scored.theta_min, plain.theta_min)


def test_run_predictions_equal_single_predictions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(n=st.integers(1, 5), m=st.integers(1, 3), T=st.integers(2, 8),
                      W=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def check(n, m, T, W, seed):
        spec = make_loose_game(np.random.default_rng(seed), n=n, m=m, T=T)
        try:
            run = run_online(spec, W, K_tracking=np.zeros((2 * m, n)))
        except ThetaNotPDError as exc:
            for t in range(1, T):
                try:
                    predict_nash(spec, t, W)
                except ThetaNotPDError as first:
                    assert (exc.stage, exc.min_pivot) == (first.stage, first.min_pivot)
                    return
            raise
        for t in range(1, T):
            assert np.array_equal(run.x_pred[t - 1], predict_nash(spec, t, W).x_star)

    check()


def _reference_play(spec, W, k_bar):
    """Tracking loop one step at a time, each step's prediction solved alone."""
    T = spec.T
    b = spec.joint_b()
    x = np.empty((T, spec.n))
    u = np.empty((T - 1, 2 * spec.m))
    x[0] = spec.x1
    for t in range(1, T):
        pred = predict_nash(spec, t, W)
        u[t - 1] = k_bar @ (x[t - 1] - pred.x_star[t - 1]) + pred.u_star[t - 1]
        x[t] = spec.A @ x[t - 1] + b @ u[t - 1]
    return x, u


@pytest.mark.parametrize("family", [make_aligned_game, make_loose_game])
def test_all_previews_play_from_the_zero_preview_pass(family):
    # step t under preview W tracks the zero-preview game revealed through
    # min(t + W, T - 1); the stacked runs are bitwise the runs played alone
    rng = np.random.default_rng(71)
    played = 0
    for _ in range(25):
        spec = family(rng)
        k_bar = rng.uniform(-0.5, 0.5, size=(2 * spec.m, spec.n))
        try:
            batch = game_mod._backward(spec, np.arange(1, spec.T)).certified()
        except ThetaNotPDError:
            continue
        x_pred, u_pred = game_mod._equilibrium_paths(spec, batch.K)
        ws = (0, 1, 3, spec.T, 1)
        xs, us = online._play(spec, x_pred, u_pred, ws, k_bar)
        for W, x, u in zip(ws, xs, us):
            x_ref, u_ref = _reference_play(spec, W, k_bar)
            assert np.array_equal(x, x_ref) and np.array_equal(u, u_ref)
            run = run_online(spec, W, K_tracking=k_bar)
            assert np.array_equal(run.x, x_ref) and np.array_equal(run.u, u_ref)
        played += 1
    assert played >= 15
