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
    ExperimentConfig,
    ThetaNotPDError,
    build_r_potential,
    check_assumptions,
    cost_schedule,
    gain_decay_diagnostic,
    generate_game,
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


@pytest.mark.parametrize("gaps", [False, True])
def test_one_pass_reports_each_failed_game(gaps):
    # a failed game is data, not a replay: its error is the one it raises
    # alone, and the certified games in the same pass are untouched
    spec = make_padded_failure_game()
    known = list(range(1, spec.T))
    keep = {"theta", "gaps"} if gaps else {"theta"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = game_mod._backward(spec, known, keep=keep)
    assert [exc is None for exc in batch.failures] == [k in (1, 5) for k in known]
    for g, (k, exc) in enumerate(zip(known, batch.failures)):
        if exc is None:
            alone = game_mod._backward(spec, [k], keep=keep)
            assert np.array_equal(batch.theta[g], alone.theta[0])
            assert np.array_equal(batch.K[g], alone.K[0])
            if gaps:
                assert np.array_equal(batch.gaps[g], alone.gaps[0])
        else:
            with pytest.raises(ThetaNotPDError) as ref:
                _reference_predict(spec, k, 0)
            assert (exc.stage, exc.min_pivot) == (ref.value.stage, ref.value.min_pivot)
    with pytest.raises(ThetaNotPDError) as first:
        batch.certified()
    assert first.value is batch.failures[1]


_EVERY_STACK = {"theta", "values", "gaps"}
_KEPT = {"theta": ("theta",), "values": ("P1", "P2"), "gaps": ("gaps",)}


def _assert_stack_is_lone_passes(spec, schedules, known, keep, rng):
    # the games of every schedule, shuffled into one pass, against each
    # schedule's pass alone; a pass keeps what `keep` names and nothing else
    S, G = len(schedules), len(known)
    order = rng.permutation(S * G)
    which = np.repeat(np.arange(S), G)[order]
    stacked = game_mod._backward(spec, np.tile(known, S)[order], keep=keep,
                                 costs=schedules, schedule=which)
    for s, costs in enumerate(schedules):
        alone = game_mod._backward(with_costs(spec, costs), known, keep=keep)
        games = np.argsort(order)[s * G:(s + 1) * G]
        assert np.array_equal(stacked.K[games], alone.K)
        for name, fields in _KEPT.items():
            for field in fields:
                if name in keep:
                    assert np.array_equal(getattr(stacked, field)[games], getattr(alone, field))
                else:
                    assert getattr(stacked, field) is None
        assert [repr(stacked.failures[g]) for g in games] == [repr(exc) for exc in alone.failures]


@pytest.mark.parametrize("kept", [False, True])
@pytest.mark.parametrize("family", [make_aligned_game, make_loose_game])
def test_stacked_schedules_are_their_lone_passes(family, kept):
    rng = np.random.default_rng(83)
    for _ in range(8):
        spec = family(rng)
        # other draws of the same sizes lend their schedules to spec's system
        schedules = [spec.costs] + [family(rng, n=spec.n, m=spec.m, T=spec.T).costs
                                    for _ in range(3)]
        _assert_stack_is_lone_passes(spec, schedules, np.arange(1, spec.T),
                                     _EVERY_STACK if kept else frozenset(), rng)


@pytest.mark.parametrize("kept", [False, True])
def test_stacked_failing_and_clean_schedules_are_their_lone_passes(kept):
    spec = make_padded_failure_game()
    r = [0.7, 1.9, 1.0, 2.0, 1.8]
    clean = cost_schedule([[[v]] for v in (1.9, 0.4, 0.3, 1.0, 2.0)],
                          [np.diag([v, 0.0]) for v in r], [np.diag([0.0, v]) for v in r])
    schedules = [spec.costs, clean, spec.costs, clean]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_stack_is_lone_passes(spec, schedules, np.arange(1, spec.T),
                                     _EVERY_STACK if kept else frozenset(), np.random.default_rng(89))
    stacked = game_mod._backward(spec, np.tile(np.arange(1, spec.T), 4), costs=schedules,
                                 schedule=np.repeat(np.arange(4), spec.T - 1))
    failing = [k in (2, 3, 4) for k in range(1, spec.T)]
    clean_games = [False] * (spec.T - 1)
    assert [exc is not None for exc in stacked.failures] == (failing + clean_games) * 2


def test_scoring_passes_roll_nothing_out(monkeypatch):
    # A1/A6 scoring and the gain-decay table read gains and curvatures only
    def no_rollout(*args, **kwargs):
        raise AssertionError("rollout called")

    monkeypatch.setattr(game_mod, "_rollout", no_rollout)
    drawn = make_aligned_game(np.random.default_rng(29), T_max=8)
    spec = with_costs(drawn, drawn.costs)  # holds no pass yet, so each call solves
    assert check_assumptions(spec, "warn").overall
    assert not check_assumptions(make_padded_failure_game(), "warn").overall
    assert len(gain_decay_diagnostic(spec, 1)) == spec.T - 1
    with pytest.raises(AssertionError, match="rollout called"):
        solve_feedback_nash(spec)


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_scoring_pass_keeps_the_plain_pass_gains(seed):
    # the A1/A6 pass keeps its gains, bit for bit the plain pass's, so the
    # reduction and online play can read them off the pass a spec holds;
    # the report itself is pinned to the per-step reference in test_potential.py
    spec = make_aligned_game(np.random.default_rng(seed), T_max=9)
    known = np.arange(1, spec.T)
    scored = game_mod._backward(spec, known, keep={"theta", "gaps"})
    plain = game_mod._backward(spec, known, keep={"theta"})
    assert scored.K.tobytes() == plain.K.tobytes() and plain.gaps is None
    # the value-coupling gap of every game and stage
    assert scored.gaps.shape == (spec.T - 1, spec.T - 1, 2 * spec.m, spec.n)
    assert np.array_equal(scored.theta, plain.theta)


def test_curvature_eigenvalues_cost_one_stacked_call_per_solve(monkeypatch):
    # the pass keeps its curvatures; only theta_min, which a NashSolution
    # reports, takes their eigenvalues
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    spec = make_aligned_game(np.random.default_rng(37), T_max=8)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    game_mod._backward(spec, np.arange(1, spec.T), keep={"theta"})
    game_mod._backward(spec, np.arange(1, spec.T), keep={"theta", "gaps"})
    run_online(with_costs(spec, spec.costs), 1)  # a spec that holds no pass: the run solves
    assert calls == []
    nash = solve_feedback_nash(spec)
    assert calls == [(1, spec.T - 1, 2 * spec.m, 2 * spec.m)]
    assert len(nash.theta_min_eig) == spec.T - 1


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
        xs, us = online._play(spec, x_pred, u_pred, online._preview_steps(spec.T, ws, 1), k_bar)
        for W, x, u in zip(ws, xs, us):
            x_ref, u_ref = _reference_play(spec, W, k_bar)
            assert np.array_equal(x, x_ref) and np.array_equal(u, u_ref)
            run = run_online(spec, W, K_tracking=k_bar)
            assert np.array_equal(run.x, x_ref) and np.array_equal(run.u, u_ref)
        played += 1
    assert played >= 15


@pytest.mark.parametrize("gaps", [False, True])
def test_shared_weights_reuse_the_first_value_recursion(gaps):
    # when every schedule of a pass has R1 == R2, as the reduced problem's
    # does, the one value update gives P2 equal to P1 bit for bit, in their
    # own halves of the values buffer, alone or beside another schedule
    rng = np.random.default_rng(97)
    keep = {"values", "gaps"} if gaps else {"values"}
    for _ in range(6):
        spec = make_aligned_game(rng)
        joint = np.stack([build_r_potential(r1, r2) for r1, r2 in zip(spec.costs.R1, spec.costs.R2)])
        shared = cost_schedule(spec.costs.Q, joint, joint)
        _assert_stack_is_lone_passes(spec, [shared, spec.costs], np.arange(1, spec.T), keep, rng)
        known = [spec.T - 1]
        alone = game_mod._backward(spec, known, keep=keep, costs=[shared])
        both = game_mod._backward(spec, known, keep=keep, costs=[shared, spec.costs], schedule=[0])
        assert alone.P2.tobytes() == alone.P1.tobytes()
        assert not np.shares_memory(both.P1, both.P2)
        assert alone.theta is None and both.theta is None  # neither pass names curvatures
        for field in ("P1", "P2", "K") + (("gaps",) if gaps else ()):
            assert np.array_equal(getattr(alone, field), getattr(both, field))


def _reference_all_pd(sym, tol, ratio=0.0):
    """`linalg._all_pd` before its whole-stack fast path."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(sym), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:
        return False
    ok = (tol < pivots) & (pivots < np.inf)
    if ratio and not pivots.min() > ratio * pivots.max():
        ok &= pivots > ratio * np.max(pivots, axis=-1, keepdims=True)
    return bool(np.all(ok))


def _reference_not_pd(sym, tol, ratio=0.0):
    if _reference_all_pd(sym, tol, ratio):
        return []
    if len(sym) == 1:
        return [0]
    half = len(sym) // 2
    upper = _reference_not_pd(sym[half:], tol, ratio)
    return _reference_not_pd(sym[:half], tol, ratio) + [half + g for g in upper]


@np.errstate(over="ignore", invalid="ignore")
def _reference_backward(spec, known, tol=linalg.DEFAULT_TOLERANCES, costs=None, schedule=None):
    """`game._backward`'s stage loop as it was before its fixed cost per
    stage was trimmed: weight rows indexed stage by stage, and the failure
    masks applied at every stage.  It keeps every game's curvatures and
    values, and in place of the gaps each game's largest gap norm."""
    known = np.asarray(known, dtype=np.intp).reshape(-1)
    T, n, m = spec.T, spec.n, spec.m
    G = known.shape[0]
    a, b1, b2 = spec.A, spec.B1, spec.B2
    b = spec.joint_b()
    costs = (spec.costs,) if costs is None else costs
    qs, r1s, r2s = (np.concatenate([getattr(c, f) for c in costs]) for f in ("Q", "R1", "R2"))
    base = 0 if schedule is None else np.asarray(schedule, dtype=np.intp) * (T - 1)

    p1 = p2 = qs[base + np.minimum(T, known + 1) - 2]
    same_values = all(np.array_equal(c.R1, c.R2) for c in costs)
    p1_hist, p2_hist = [p1], [p2]
    gains = np.empty((G, T - 1, 2 * m, n))
    thetas = np.empty((G, T - 1, 2 * m, 2 * m))
    res = np.zeros(G)
    failures = [None] * G
    failed = np.zeros(G, dtype=bool)
    ratio_floor = game_mod._PIVOT_RATIO * 2 * m * np.finfo(float).eps

    for t in range(T - 1, 0, -1):
        r_idx = base + np.minimum(t, known) - 1
        r1t, r2t = r1s[r_idx], r2s[r_idx]
        b1p1 = b1.T @ p1
        b2p2 = b2.T @ p2
        theta = game_mod._stage_theta(r1t, r2t, b1p1, b2p2, b1, b2)
        theta[failed] = np.eye(2 * m)
        sym = (theta + theta.transpose(0, 2, 1)) / 2.0
        bad = _reference_not_pd(sym, tol.pd_pivot, ratio_floor)
        if bad:
            for g in bad:
                failures[g] = ThetaNotPDError(t, linalg.cholesky_pd(sym[g], tol.pd_pivot).min_pivot)
            failed[bad] = True
            theta[failed] = np.eye(2 * m)
        thetas[:, t - 1] = theta
        gap = b.T @ (p1 - p2) @ a
        gap[failed] = 0.0
        res = np.fmax(res, linalg._two_norms(gap, res))
        rhs = np.concatenate((b1p1, b2p2), axis=1) @ a
        kt = -np.linalg.solve(theta, rhs)
        gains[:, t - 1] = kt
        if t >= 2:
            closed = a + b @ kt
            closed_t = closed.transpose(0, 2, 1)
            kt_t = kt.transpose(0, 2, 1)
            qt = qs[base + np.minimum(t, known + 1) - 2]
            p1 = qt + kt_t @ r1t @ kt + closed_t @ p1 @ closed
            p1 = (p1 + p1.transpose(0, 2, 1)) / 2.0
            if same_values:
                p2 = p1
            else:
                p2 = qt + kt_t @ r2t @ kt + closed_t @ p2 @ closed
                p2 = (p2 + p2.transpose(0, 2, 1)) / 2.0
            p1[failed] = p2[failed] = 0.0
            p1_hist.append(p1)
            p2_hist.append(p2)
    values = (np.stack(p1_hist[::-1], axis=1), np.stack(p2_hist[::-1], axis=1))
    return game_mod._Batch(gains, thetas, *values, res, tuple(failures))


def _trimmed_loop_cases():
    """(spec, known, costs, schedule) passes that cover the trimmed loop's branches."""
    rng = np.random.default_rng(157)
    for family in (make_aligned_game, make_loose_game):
        for _ in range(6):
            spec = family(rng)
            yield spec, np.arange(1, spec.T), None, None
            yield spec, [spec.T - 1], None, None  # the true game alone
    yield make_padded_failure_game(), np.arange(1, 6), None, None
    # the drawn family at its default a and at two that fail certificates,
    # absolutely and by the pivot ratio, first at high stages
    for a, T in ((1.6, 10), (1e10, 6), (1e10, 12), (1e60, 8)):
        for seed in range(3):
            spec = generate_game(ExperimentConfig(a=a), T, seed)
            yield spec, np.arange(1, T), None, None
            yield spec, [T - 1], None, None
            # a sweep's stack: the seeds' schedules on one system, every padded game
            specs = [generate_game(ExperimentConfig(a=a), T, seed + s) for s in range(3)]
            yield (spec, np.tile(np.arange(2, T), 3), [s.costs for s in specs],
                   np.repeat(np.arange(3), T - 2))
    for seed in (0, 1, 2):  # certify_dense's size
        spec = make_aligned_game(np.random.default_rng(160 + seed), n=16, m=4, T=40, a_norm=1.05)
        yield spec, np.arange(1, 40), None, None
        yield spec, [39], None, None


@pytest.mark.parametrize("gaps", [False, True])
def test_trimmed_stage_loop_is_the_reference_loop_bit_for_bit(gaps):
    failing = 0
    for spec, known, costs, schedule in _trimmed_loop_cases():
        keep = _EVERY_STACK if gaps else {"theta", "values"}
        got = game_mod._backward(spec, known, keep=keep, costs=costs, schedule=schedule)
        want = _reference_backward(spec, known, costs=costs, schedule=schedule)
        assert got.K.tobytes() == want.K.tobytes()
        assert got.theta.tobytes() == want.theta.tobytes()
        # every game's values, (G, T-1, n, n), whatever the game count
        assert got.P1.tobytes() == want.P1.tobytes() and got.P2.tobytes() == want.P2.tobytes()
        if gaps:
            # the pass keeps the gap stack; each game's exact largest norm
            # over it is the reference loop's running maximum
            assert got.gaps.shape == got.K.shape
            exact = np.fmax.reduce(np.linalg.norm(got.gaps, 2, axis=(-2, -1)), axis=1, initial=0.0)
            assert exact.tobytes() == want.gaps.tobytes()
        else:  # a pass that keeps nothing keeps the same gains, and gains and failures only
            bare = game_mod._backward(spec, known, costs=costs, schedule=schedule)
            assert got.gaps is None and bare[1:5] == (None,) * 4
            assert bare.K.tobytes() == got.K.tobytes()
            assert [repr(e) for e in bare.failures] == [repr(e) for e in got.failures]
        assert [(type(e), e.stage, e.min_pivot, str(e)) if e else None for e in got.failures] == \
            [(type(e), e.stage, e.min_pivot, str(e)) if e else None for e in want.failures]
        failing += any(got.failures)
    assert failing >= 10
