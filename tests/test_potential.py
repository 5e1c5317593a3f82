"""Structural checks, the single-agent reduction, and their invariants."""

import json
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from previewnash import (
    ASSUMPTION_IDS,
    AssumptionViolatedError,
    DimensionMismatchError,
    ExperimentConfig,
    ReductionMismatchError,
    ThetaNotPDError,
    WrongStructureError,
    build_r_potential,
    check_assumptions,
    check_sufficient_structure,
    cost_schedule,
    gain_decay_diagnostic,
    game_spec,
    generate_game,
    pad_schedule,
    predict_nash,
    reduce_to_ocp,
    solve_feedback_nash,
    verify_equivalence,
    with_costs,
)
from previewnash import game as game_mod
from previewnash import linalg, potential

from conftest import make_aligned_game, make_loose_game, make_padded_failure_game


def _single_input_game(b1=0.7, b2=-0.9, beta=2.0, T=3, r2_scale=1.0):
    a = [[1.2, 0.0], [0.0, 0.5]]
    bb1 = [[b1], [0.0]]
    bb2 = [[b2], [0.0]]
    r1 = np.diag([b1 * b1 * beta, 0.0])
    r2 = np.diag([0.0, b2 * b2 * beta * r2_scale])
    q = np.diag([1.0, 0.5])
    costs = cost_schedule([q] * (T - 1), [r1] * (T - 1), [r2] * (T - 1))
    return game_spec(a, bb1, bb2, [1.0, -1.0], costs)


# -------------------------------------------------------------- R assembly

def test_build_r_potential_row_blocks():
    r1 = np.diag([1.0, 0.0])
    r2 = np.diag([0.0, 1.0])
    assert np.array_equal(build_r_potential(r1, r2), np.eye(2))
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(build_r_potential(a, b), [[1.0, 2.0], [7.0, 8.0]])


def test_build_r_potential_validation():
    with pytest.raises(DimensionMismatchError):
        build_r_potential(np.eye(2), np.eye(4))
    with pytest.raises(DimensionMismatchError):
        build_r_potential(np.eye(3), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        build_r_potential(np.zeros((2, 4)), np.zeros((2, 4)))


# ---------------------------------------------------------- validity report

def test_scalar_report_margins(scalar_spec):
    report = check_assumptions(scalar_spec, mode="warn")
    assert report.overall
    assert [c.id for c in report.checks] == list(ASSUMPTION_IDS)
    assert all(c.passed for c in report.checks)
    # weight-decay margin: min eig of Q minus ||A|| / sigma_min(B) times
    # the lifted control-weight gap, here 1 - 1/sqrt(2)
    assert report.check("A5").margin == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
    # stabilizability margin: 1 - rho(closed loop) ~ sqrt(3) - 1 for this system
    assert report.check("A3").margin == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-4)
    assert report.check("A6").margin is not None and report.check("A6").passed


def test_report_serialization(scalar_spec):
    d = check_assumptions(scalar_spec, mode="warn").to_dict()
    assert set(d) == {"overall", "assumptions"}
    assert d["overall"] is True
    assert [e["id"] for e in d["assumptions"]] == list(ASSUMPTION_IDS)
    for e in d["assumptions"]:
        assert set(e) == {"id", "passed", "margin", "detail"}


def test_report_lookup_unknown_id(scalar_spec):
    report = check_assumptions(scalar_spec, mode="warn")
    with pytest.raises(KeyError):
        report.check("A9")


def test_check_assumptions_mode_validation(scalar_spec):
    with pytest.raises(ValueError):
        check_assumptions(scalar_spec, mode="loud")


def test_indefinite_state_weight_fails_strict():
    costs = cost_schedule([[[-1.0]]], [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])])
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
    report = check_assumptions(spec, mode="warn")
    assert not report.overall
    assert not report.check("A1").passed
    assert not report.check("A2").passed
    with pytest.raises(AssumptionViolatedError) as exc:
        check_assumptions(spec, mode="strict")
    assert exc.value.assumption_id == "A1"
    assert exc.value.report is not None and not exc.value.report.overall


@pytest.mark.parametrize("n", [1, 2])
def test_state_weight_past_half_the_float_range_ends_in_a_quiet_report(n):
    # Q_2 = 1e308 I is a valid weight, but the symmetric part of the stage
    # curvature it makes overflows, which fails the curvature certificate
    eye = np.eye(n)
    spec = game_spec(0.5 * eye, eye[:, :1], eye[:, -1:], eye[0],
                     cost_schedule([1e308 * eye], [np.eye(2)], [np.eye(2)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_assumptions(spec, "warn")
    assert not report.overall
    a1 = report.check("A1")
    assert not a1.passed and a1.margin is None
    assert a1.detail.startswith("stage 1: joint curvature matrix is not positive definite")
    assert report.check("A2").passed and report.check("A2").margin == 1.0 + 1e-10


def test_a5_fails_an_undefined_excess():
    # the joint-minus-own weight difference overflows to an undefined (NaN)
    # eigenvalue; A5 must fail it rather than read the excess as 0
    ones = np.array([[1.0, 1.0], [1.0, 1.0]])
    flip = np.array([[1.0, -1.0], [-1.0, 1.0]])
    spec = game_spec([[0.5]], [[1.0]], [[1.0]], [1.0],
                     cost_schedule([[[1.0]]], [1e308 * ones], [1e308 * flip]))
    report = check_assumptions(spec, "warn")
    a5 = report.check("A5")
    assert not a5.passed and a5.margin is None
    assert "required excess nan" in a5.detail
    json.dumps(report.to_dict()["assumptions"][4], allow_nan=False)


def test_a3_reports_a_singular_tracking_step():
    # at a = 1e10 a step of the tracking-gain solve is singular, which
    # certifies no gain: A3 fails with the reason instead of raising
    spec = generate_game(ExperimentConfig(a=1e10), 6, 0)
    a3 = potential._a3_check(spec, linalg.DEFAULT_TOLERANCES)
    assert not a3.passed and a3.margin is None
    assert "could not be certified" in a3.detail


def test_overflowing_value_recursion_fails_a1_in_the_report():
    # at A = 1e200 I the values overflow; the failed games' void residuals
    # are not measured, so the report says why instead of an SVD error
    spec = game_spec(1e200 * np.eye(2), [[1.0], [0.0]], [[0.0], [1.0]], [1.0, 0.0],
                     cost_schedule([np.eye(2)] * 3, [np.eye(2)] * 3, [np.eye(2)] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_assumptions(spec, "warn")
    a1 = report.check("A1")
    assert not a1.passed and a1.margin is None
    assert a1.detail == "stage 2: joint curvature matrix is not positive definite (min pivot inf)"


@pytest.mark.parametrize("a, T, seed, stage", [(1e60, 8, 2, 6), (1e10, 6, 0, 4)])
def test_a_curvature_solve_cannot_invert_fails_a1_in_the_report(a, T, seed, stage):
    # LAPACK's pivots of the true game's curvature at that stage pass
    # pd_pivot, but their ratio (1.5e-16 and 3.1e-16) is under the
    # certificate's floor: the game fails there instead of `solve` raising
    # LinAlgError
    spec = generate_game(ExperimentConfig(a=a), T, seed)
    a1 = check_assumptions(spec, "warn").check("A1")
    assert not a1.passed and a1.margin < 0.0
    assert a1.detail.startswith(f"stage {stage}: joint curvature matrix ")
    with pytest.raises(ThetaNotPDError) as exc:
        gain_decay_diagnostic(spec, 1)
    assert exc.value.stage == stage


def _true_curvature(spec, stage):
    """The true game's curvature at `stage`, from the values the pass kept above it."""
    batch = game_mod._backward(spec, [spec.T - 1])
    p1, p2 = batch.P1[stage - 1], batch.P2[stage - 1]  # stage + 1's values
    return game_mod._stage_theta(spec.costs.R1[stage - 1], spec.costs.R2[stage - 1],
                                 spec.B1.T @ p1, spec.B2.T @ p2, spec.B1, spec.B2)


def test_a1_margin_on_a_pivot_ratio_failure_is_the_pivot_less_the_floor():
    # every pivot clears pd_pivot, so the failing pivot alone would read as a
    # pass; the margin subtracts the ratio floor and is negative
    spec = generate_game(ExperimentConfig(a=1e10), 6, 0)
    a1 = check_assumptions(spec, "warn").check("A1")
    sym = linalg.symmetrize(_true_curvature(spec, 4))
    check = linalg.cholesky_pd(sym)
    assert check.is_pd and check.min_pivot > 1e5
    floor = game_mod._PIVOT_RATIO * 2 * spec.m * np.finfo(float).eps \
        * float(max(np.diagonal(np.linalg.cholesky(sym)) ** 2))
    assert not a1.passed
    assert a1.margin == check.min_pivot - floor and a1.margin < 0.0
    assert a1.detail == (f"stage 4: joint curvature matrix fails the pivot-ratio floor "
                         f"(min pivot {check.min_pivot:.3e} is not above {floor:.3e})")
    a6 = check_assumptions(spec, "warn").check("A6")
    assert not a6.passed and a6.margin <= a1.margin
    with pytest.raises(ThetaNotPDError) as exc:  # the raised error keeps its message
        solve_feedback_nash(spec)
    assert str(exc.value) == ("stage 4: joint curvature matrix is not positive definite "
                              f"(min pivot {check.min_pivot:.3e})")
    back = pickle.loads(pickle.dumps(exc.value))
    assert (back.stage, back.min_pivot, back._ratio_floor, str(back)) == \
        (4, check.min_pivot, floor, str(exc.value))


def test_a1_margin_on_an_absolute_pivot_failure_is_the_pivot():
    indefinite = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0],
                           cost_schedule([[[-1.0]]], [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])]))
    cancelled = generate_game(ExperimentConfig(a=1e60), 8, 2)  # its pivot cancels to -5.7e104
    for spec in (indefinite, cancelled):
        with pytest.raises(ThetaNotPDError) as exc:
            solve_feedback_nash(spec)
        a1 = check_assumptions(spec, "warn").check("A1")
        assert exc.value._ratio_floor is None and not linalg.cholesky_pd(
            _true_curvature(spec, exc.value.stage)).is_pd
        assert (a1.passed, a1.margin, a1.detail) == (False, exc.value.min_pivot, str(exc.value))


def test_assumption_error_pickles_intact():
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0],
                     cost_schedule([[[-1.0]]], [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])]))
    with pytest.raises(AssumptionViolatedError) as info:
        check_assumptions(spec, mode="strict")
    for exc in (AssumptionViolatedError("A1", "detail x"), info.value):
        back = pickle.loads(pickle.dumps(exc))
        assert str(back) == str(exc)
        assert back.assumption_id == exc.assumption_id
        assert back.report == exc.report
    assert back.report is not None and not back.report.overall
    assert str(pickle.loads(pickle.dumps(AssumptionViolatedError("A1", "detail x")))) == (
        "assumption A1 violated: detail x")


def test_aligned_family_passes_everything():
    rng = np.random.default_rng(21)
    for _ in range(6):
        spec = make_aligned_game(rng, T_max=6)
        report = check_assumptions(spec, mode="warn")
        assert report.overall, report.to_dict()


def _reference_a1(spec, tol=linalg.DEFAULT_TOLERANCES):
    """A1 of one game: a solve, then explicit loops over its value matrices."""
    try:
        nash = solve_feedback_nash(spec, tol=tol)
    except ThetaNotPDError as exc:
        if exc._ratio_floor is not None:  # every pivot passed pd_pivot, one not the ratio floor
            return False, float(exc.min_pivot - exc._ratio_floor), (
                f"stage {exc.stage}: joint curvature matrix fails the pivot-ratio floor "
                f"(min pivot {exc.min_pivot:.3e} is not above {exc._ratio_floor:.3e})")
        margin = float(exc.min_pivot) if np.isfinite(exc.min_pivot) else None
        return False, margin, str(exc)
    q_pivot = min(linalg.cholesky_pd(spec.costs.q(t), tol.pd_pivot).min_pivot
                  for t in range(2, spec.T + 1))
    theta_min = min(nash.theta_min_eig)
    b1, b2, b, m = spec.B1, spec.B2, spec.joint_b(), spec.m
    cross_res = 0.0
    for t in range(1, spec.T):
        lhs = spec.costs.r(1, t)[:m, m:] + b1.T @ nash.value(1, t + 1) @ b2
        rhs = (spec.costs.r(2, t)[m:, :m] + b2.T @ nash.value(2, t + 1) @ b1).T
        cross_res = max(cross_res, linalg.two_norm(lhs - rhs))
    value_res = 0.0
    for t in range(2, spec.T + 1):
        gap = b.T @ (nash.value(1, t) - nash.value(2, t)) @ spec.A
        value_res = max(value_res, linalg.two_norm(gap))
    passed = q_pivot > tol.pd_pivot and cross_res <= tol.mat_eq and value_res <= tol.mat_eq
    margin = min(q_pivot, theta_min, tol.mat_eq - cross_res, tol.mat_eq - value_res)
    detail = (
        f"min state-weight pivot {q_pivot:.3e}; min curvature eig {theta_min:.3e}; "
        f"cross-weight residual {cross_res:.3e}; value-coupling residual {value_res:.3e}"
    )
    return passed, float(margin), detail


def _reference_entries(spec, tol=linalg.DEFAULT_TOLERANCES):
    """Report entries of A1, A2, A4, A5 and A6, one matrix and one padded copy at a time."""
    def entry(aid, passed, margin, detail):
        return {"id": aid, "passed": passed, "margin": margin, "detail": detail}

    T, costs = spec.T, spec.costs
    q_eigs = [linalg.sym_eig(costs.q(t)) for t in range(2, T + 1)]
    r_eigs = [linalg.sym_eig(costs.r(i, t)) for i in (1, 2) for t in range(1, T)]
    q_lo = min(float(e[0]) for e in q_eigs)
    q_hi = max(float(e[-1]) for e in q_eigs)
    r_lo = min(float(e[0]) for e in r_eigs)
    r_hi = max(float(e[-1]) for e in r_eigs)
    a2 = entry("A2", q_lo > tol.pd_pivot and r_lo >= -tol.pd_pivot,
               float(min(q_lo, r_lo + tol.pd_pivot)),
               f"state-weight eigenvalues span [{q_lo:.4g}, {q_hi:.4g}]; "
               f"control-weight eigenvalues span [{r_lo:.4g}, {r_hi:.4g}]")

    worst_pivot, worst_asym = np.inf, 0.0
    for t in range(1, T):
        rp = build_r_potential(costs.r(1, t), costs.r(2, t))
        worst_asym = max(worst_asym, linalg.two_norm(rp - rp.T))
        worst_pivot = min(worst_pivot, linalg.cholesky_pd(rp, tol.pd_pivot).min_pivot)
    a4 = entry("A4", worst_pivot > tol.pd_pivot and worst_asym <= tol.symmetry,
               float(min(worst_pivot, tol.symmetry - worst_asym)),
               f"min joint-weight pivot {worst_pivot:.3e}; max asymmetry {worst_asym:.3e}")

    ratio = linalg.two_norm(spec.A) / linalg.singular_extremes(spec.joint_b()).sigma_min_pos
    q_shift = 0.0
    for t in range(1, T):
        diff = linalg.symmetrize(build_r_potential(costs.r(1, t), costs.r(2, t)) - costs.r(1, t))
        q_shift = max(q_shift, abs(ratio * float(linalg.sym_eig(diff)[-1])))
    q_lo5 = min(float(linalg.sym_eig(costs.q(t))[0]) for t in range(2, T + 1))
    a5 = entry("A5", q_lo5 - q_shift > 0.0, float(q_lo5 - q_shift),
               f"min state-weight eigenvalue {q_lo5:.4g} vs required excess {q_shift:.4g} "
               f"(gain ratio {ratio:.4g})")

    worst, failing = np.inf, []
    for t in range(1, T):
        passed, margin, _ = _reference_a1(with_costs(spec, pad_schedule(costs, t, 0).costs), tol)
        if margin is not None:
            worst = min(worst, margin)
        if not passed:
            failing.append(t)
    if failing:
        detail = f"padded schedules failing at steps {failing} of 1..{T - 1}"
    else:
        detail = f"all {T - 1} padded schedules pass; worst margin {worst:.3e}"
    a6 = entry("A6", not failing, None if worst is np.inf else float(worst), detail)
    return {"A1": entry("A1", *_reference_a1(spec, tol)), "A2": a2, "A4": a4, "A5": a5, "A6": a6}


def _assert_report_matches_reference(spec):
    got = check_assumptions(spec, mode="warn").to_dict()
    want = _reference_entries(spec)
    assert [e for e in got["assumptions"] if e["id"] in want] == list(want.values())
    assert got["overall"] == all(e["passed"] for e in got["assumptions"])
    return got


def _negate_one_state_weight(spec, rng):
    q = list(spec.costs.Q)
    k = int(rng.integers(len(q)))
    q[k] = -q[k]
    return with_costs(spec, cost_schedule(q, spec.costs.R1, spec.costs.R2))


def test_report_matches_per_step_reference_on_both_families():
    rng = np.random.default_rng(57)
    aligned = [make_aligned_game(rng) for _ in range(10)]
    loose = [make_loose_game(rng, T_max=10) for _ in range(30)]
    a6 = [_assert_report_matches_reference(spec)["assumptions"][5]["passed"]
          for spec in aligned + loose]
    # aligned games pass A6 by construction; loose ones mostly fail it
    assert all(a6[:len(aligned)])
    assert 0 < a6[len(aligned):].count(False) < len(loose)


def test_report_matches_reference_when_one_state_weight_is_negative():
    # padded games that have not yet revealed the negated weight still pass
    rng = np.random.default_rng(58)
    details = set()
    for _ in range(10):
        spec = _negate_one_state_weight(make_aligned_game(rng, T=int(rng.integers(4, 9))), rng)
        details.add(_assert_report_matches_reference(spec)["assumptions"][5]["detail"])
    assert len(details) > 1


def _joint_weight_game(r1_mid, r2_mid):
    """Scalar T=5 game whose stage-3 control weights are the given ones.

    The other stages use own-slot weights.  With B2 = -B1, a stage-3 pair
    that is the block swap of itself keeps the two players mirror images,
    so their value recursions coincide and the reduction's cross-weight
    check passes.
    """
    r1 = [np.diag([1.0, 0.0])] * 4
    r2 = [np.diag([0.0, 1.0])] * 4
    r1[2], r2[2] = r1_mid, r2_mid
    return game_spec([[1.0]], [[1.0]], [[-1.0]], [1.0], cost_schedule([[[1.0]]] * 4, r1, r2))


def test_report_matches_reference_on_faulty_joint_weights():
    # stage 3's joint weight [[1, 0.5], [0, 1]] is asymmetric
    asymmetric = _joint_weight_game(np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2))
    a4 = _assert_report_matches_reference(asymmetric)["assumptions"][3]
    assert not a4["passed"] and a4["detail"].endswith("max asymmetry 5.000e-01")
    # stage 3's joint weight [[1, 2], [2, 1]] is symmetric but indefinite
    indefinite = _joint_weight_game(np.array([[1.0, 2.0], [2.0, 4.0]]),
                                    np.array([[4.0, 2.0], [2.0, 1.0]]))
    a4 = _assert_report_matches_reference(indefinite)["assumptions"][3]
    assert not a4["passed"] and a4["margin"] < 0.0
    assert _failure_text(lambda: reduce_to_ocp(indefinite)) == (
        "AssumptionViolatedError: assumption A4 violated: "
        "joint control weight at stage 3 is not positive definite")


def test_uncertified_padded_games_score_their_failing_pivot():
    spec = make_padded_failure_game()
    got = _assert_report_matches_reference(spec)
    a6 = got["assumptions"][5]
    # steps 2-4 fail their curvature certificate, step 5 (the true game)
    # its state-weight pivot
    assert a6["detail"] == "padded schedules failing at steps [2, 3, 4, 5] of 1..5"
    pivots = []
    for t in (2, 3, 4):
        with pytest.raises(ThetaNotPDError) as exc:
            predict_nash(spec, t, 0)
        pivots.append(exc.value.min_pivot)
    scored = [_reference_a1(with_costs(spec, pad_schedule(spec.costs, t, 0).costs))[1]
              for t in (1, 5)]
    assert a6["margin"] == min(pivots + scored)


def test_uncertified_padded_games_are_scored_from_one_pass(monkeypatch):
    backward = game_mod._backward
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return backward(*args, **kwargs)

    monkeypatch.setattr(game_mod, "_backward", counted)
    assert not check_assumptions(make_padded_failure_game(), "warn").overall
    assert len(calls) == 1


def _late_failure_game():
    """Scalar T=5 game whose padded game at step 2 fails its curvature at
    stage 1, below the largest value-coupling gap of the whole pass."""
    r1, r2 = [0.86, 0.59, 1.34, 1.7], [0.2, 0.4, 2.99, 2.45]
    costs = cost_schedule([[[v]] for v in (1.03, -0.2, 0.07, 1.82)], [np.diag([v, 0.0]) for v in r1],
                          [np.diag([0.0, v]) for v in r2])
    return game_spec([[0.88]], [[-0.04]], [[-0.62]], [1.0], costs)


def test_a_game_that_fails_below_the_largest_gap_does_not_score_it():
    # A6's residual terms are the worst case over the certified games only:
    # the gap a failed game holds above its failing stage is not scored
    spec = _late_failure_game()
    batch = game_mod._backward(spec, np.arange(1, spec.T), residuals=True)
    assert [exc is not None for exc in batch.failures] == [False, True, False, False]
    assert batch.failures[1].stage == 1
    norms = np.linalg.norm(batch.residuals, 2, axis=(-2, -1))  # [g, t - 1] is stage t's gap
    assert np.unravel_index(np.argmax(norms), norms.shape) == (1, 1)  # game 2, stage 2
    a6 = _assert_report_matches_reference(spec)["assumptions"][5]
    assert a6["margin"] > linalg.DEFAULT_TOLERANCES.mat_eq - norms.max()


@pytest.mark.parametrize("a, T", [(1e10, 6), (1e10, 12), (1e60, 8)])
def test_report_matches_reference_on_drawn_games_that_fail_certificates(a, T):
    for seed in range(3):
        assert not _assert_report_matches_reference(generate_game(ExperimentConfig(a=a), T, seed))["overall"]


# ---------------------------------------------------------------- reduction

def _reference_reduce(spec, nash, tol):
    """The reduction stage by stage, with its own Riccati recursion: the
    reference that `potential._reduce` is pinned to."""
    T = spec.T
    costs = spec.costs
    for t in range(2, T + 1):
        if not linalg.cholesky_pd(costs.q(t), tol.pd_pivot).is_pd:
            raise AssumptionViolatedError("A1", f"state weight at stage {t} is not positive definite")
    b1, b2, b = spec.B1, spec.B2, spec.joint_b()
    m = spec.m
    thetas = [game_mod._stage_theta(costs.r(1, t), costs.r(2, t), b1.T @ nash.value(1, t + 1),
                                    b2.T @ nash.value(2, t + 1), b1, b2) for t in range(1, T)]
    for t in range(1, T):
        if linalg.two_norm(thetas[t - 1][:m, m:] - thetas[t - 1][m:, :m].T) > tol.mat_eq:
            raise AssumptionViolatedError("A1", f"cross-weight blocks disagree at stage {t}")
    r_pot = [None]
    for t in range(1, T):
        rp = build_r_potential(costs.r(1, t), costs.r(2, t))
        fault = ("symmetric" if linalg.two_norm(rp - rp.T) > tol.symmetry
                 else None if linalg.cholesky_pd(rp, tol.pd_pivot).is_pd else "positive definite")
        if fault:
            raise AssumptionViolatedError("A4", f"joint control weight at stage {t} is not {fault}")
        r_pot.append(linalg.symmetrize(rp))

    a = spec.A
    p_bar = [None] * (T + 1)
    q_bar = [None] * (T + 1)
    k_bar = [None] * T
    q_bar[T] = p_bar[T] = costs.q(T)
    for t in range(T - 1, 0, -1):
        theta_bar = r_pot[t] + b.T @ p_bar[t + 1] @ b
        check = linalg.cholesky_pd(theta_bar, tol.pd_pivot)
        if not check.is_pd:
            raise ReductionMismatchError(
                f"reduced curvature at stage {t} is not positive definite (pivot {check.min_pivot:.3e})"
            )
        k_bar[t] = -linalg.solve_linear(theta_bar, b.T @ p_bar[t + 1] @ a)
        resid = linalg.two_norm(r_pot[t] - (thetas[t - 1] - b.T @ p_bar[t + 1] @ b))
        if resid > tol.mat_eq:
            raise ReductionMismatchError(f"shortcut control weight off by {resid:.3e} at stage {t}")
        if t >= 2:
            kg = nash.gain(t)
            q_bar[t] = linalg.symmetrize(costs.q(t) + kg.T @ (costs.r(1, t) - r_pot[t]) @ kg)
            closed = a + b @ k_bar[t]
            p_bar[t] = linalg.symmetrize(
                q_bar[t] + k_bar[t].T @ r_pot[t] @ k_bar[t] + closed.T @ p_bar[t + 1] @ closed
            )
    return potential.OcpReduction(R_bar=tuple(r_pot[1:]), Q_bar=tuple(q_bar[2:]),
                                  P_bar=tuple(p_bar[2:]), K_bar_ocp=tuple(k_bar[1:]))


def _identical_players_game():
    q = [[1.0]]
    r = np.eye(2)
    costs = cost_schedule([q, q], [r, r], [r, r])
    return game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)


def test_reduction_matches_the_stage_by_stage_reference(scalar_spec_t3):
    rng = np.random.default_rng(61)
    specs = [make_aligned_game(rng) for _ in range(12)] + [scalar_spec_t3, _identical_players_game()]
    tol = linalg.DEFAULT_TOLERANCES
    for spec in specs:
        red = reduce_to_ocp(spec)
        ref = _reference_reduce(spec, solve_feedback_nash(spec), tol)
        for field in ("R_bar", "Q_bar", "P_bar", "K_bar_ocp"):
            got, want = np.stack(getattr(red, field)), np.stack(getattr(ref, field))
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300), field


def _batch_of(spec, nash):
    """The one-game `game._backward` batch whose gains and values are nash's,
    with the curvatures those values give."""
    b1, b2, costs = spec.B1, spec.B2, spec.costs
    thetas = game_mod._stage_theta(costs.R1, costs.R2, b1.T @ np.stack(nash.P1),
                                   b2.T @ np.stack(nash.P2), b1, b2)
    return game_mod._Batch(np.stack(nash.K)[None], thetas[None], nash.P1, nash.P2, None, (None,))


def _forged_solutions():
    """A T=4 scalar game with own-slot weights, and a forgery of its solution.

    forge(gain_stage, value_stage) replaces the stage's gain by [[0], [10]],
    which drives the reduced state weight there, and with it the reduced
    curvature one stage down, negative; it shifts both players' values at
    value_stage by 5, which puts the shortcut weight one stage down off by
    10.  Either may be None.  It returns the forged solution and its batch.
    """
    r1, r2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0],
                     cost_schedule([[[1.0]]] * 3, [r1] * 3, [r2] * 3))
    nash = solve_feedback_nash(spec)

    def forge(gain_stage, value_stage):
        gains, p1, p2 = list(nash.K), list(nash.P1), list(nash.P2)
        if gain_stage is not None:
            gains[gain_stage - 1] = np.array([[0.0], [10.0]])
        if value_stage is not None:
            p1[value_stage - 2] = p1[value_stage - 2] + 5.0
            p2[value_stage - 2] = p2[value_stage - 2] + 5.0
        forged = replace(nash, K=tuple(gains), P1=tuple(p1), P2=tuple(p2))
        return forged, _batch_of(spec, forged)

    return spec, forge


@pytest.mark.parametrize("gain_stage, value_stage, message", [
    (2, 4, "shortcut control weight off by 1.000e+01 at stage 3"),
    (2, None, "reduced curvature at stage 1 is not positive definite (pivot -9.765e+01)"),
    (None, 4, "shortcut control weight off by 1.000e+01 at stage 3"),
    # the shortcut fault at stage 1 lies below the curvature failure at stage 2
    (3, 2, "reduced curvature at stage 2 is not positive definite (pivot -9.767e+01)"),
    (None, 2, "shortcut control weight off by 1.000e+01 at stage 1"),
], ids=["shortcut_above_curvature", "curvature", "shortcut", "shortcut_below_curvature",
        "shortcut_at_stage_1"])
def test_reduction_reports_the_first_fault_from_the_top(gain_stage, value_stage, message):
    spec, forge = _forged_solutions()
    forged, batch = forge(gain_stage, value_stage)
    tol = linalg.DEFAULT_TOLERANCES
    for reduce, solved in ((potential._reduce, batch), (_reference_reduce, forged)):
        with pytest.raises(ReductionMismatchError) as info:
            reduce(spec, solved, tol)
        assert str(info.value) == message


def test_scalar_reduction_closed_form(scalar_spec_t3):
    red = reduce_to_ocp(scalar_spec_t3)
    assert len(red.R_bar) == 2 and len(red.Q_bar) == 2
    for rb in red.R_bar:
        assert np.allclose(rb, np.eye(2))
    # terminal state weight is copied, the interior one absorbs
    # K' (R1 - R_bar) K = -1/9 through the stage-2 game gain
    assert np.allclose(red.Q_bar[1], [[1.0]])
    assert red.Q_bar[0][0, 0] == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert red.P_bar[0][0, 0] == pytest.approx(11.0 / 9.0, abs=1e-12)
    assert red.P_bar[1][0, 0] == pytest.approx(1.0)
    nash = solve_feedback_nash(scalar_spec_t3)
    for t in (1, 2):
        assert np.allclose(red.K_bar_ocp[t - 1], nash.gain(t), atol=1e-13)


def test_reduction_refuses_invalid_games():
    costs = cost_schedule([[[-1.0]]], [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])])
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
    with pytest.raises(AssumptionViolatedError):
        reduce_to_ocp(spec)
    assert issubclass(ReductionMismatchError, RuntimeError)


def test_identical_players_reduce_to_their_own_problem():
    # R1 = R2 makes the joint weight equal to either and the state
    # correction vanish, so the reduction returns the game's own costs
    spec = _identical_players_game()
    red = reduce_to_ocp(spec)
    for rb in red.R_bar:
        assert np.array_equal(rb, np.eye(2))
    for qb in red.Q_bar:
        assert np.allclose(qb, [[1.0]], atol=1e-14)
    assert verify_equivalence(spec) <= 1e-13


def test_equivalence_on_aligned_family():
    rng = np.random.default_rng(33)
    for _ in range(10):
        spec = make_aligned_game(rng, T_max=6)
        assert verify_equivalence(spec) <= 1e-9



def test_verify_equivalence_solves_the_game_once(monkeypatch):
    drawn = make_aligned_game(np.random.default_rng(8), T_max=6)
    spec = with_costs(drawn, drawn.costs)  # the draw's check left it holding a pass
    backward = game_mod._backward
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return backward(*args, **kwargs)

    monkeypatch.setattr(game_mod, "_backward", counted)
    assert verify_equivalence(spec) <= 1e-9
    # one pass on the game itself, then one on the reduced problem
    assert [args[0] is spec for args in calls] == [True, False]


def test_verify_equivalence_rejects_an_uncertified_game():
    # zero control weights leave the curvature [[1, 1], [1, 1]], singular
    costs = cost_schedule([[[1.0]]], [np.zeros((2, 2))], [np.zeros((2, 2))])
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
    with pytest.raises(ThetaNotPDError):
        verify_equivalence(spec)

def test_reduction_invariants_on_aligned_family():
    rng = np.random.default_rng(44)
    for _ in range(6):
        spec = make_aligned_game(rng, T_max=6)
        red = reduce_to_ocp(spec)
        assert len(red.R_bar) == spec.T - 1
        assert len(red.Q_bar) == spec.T - 1
        assert len(red.P_bar) == spec.T - 1
        assert len(red.K_bar_ocp) == spec.T - 1
        for group in (red.R_bar, red.Q_bar, red.P_bar):
            for mat in group:
                assert linalg.cholesky_pd(mat).is_pd


# ------------------------------------------------------- structural oracle

def test_sufficient_structure_detects_matched_ratios():
    check = check_sufficient_structure(_single_input_game())
    assert check.ratio_ok
    assert check.max_p_gap <= 1e-10


def test_sufficient_structure_detects_broken_ratios():
    check = check_sufficient_structure(_single_input_game(r2_scale=1.1))
    assert not check.ratio_ok


def test_sufficient_structure_rejects_wrong_shapes():
    with pytest.raises(WrongStructureError):
        check_sufficient_structure(_single_input_game(b1=0.0))
    # input acting on the second state
    a = [[1.0, 0.0], [0.0, 0.5]]
    q = np.eye(2)
    r1 = np.diag([1.0, 0.0])
    r2 = np.diag([0.0, 1.0])
    costs = cost_schedule([q], [r1], [r2])
    spec = game_spec(a, [[0.5], [0.5]], [[0.5], [0.0]], [1.0, 0.0], costs)
    with pytest.raises(WrongStructureError):
        check_sufficient_structure(spec)
    # off-slot control weight entries; kept PSD so schedule validation
    # accepts it and the structure probe is what rejects
    bad_r1 = np.array([[1.0, 0.2], [0.2, 0.1]])
    costs2 = cost_schedule([q], [bad_r1], [r2])
    spec2 = game_spec(a, [[0.5], [0.0]], [[0.5], [0.0]], [1.0, 0.0], costs2)
    with pytest.raises(WrongStructureError):
        check_sufficient_structure(spec2)
    # two controls per player
    rng = np.random.default_rng(5)
    wide = make_aligned_game(rng, m=2, T=3)
    with pytest.raises(WrongStructureError):
        check_sufficient_structure(wide)


def _failure_text(call):
    try:
        call()
    except (AssumptionViolatedError, ReductionMismatchError) as exc:
        return f"{type(exc).__name__}: {exc}"
    raise AssertionError("no failure")


def test_reduction_failures_name_their_stage():
    # each game below is certified, so the reduction's own checks speak
    r1, r2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    negative_q3 = game_spec([[0.5]], [[1.0]], [[1.0]], [1.0],
                            cost_schedule([[[1.0]], [[-0.05]], [[1.0]]], [r1] * 3, [r2] * 3))
    assert _failure_text(lambda: reduce_to_ocp(negative_q3)) == (
        "AssumptionViolatedError: assumption A1 violated: "
        "state weight at stage 3 is not positive definite")
    # own blocks [[1, 2], [2, 1]] are indefinite; the curvature [[2, 1], [1, 2]] is not
    indefinite_joint = game_spec([[1.0]], [[1.0]], [[-1.0]], [1.0], cost_schedule(
        [[[1.0]]], [[[1.0, 2.0], [2.0, 4.0]]], [[[4.0, 2.0], [2.0, 1.0]]]))
    assert _failure_text(lambda: reduce_to_ocp(indefinite_joint)) == (
        "AssumptionViolatedError: assumption A4 violated: "
        "joint control weight at stage 1 is not positive definite")
    # a stage-2 gain far from the equilibrium one drives the reduced
    # state weight, and with it the stage-1 reduced curvature, negative
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0],
                     cost_schedule([[[1.0]]] * 2, [r1] * 2, [r2] * 2))
    nash = solve_feedback_nash(spec)
    forged = _batch_of(spec, replace(nash, K=(nash.K[0], np.array([[0.0], [10.0]]))))
    assert _failure_text(lambda: potential._reduce(spec, forged, linalg.DEFAULT_TOLERANCES)) == (
        "ReductionMismatchError: reduced curvature at stage 1 is not positive definite "
        "(pivot -9.767e+01)")


def test_reduction_certifies_without_cholesky_pd(monkeypatch):
    # a game that reduces never needs the pure-Python factorization
    def no_cholesky_pd(*args, **kwargs):
        raise AssertionError("cholesky_pd called")

    drawn = [make_aligned_game(np.random.default_rng(seed), T_max=6) for seed in (3, 4)]
    specs = [with_costs(spec, spec.costs) for spec in drawn]  # each solves its own pass
    monkeypatch.setattr(linalg, "cholesky_pd", no_cholesky_pd)
    for spec in specs:
        assert verify_equivalence(spec) <= 1e-9


# ------------------------------------------------------------ screened norms

def _exact_two_norms(stack, ceiling=None, bounds=None):
    """The norms the certify path's screens stand in for, one SVD per matrix.

    Patched in for both screens, it restores the path as it ran before
    them: an SVD of every value-coupling and cross-weight gap that A1 and
    A6 reduce, `_reduce`'s two `> mat_eq` checks on every stage, and
    `verify_equivalence`'s Python `max` over every stage's gain gap."""
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def _certify_outputs(spec):
    """Everything the certify path reports on spec, as JSON text that holds
    each float exactly (NaN as NaN) and each failure as its message."""
    def guard(call):
        try:
            return call()
        except Exception as exc:  # the failure is an output too
            return f"{type(exc).__name__}: {exc}"

    def residual_maxima():
        # each game's exact largest value-coupling gap: the stack depends on
        # neither screen, and its maxima are what the report reduces it to
        stack = game_mod._backward(spec, np.arange(1, spec.T), residuals=True).residuals
        return np.fmax.reduce(np.linalg.norm(stack, 2, axis=(-2, -1)), axis=1, initial=0.0).tolist()

    return json.dumps({
        "report": guard(lambda: check_assumptions(spec, "warn").to_dict()),
        "residuals": guard(residual_maxima),
        "reduction": guard(lambda: [np.stack(f).tolist() for f in vars(reduce_to_ocp(spec)).values()]),
        "equivalence": guard(lambda: verify_equivalence(spec)),
    })


def _dense_aligned_games(count, seed):
    """Aligned games of the benchmark's certify_dense size (n=16, m=4, T=40)."""
    rng = np.random.default_rng(seed)
    return [make_aligned_game(rng, n=16, m=4, T=40, a_norm=1.05) for _ in range(count)]


def test_screened_norms_give_what_exact_norms_give(monkeypatch):
    rng = np.random.default_rng(73)
    specs = ([make_aligned_game(rng) for _ in range(10)] + [make_loose_game(rng) for _ in range(10)]
             + [generate_game(ExperimentConfig(), T, seed) for T in (4, 12) for seed in (0, 1)]
             + [make_padded_failure_game(), _identical_players_game()] + _dense_aligned_games(3, 74))
    screened = [_certify_outputs(spec) for spec in specs]
    monkeypatch.setattr(linalg, "_two_norms", _exact_two_norms)
    monkeypatch.setattr(linalg, "_max_two_norms", _exact_two_norms)
    # copies that hold no pass, so the exact norms are taken, not served
    assert [_certify_outputs(with_costs(spec, spec.costs)) for spec in specs] == screened


def _exact_least_eig(thetas, floor):
    """`potential._least_eig` without its screen: every curvature eigensolved."""
    return min([floor] + np.linalg.eigvalsh(linalg.symmetrize(thetas))[:, 0].tolist())


def test_screened_eigenvalues_give_what_exact_eigenvalues_give(monkeypatch):
    rng = np.random.default_rng(73)
    specs = ([make_aligned_game(rng) for _ in range(10)] + [make_loose_game(rng) for _ in range(10)]
             + [generate_game(ExperimentConfig(), T, seed) for T in (4, 12) for seed in (0, 1)]
             + [make_padded_failure_game(), _identical_players_game(), _late_failure_game()]
             + _dense_aligned_games(3, 74))
    for spec in specs:
        batch = game_mod._backward(spec, np.arange(1, spec.T))
        thetas = potential._rows(batch.theta, np.array([exc is None for exc in batch.failures]))
        least = _exact_least_eig(thetas, math.inf)
        # the screen at, just below and just above the least eigenvalue, and at the true game's
        true_least = _exact_least_eig(batch.theta[-1], math.inf)
        for floor in (least, np.nextafter(least, -math.inf), np.nextafter(least, math.inf), true_least):
            assert potential._least_eig(thetas, floor) == _exact_least_eig(thetas, floor)
    screened = [_certify_outputs(spec) for spec in specs]
    monkeypatch.setattr(potential, "_least_eig", _exact_least_eig)
    assert [_certify_outputs(with_costs(spec, spec.costs)) for spec in specs] == screened


def _counted_matrices(monkeypatch, name) -> list:
    """The number of matrices np.linalg.<name> takes from here on, over all its calls."""
    call = getattr(np.linalg, name)
    count = [0]

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return call(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg._linalg, name, counted)
    monkeypatch.setattr(np.linalg, name, counted)
    return count


def test_check_assumptions_reduces_the_padded_stack_once_on_a_dense_game(monkeypatch):
    # scoring each of the 39 padded games in full took 739 SVDs and 1,677
    # eigensolved matrices (1,521 of them curvatures)
    drawn = _dense_aligned_games(1, 75)[0]
    spec = with_costs(drawn, drawn.costs)  # holds no pass, so the check solves
    svds = _counted_matrices(monkeypatch, "svd")
    eigs = _counted_matrices(monkeypatch, "eigvalsh")
    assert check_assumptions(spec, "warn").overall
    assert 0 < svds[0] <= 150 and 0 < eigs[0] <= 300


def test_check_assumptions_svds_a_third_of_its_matrices_on_a_dense_game(monkeypatch):
    # 39 padded games x 39 stages of value-coupling gaps and of cross-weight
    # gaps, plus A3's and A5's few norms, took 3,072 SVDs before the screens
    drawn = _dense_aligned_games(1, 75)[0]
    spec = with_costs(drawn, drawn.costs)  # holds no pass, so the check solves
    svd = np.linalg.svd
    count = [0]

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg._linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert check_assumptions(spec, "warn").overall
    assert 0 < count[0] <= 3072 // 3
