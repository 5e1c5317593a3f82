"""Structural checks, the single-agent reduction, and their invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from previewnash import (
    ASSUMPTION_IDS,
    AssumptionViolatedError,
    DimensionMismatchError,
    ReductionMismatchError,
    ThetaNotPDError,
    WrongStructureError,
    build_r_potential,
    check_assumptions,
    check_sufficient_structure,
    cost_schedule,
    game_spec,
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


def test_uncertified_padded_games_are_scored_one_at_a_time():
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


# ---------------------------------------------------------------- reduction

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
    q = [[1.0]]
    r = np.eye(2)
    costs = cost_schedule([q, q], [r, r], [r, r])
    spec = game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)
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
    spec = make_aligned_game(np.random.default_rng(8), T_max=6)
    backward = game_mod._backward
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return backward(*args, **kwargs)

    monkeypatch.setattr(game_mod, "_backward", counted)
    assert verify_equivalence(spec) <= 1e-9
    assert len(calls) == 1


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
    forged = replace(nash, K=(nash.K[0], np.array([[0.0], [10.0]])))
    assert _failure_text(lambda: potential._reduce(spec, forged, linalg.DEFAULT_TOLERANCES)) == (
        "ReductionMismatchError: reduced curvature at stage 1 is not positive definite "
        "(pivot -9.767e+01)")


def test_reduction_certifies_without_cholesky_pd(monkeypatch):
    # a game that reduces never needs the pure-Python factorization
    def no_cholesky_pd(*args, **kwargs):
        raise AssertionError("cholesky_pd called")

    specs = [make_aligned_game(np.random.default_rng(seed), T_max=6) for seed in (3, 4)]
    monkeypatch.setattr(linalg, "cholesky_pd", no_cholesky_pd)
    for spec in specs:
        assert verify_equivalence(spec) <= 1e-9
