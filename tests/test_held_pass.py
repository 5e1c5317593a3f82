"""A spec holds its largest backward pass that kept curvatures over its own
schedule, its tracking gain and its reduction, all in its one cache, keyed
by name and tolerances.

`game._solved` serves a later request from that pass when the tolerances
match, the request keeps nothing but curvatures, and the pass holds every
requested game; `game._kept` serves the gain and the reduction under the
tolerances they were made with.  These tests pin what that saves on the
certify journey, that no output depends on it, and that nothing held is
part of the spec's value.
"""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from previewnash import (
    DEFAULT_TOLERANCES,
    AssumptionViolatedError,
    ExperimentConfig,
    GameSpec,
    NotStabilizableError,
    ReductionMismatchError,
    ThetaNotPDError,
    Tolerances,
    check_assumptions,
    check_sufficient_structure,
    compute_tracking_gain,
    cost_schedule,
    gain_decay_diagnostic,
    game_spec,
    generate_game,
    predict_nash,
    reduce_to_ocp,
    run_online,
    solve_feedback_nash,
    spec_to_dict,
    verify_equivalence,
    with_costs,
)
from previewnash import game as game_mod
from previewnash import linalg, online

from conftest import make_aligned_game, make_loose_game, make_padded_failure_game


def _cold(spec):
    """An equal spec that holds no pass."""
    return with_costs(spec, spec.costs)


def _held_names(spec) -> set:
    """The names of what spec holds, all under the default tolerances."""
    kept = spec._kept_results or {}
    assert all(tol == DEFAULT_TOLERANCES for _, tol in kept)
    return {name for name, _ in kept}


def _dense_game(seed):
    """A cold aligned game of the benchmark's certify_dense size (n=16, m=4, T=40)."""
    return _cold(make_aligned_game(np.random.default_rng(seed), n=16, m=4, T=40, a_norm=1.05))


def _doublings(monkeypatch) -> list:
    """One entry per doubling solve of the tracking gain from here on."""
    doubling = online._doubling_gain
    calls = []

    def counted(spec, tol):
        calls.append(spec)
        return doubling(spec, tol)

    monkeypatch.setattr(online, "_doubling_gain", counted)
    return calls


def _guard(call):
    try:
        return call()
    except Exception as exc:  # a failure is an output too
        return f"{type(exc).__name__}: {exc}"


def _journey(spec_for) -> str:
    """Everything the certify journey reports, as JSON text that holds each
    float exactly; spec_for() gives the spec of each call."""
    return json.dumps({
        "report": _guard(lambda: check_assumptions(spec_for(), "warn").to_dict()),
        "reduction": _guard(lambda: [np.stack(f).tolist()
                                     for f in vars(reduce_to_ocp(spec_for())).values()]),
        "gap": _guard(lambda: verify_equivalence(spec_for())),
        "runs": [_guard(lambda W=W: run_online(spec_for(), W).to_dict()) for W in (0, 1, 2)],
        "decay": [_guard(lambda W=W: gain_decay_diagnostic(spec_for(), W)) for W in (0, 1, 2)],
    })


def test_the_certify_journey_solves_each_padded_game_once(monkeypatch, passes):
    # without held results the journey solved 39 + 2 + 2 + 37 = 80 games and
    # ran the gain's doubling twice; with the pass alone, 39 + 1 + 1 games
    spec = _dense_game(101)
    doublings = _doublings(monkeypatch)
    solved = []
    for call in (lambda: check_assumptions(spec, "warn"), lambda: reduce_to_ocp(spec),
                 lambda: verify_equivalence(spec), lambda: run_online(spec, 2)):
        passes.clear()
        call()
        solved.append(sum(p.games for p in passes))
    assert solved == [39, 1, 0, 0]
    assert len(doublings) == 1


def test_a_run_first_journey_holds_only_curvature_passes(monkeypatch, passes):
    # run_online(W=2) solves the 37 games revealed through 3..39 keeping
    # gains only, and holds none of them; reduce_to_ocp solves and holds the
    # true game, then solves the reduced problem for its values;
    # verify_equivalence reads both, check_assumptions scores all 39
    # zero-preview games in a pass of its own, and a second run reads that
    spec = _dense_game(101)
    doublings = _doublings(monkeypatch)
    solved = []
    for call in (lambda: run_online(spec, 2), lambda: reduce_to_ocp(spec),
                 lambda: verify_equivalence(spec), lambda: check_assumptions(spec, "warn"),
                 lambda: run_online(spec, 2)):
        passes.clear()
        call()
        solved.append([(p.games, set(p.keep)) for p in passes])
    assert solved == [[(37, set())], [(1, {"theta"}), (1, {"values"})], [],
                      [(39, {"theta", "gaps"})], []]
    assert len(doublings) == 1


def test_a_warm_spec_reports_what_fresh_specs_report(passes):
    # drawn aligned and loose games arrive holding the pass of their draw's check or solve
    rng = np.random.default_rng(131)
    specs = ([make_aligned_game(rng) for _ in range(6)] + [make_loose_game(rng) for _ in range(6)]
             + [make_padded_failure_game()] + [_dense_game(seed) for seed in (102, 103, 104)])
    for spec in specs:
        passes.clear()
        warm = _journey(lambda: spec)
        served = sum(p.games for p in passes)
        passes.clear()
        assert warm == _journey(lambda: _cold(spec))
        assert served < sum(p.games for p in passes)


def test_every_held_pass_keeps_curvatures_and_no_gaps_or_values():
    # the calls that keep curvatures hold their pass stripped of the gaps and
    # values they asked for; the calls that keep gains only hold nothing
    rng = np.random.default_rng(163)
    specs = ([make_aligned_game(rng) for _ in range(3)] + [make_loose_game(rng) for _ in range(3)]
             + [generate_game(ExperimentConfig(), T, seed) for T in (5, 12) for seed in (0, 1)])
    calls = [(solve_feedback_nash, True), (lambda s: predict_nash(s, 1, 0), True),
             (lambda s: check_assumptions(s, "warn"), True), (reduce_to_ocp, True),
             (verify_equivalence, True), (check_sufficient_structure, False),
             (lambda s: run_online(s, 1), False), (lambda s: gain_decay_diagnostic(s, 1), False)]
    for spec in specs:
        for call, holds in calls:
            cold = _cold(spec)
            _guard(lambda: call(cold))
            held = (cold._kept_results or {}).get(("pass", DEFAULT_TOLERANCES))
            assert (held is not None) == holds
            if held is not None:
                batch = held[1]
                assert batch.theta is not None and all(x is None for x in (batch.P1, batch.P2, batch.gaps))


def test_a_held_failure_is_raised_as_a_new_error():
    spec = make_padded_failure_game()
    zero = np.zeros((2, 1))
    check_assumptions(spec, "warn")  # solves and holds the five zero-preview games, three failed
    raised = []
    for _ in range(3):
        with pytest.raises(ThetaNotPDError) as info:
            run_online(spec, 0, K_tracking=zero)
        raised.append(info.value)
    with pytest.raises(ThetaNotPDError) as fresh:
        run_online(_cold(spec), 0, K_tracking=zero)
    assert len({id(exc) for exc in raised}) == 3
    assert [(exc.stage, exc.min_pivot, str(exc)) for exc in raised] == \
        [(fresh.value.stage, fresh.value.min_pivot, str(fresh.value))] * 3
    # the held errors are never raised, so they keep no frames alive
    _, held = spec._kept_results["pass", DEFAULT_TOLERANCES]
    assert all(exc is None or exc.__traceback__ is None for exc in held.failures)


def test_a_pass_without_residuals_serves_no_scoring_request(passes):
    spec = _cold(make_aligned_game(np.random.default_rng(137), T=7))
    check_assumptions(spec, "warn")  # holds the six zero-preview games, without their gaps
    passes.clear()
    assert check_assumptions(spec, "warn").to_dict() == check_assumptions(_cold(spec), "warn").to_dict()
    assert [p.games for p in passes] == [6, 6]


def test_a_pass_under_other_tolerances_is_not_served():
    spec = _cold(make_aligned_game(np.random.default_rng(107), T=6))
    assert check_assumptions(spec, "warn").overall  # holds its pass under the default tolerances
    weakest = min(linalg.cholesky_pd(theta).min_pivot
                  for theta in game_mod._backward(spec, [spec.T - 1], keep={"theta"}).theta[0])
    strict = Tolerances(pd_pivot=2.0 * weakest)  # fails the true game at some stage
    assert not check_assumptions(spec, "warn", tol=strict).check("A1").passed
    with pytest.raises(ThetaNotPDError):
        run_online(spec, 0, tol=strict)
    with pytest.raises(ThetaNotPDError):
        verify_equivalence(spec, tol=strict)
    with pytest.raises(ThetaNotPDError):
        gain_decay_diagnostic(spec, 0, tol=strict)
    assert _journey(lambda: spec) == _journey(lambda: _cold(spec))


def test_a_held_pass_is_not_part_of_the_spec():
    spec = make_aligned_game(np.random.default_rng(109))  # its draw's check left it holding a pass
    reduce_to_ocp(spec)  # and the check's gain; now its reduction too
    cold = _cold(spec)
    assert _held_names(spec) == {"pass", "tracking gain", "reduction"} and cold._kept_results is None
    assert spec == cold and spec_to_dict(spec) == spec_to_dict(cold)
    for other in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec),
                  dataclasses.replace(spec), with_costs(spec, spec.costs)):
        assert other == spec and other._kept_results is None


def test_copies_and_other_tolerances_solve_the_gain_and_the_reduction_afresh(monkeypatch, passes):
    spec = _cold(make_aligned_game(np.random.default_rng(139), T=6))
    gain, reduction = compute_tracking_gain(spec), reduce_to_ocp(spec)
    doublings = _doublings(monkeypatch)
    passes.clear()
    assert compute_tracking_gain(spec) is gain and reduce_to_ocp(spec) is reduction
    assert verify_equivalence(spec) == verify_equivalence(_cold(spec))
    assert (len(doublings), sum(p.games for p in passes)) == (0, 2)  # the cold spec's two passes
    others = [pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec),
              dataclasses.replace(spec), with_costs(spec, spec.costs)]
    for other in others:
        doublings.clear()
        passes.clear()
        assert np.array_equal(compute_tracking_gain(other), gain)
        assert vars(reduce_to_ocp(other)).keys() == vars(reduction).keys()
        # the game's pass and the reduced one
        assert (len(doublings), sum(p.games for p in passes)) == (1, 2)
    looser = Tolerances(spectral_margin=1e-3, mat_eq=1e-7)
    doublings.clear()
    passes.clear()
    assert compute_tracking_gain(spec, tol=looser) is not gain
    assert reduce_to_ocp(spec, tol=looser) is not reduction
    assert (len(doublings), sum(p.games for p in passes)) == (1, 2)
    assert compute_tracking_gain(spec) is gain and reduce_to_ocp(spec) is reduction


def test_held_gains_and_reductions_are_read_only():
    spec = _cold(make_aligned_game(np.random.default_rng(149), T=6))
    gain = compute_tracking_gain(spec)
    reduction = reduce_to_ocp(spec)
    run = run_online(spec, 1)
    assert run.K_tracking is gain
    for stack in (gain, *reduction.R_bar, *reduction.Q_bar, *reduction.P_bar, *reduction.K_bar_ocp):
        with pytest.raises(ValueError, match="read-only"):
            stack[...] = 0.0
    assert _journey(lambda: spec) == _journey(lambda: _cold(spec))


def test_a_failing_reduction_is_raised_anew_on_every_call():
    # loose games do not reduce: each raises at the cross-weight or shortcut check
    rng = np.random.default_rng(151)
    for spec in [_cold(make_loose_game(rng, n=2, m=1, T=5)) for _ in range(4)]:
        errors = []
        for call in (reduce_to_ocp, reduce_to_ocp, verify_equivalence, verify_equivalence):
            with pytest.raises((AssumptionViolatedError, ReductionMismatchError)) as info:
                call(spec)
            errors.append(info.value)
        assert len({id(exc) for exc in errors}) == 4
        assert len({str(exc) for exc in errors}) == 1
        assert _held_names(spec) == {"pass"}  # the game's pass, and no reduction


def test_an_unstabilizable_system_is_raised_anew_on_every_call(monkeypatch):
    costs = cost_schedule([[[1.0]]] * 3, [np.diag([1.0, 0.0])] * 3, [np.diag([0.0, 1.0])] * 3)
    spec = game_spec([[2.0]], [[0.0]], [[0.0]], [1.0], costs)  # no input reaches the state
    doublings = _doublings(monkeypatch)
    errors = []
    for call in (compute_tracking_gain, compute_tracking_gain, lambda s: run_online(s, 1)):
        with pytest.raises(NotStabilizableError) as info:
            call(spec)
        errors.append(info.value)
    assert not check_assumptions(spec, "warn").check("A3").passed
    assert len(doublings) == 4 and len({id(exc) for exc in errors}) == 3
    assert len({str(exc) for exc in errors}) == 1 and _held_names(spec) == {"pass"}  # and no gain


def test_a_spec_with_writeable_matrices_holds_no_pass():
    drawn = make_aligned_game(np.random.default_rng(113), T=6)
    spec = GameSpec(drawn.n, drawn.m, drawn.T, drawn.A.copy(), drawn.B1.copy(), drawn.B2.copy(),
                    drawn.x1, drawn.costs)
    check_assumptions(spec, "warn")
    assert spec._kept_results is None
    spec.A[0, 0] += 0.25
    changed = game_spec(spec.A, spec.B1, spec.B2, spec.x1, spec.costs)
    gain = np.zeros((2 * spec.m, spec.n))
    assert run_online(spec, 1, K_tracking=gain).to_dict() == \
        run_online(changed, 1, K_tracking=gain).to_dict()


def test_solver_outputs_are_read_only():
    # a write into any of them would otherwise reach the pass the spec holds
    spec = _cold(make_aligned_game(np.random.default_rng(127), T=6))
    nash = solve_feedback_nash(spec)  # the spec now holds this pass
    red = reduce_to_ocp(spec)  # served from it
    for stack in (*nash.K, *nash.P1, *nash.P2, *red.K_bar_ocp, *red.P_bar):
        with pytest.raises(ValueError, match="read-only"):
            stack[...] = 0.0
    full = spec.T - 1  # every step of a full-preview run tracks the true game, the held one
    assert run_online(spec, full).to_dict() == run_online(_cold(spec), full).to_dict()
    check_assumptions(spec, "warn")  # the spec now holds the scoring pass
    scored = game_mod._solved(spec, np.arange(1, spec.T), keep={"theta", "gaps"})
    for stack in (scored.K, scored.theta, scored.gaps):
        with pytest.raises(ValueError, match="read-only"):
            stack[...] = 0.0
    assert _journey(lambda: spec) == _journey(lambda: _cold(spec))
