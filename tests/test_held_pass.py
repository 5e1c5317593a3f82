"""A spec holds its largest backward pass over its own schedule.

`game._solved` serves a later request from that pass when the tolerances
match and the pass holds every requested game.  These tests pin what that
saves on the certify journey, that no output depends on it, and that the
held pass is not part of the spec's value.
"""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from previewnash import (
    GameSpec,
    ThetaNotPDError,
    Tolerances,
    check_assumptions,
    gain_decay_diagnostic,
    game_spec,
    reduce_to_ocp,
    run_online,
    solve_feedback_nash,
    spec_to_dict,
    verify_equivalence,
    with_costs,
)
from previewnash import game as game_mod
from previewnash import linalg

from conftest import make_aligned_game, make_loose_game, make_padded_failure_game


def _cold(spec):
    """An equal spec that holds no pass."""
    return with_costs(spec, spec.costs)


def _dense_game(seed):
    """A cold aligned game of the benchmark's certify_dense size (n=16, m=4, T=40)."""
    return _cold(make_aligned_game(np.random.default_rng(seed), n=16, m=4, T=40, a_norm=1.05))


def _counted(monkeypatch) -> list:
    """The size of every `game._backward` pass from here on."""
    backward = game_mod._backward
    games = []

    def counted(spec, known, *args, **kwargs):
        games.append(np.size(known))
        return backward(spec, known, *args, **kwargs)

    monkeypatch.setattr(game_mod, "_backward", counted)
    return games


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


def test_the_certify_journey_solves_each_padded_game_once(monkeypatch):
    # without a held pass the journey solved 39 + 2 + 2 + 37 = 80 games
    spec = _dense_game(101)
    games = _counted(monkeypatch)
    solved = []
    for call in (lambda: check_assumptions(spec, "warn"), lambda: reduce_to_ocp(spec),
                 lambda: verify_equivalence(spec), lambda: run_online(spec, 2)):
        games.clear()
        call()
        solved.append(sum(games))
    assert solved == [39, 1, 1, 0]


def test_a_warm_spec_reports_what_fresh_specs_report(monkeypatch):
    # drawn aligned and loose games arrive holding the pass of their draw's check or solve
    rng = np.random.default_rng(131)
    specs = ([make_aligned_game(rng) for _ in range(6)] + [make_loose_game(rng) for _ in range(6)]
             + [make_padded_failure_game()] + [_dense_game(seed) for seed in (102, 103, 104)])
    games = _counted(monkeypatch)
    for spec in specs:
        games.clear()
        warm = _journey(lambda: spec)
        served = sum(games)
        games.clear()
        assert warm == _journey(lambda: _cold(spec))
        assert served < sum(games)


def test_a_held_failure_is_raised_as_a_new_error():
    spec = make_padded_failure_game()
    zero = np.zeros((2, 1))
    raised = []
    for _ in range(3):  # the first run solves and holds the five zero-preview games, three failed
        with pytest.raises(ThetaNotPDError) as info:
            run_online(spec, 0, K_tracking=zero)
        raised.append(info.value)
    with pytest.raises(ThetaNotPDError) as fresh:
        run_online(_cold(spec), 0, K_tracking=zero)
    assert len({id(exc) for exc in raised}) == 3
    assert [(exc.stage, exc.min_pivot, str(exc)) for exc in raised] == \
        [(fresh.value.stage, fresh.value.min_pivot, str(fresh.value))] * 3
    # the held errors are never raised, so they keep no frames alive
    assert all(exc is None or exc.__traceback__ is None for exc in spec._held[2].failures)


def test_a_pass_without_residuals_serves_no_scoring_request():
    spec = _cold(make_aligned_game(np.random.default_rng(137), T=7))
    run_online(spec, 0)  # holds the six zero-preview games, without residuals
    assert check_assumptions(spec, "warn").to_dict() == check_assumptions(_cold(spec), "warn").to_dict()


def test_a_pass_under_other_tolerances_is_not_served():
    spec = _cold(make_aligned_game(np.random.default_rng(107), T=6))
    assert check_assumptions(spec, "warn").overall  # holds its pass under the default tolerances
    weakest = min(linalg.cholesky_pd(theta).min_pivot
                  for theta in game_mod._backward(spec, [spec.T - 1]).theta[0])
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
    cold = _cold(spec)
    assert spec._held is not None and cold._held is None
    assert spec == cold and spec_to_dict(spec) == spec_to_dict(cold)
    for other in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec),
                  dataclasses.replace(spec)):
        assert other == spec and other._held is None


def test_a_spec_with_writeable_matrices_holds_no_pass():
    drawn = make_aligned_game(np.random.default_rng(113), T=6)
    spec = GameSpec(drawn.n, drawn.m, drawn.T, drawn.A.copy(), drawn.B1.copy(), drawn.B2.copy(),
                    drawn.x1, drawn.costs)
    check_assumptions(spec, "warn")
    assert spec._held is None
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
    scored = game_mod._solved(spec, np.arange(1, spec.T), residuals=True)
    for stack in (scored.K, scored.theta, scored.residuals):
        with pytest.raises(ValueError, match="read-only"):
            stack[...] = 0.0
    assert _journey(lambda: spec) == _journey(lambda: _cold(spec))
