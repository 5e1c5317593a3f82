"""Random-family generation, sweeps, CSV emission, and the SVG plotter."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from previewnash import (
    AggregateRow,
    AssumptionViolatedError,
    DimensionMismatchError,
    EmptyAggregateError,
    ExperimentConfig,
    InvalidConfigError,
    NotStabilizableError,
    SweepRow,
    ThetaNotPDError,
    ZeroNashCostError,
    check_assumptions,
    check_sufficient_structure,
    compute_tracking_gain,
    emit_csv,
    emit_plot,
    generate_game,
    run_online,
    sweep,
)
from previewnash import cli, experiments
from previewnash import game as game_mod

from conftest import make_padded_failure_game

ROWS_HEADER = ["T", "W", "seed", "pou", "nash_social_cost", "log_rel_pou"]
AGG_HEADER = ["T", "W", "mean_pou", "mean_nash_cost", "log_rel_pou"]


# ------------------------------------------------------------------- config

def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.T_range == (20,)
    assert cfg.W_range == (0, 1, 2, 3, 4, 5, 6)
    assert (cfg.a, cfg.b1, cfg.b2) == (1.6, 0.85, 0.89)
    assert cfg.runs == 100 and cfg.seed == 0
    assert cfg.beta_dist == (10.0, 110.0)
    assert cfg.d_dist == (-110.0, -10.0)
    assert cfg.d_convention == "literal"
    assert cfg.x1 == (1.0, 1.0)


@pytest.mark.parametrize("kwargs", [
    {"T_range": ()},
    {"T_range": (1,)},
    {"W_range": (-1,)},
    {"runs": 0},
    {"seed": -1},
    {"b1": 0.0},
    {"a": math.inf},
    {"beta_dist": (0.0, 5.0)},
    {"beta_dist": (5.0, 5.0)},
    {"l_dist": (2.0, 1.0)},
    {"d_convention": "absolute"},
    {"assumption_mode": "loose"},
    {"x1": (1.0,)},
    {"x1": (1.0, math.nan)},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(**kwargs)


def test_config_round_trip_and_unknown_keys():
    cfg = ExperimentConfig(T_range=[5, 10], runs=3, seed=7, d_convention="magnitude")
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert back.T_range == (5, 10)  # lists are normalized to tuples
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict({"runs": 3, "horizon": 20})
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict([1, 2])


# ----------------------------------------------------------------- drawing

def test_generated_game_fixed_structure():
    g = generate_game(ExperimentConfig(), T=4, seed=0)
    assert g.n == 2 and g.m == 1 and g.T == 4
    assert np.array_equal(g.A, [[1.6, 0.0], [0.0, 0.9]])
    assert np.array_equal(g.B1, [[-0.85], [0.0]])
    assert np.array_equal(g.B2, [[-0.89], [0.0]])
    for t in range(1, 4):
        r1 = g.costs.r(1, t)
        r2 = g.costs.r(2, t)
        assert r1[0, 1] == r1[1, 0] == r1[1, 1] == 0.0
        assert r2[0, 0] == r2[0, 1] == r2[1, 0] == 0.0
        beta = r1[0, 0] / 0.85 ** 2
        assert 10.0 <= beta <= 110.0
        # both players price their control off the same stage scale
        assert r2[1, 1] == pytest.approx(0.89 ** 2 * beta, rel=1e-12)
    for t in range(2, 5):
        q = g.costs.q(t)
        assert 10.0 <= q[0, 0] <= 110.0
        assert q[1, 1] == 0.0
        assert 10.0 <= q[0, 1] <= 110.0  # negated draw from a negative range
        assert q[0, 1] == q[1, 0]


def test_generated_game_is_matched_ratio():
    g = generate_game(ExperimentConfig(), T=8, seed=4)
    check = check_sufficient_structure(g)
    assert check.ratio_ok
    assert check.max_p_gap <= 1e-10


def test_generation_is_deterministic():
    cfg = ExperimentConfig()
    a = generate_game(cfg, T=6, seed=9)
    b = generate_game(cfg, T=6, seed=9)
    assert a.costs.q(3).tobytes() == b.costs.q(3).tobytes()
    assert a.costs.r(1, 2).tobytes() == b.costs.r(1, 2).tobytes()
    c = generate_game(cfg, T=6, seed=10)
    assert a.costs.q(3).tobytes() != c.costs.q(3).tobytes()


def test_longer_horizon_extends_rather_than_reshuffles():
    # stage draws are keyed by (seed, stage), so a longer horizon keeps
    # every earlier stage's weights bit for bit
    cfg = ExperimentConfig()
    short = generate_game(cfg, T=5, seed=2)
    long = generate_game(cfg, T=9, seed=2)
    for t in range(1, 5):
        assert np.array_equal(short.costs.r(1, t), long.costs.r(1, t))
    for t in range(2, 6):
        assert np.array_equal(short.costs.q(t), long.costs.q(t))


def test_d_convention_flips_sign():
    lit = generate_game(ExperimentConfig(), T=3, seed=1)
    mag = generate_game(ExperimentConfig(d_convention="magnitude"), T=3, seed=1)
    assert lit.costs.q(2)[0, 1] > 0.0
    assert mag.costs.q(2)[0, 1] < 0.0
    assert lit.costs.q(2)[0, 1] == pytest.approx(-mag.costs.q(2)[0, 1])


def test_generate_game_argument_validation():
    with pytest.raises(InvalidConfigError):
        generate_game(ExperimentConfig(), T=1, seed=0)
    with pytest.raises(InvalidConfigError):
        generate_game(ExperimentConfig(), T=5, seed=-1)


# ------------------------------------------------------------------- sweeps

def _tiny_config(**kwargs):
    base = dict(T_range=(4,), W_range=(0, 3), runs=2, seed=1)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_sweep_rows_and_aggregates():
    res = sweep(_tiny_config())
    assert len(res.rows) == 4
    assert [(r.T, r.W, r.seed) for r in res.rows] == [(4, 0, 1), (4, 0, 2), (4, 3, 1), (4, 3, 2)]
    assert all(r.error is None for r in res.rows)
    # full-preview cells reproduce the equilibrium exactly
    for r in res.rows:
        if r.W == 3:
            assert r.pou == 0.0
            assert r.log_rel_pou is None
        else:
            # drawn games have indefinite state weights, so the equilibrium
            # cost may take either sign; the log statistic uses magnitudes
            assert r.pou is not None and r.nash_social_cost != 0.0
            assert r.log_rel_pou == pytest.approx(
                math.log(abs(r.pou / r.nash_social_cost)))
    aggs = {(a.T, a.W): a for a in res.aggregates}
    assert set(aggs) == {(4, 0), (4, 3)}
    assert aggs[(4, 3)].mean_pou == 0.0
    assert aggs[(4, 3)].log_rel_pou_of_means is None
    a0 = aggs[(4, 0)]
    assert a0.log_rel_pou_of_means == pytest.approx(
        math.log(abs(a0.mean_pou / a0.mean_nash_cost)))


def test_sweep_is_deterministic():
    a = sweep(_tiny_config())
    b = sweep(_tiny_config())
    assert a.rows == b.rows
    assert a.aggregates == b.aggregates


def test_parallel_sweep_matches_serial():
    cfg = _tiny_config(runs=3)
    assert sweep(cfg, jobs=2).rows == sweep(cfg, jobs=1).rows
    with pytest.raises(InvalidConfigError):
        sweep(cfg, jobs=0)


def test_strict_mode_flags_rows_instead_of_aborting():
    # the drawn state weights are indefinite, so strict validation fails
    # every cell; the sweep must keep the keys and flag each row
    res = sweep(_tiny_config(assumption_mode="strict"))
    assert all(r.error is not None and r.error.startswith("assumption_") for r in res.rows)
    assert all(r.pou is None for r in res.rows)
    for agg in res.aggregates:
        assert agg.mean_pou is None and agg.log_rel_pou_of_means is None
    with pytest.raises(EmptyAggregateError):
        emit_plot(res.aggregates, "W", "/tmp/unused.svg")


def test_zero_start_flags_rows_instead_of_aborting(tmp_path):
    # from x1 = 0 every trajectory stays at zero, so the equilibrium cost is
    # zero and the relative price is undefined in every cell
    cfg = _tiny_config(x1=(0.0, 0.0))
    res = sweep(cfg)
    assert [r.error for r in res.rows] == ["zero_nash_cost"] * 4
    rows_path, _ = emit_csv(res, tmp_path / "lib")
    with open(rows_path, newline="") as fh:
        lines = list(csv.reader(fh))[1:]
    assert len(lines) == 4 and all(line[3:] == ["", "", ""] for line in lines)
    config_path = tmp_path / "zero.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["sweep", "--config", str(config_path), "--out-dir", str(tmp_path / "cli")]) == 0
    assert (tmp_path / "cli" / "rows.csv").read_bytes() == rows_path.read_bytes()


# ---------------------------------------------------------------- CSV files

def test_emit_csv_layout(tmp_path):
    res = sweep(_tiny_config())
    rows_path, agg_path = emit_csv(res, tmp_path / "out")
    assert rows_path.name == "rows.csv" and agg_path.name == "agg.csv"

    with open(rows_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ROWS_HEADER
    assert len(rows) == 1 + len(res.rows)
    for line, r in zip(rows[1:], res.rows):
        assert line[0] == str(r.T) and line[1] == str(r.W) and line[2] == str(r.seed)
        # floats round-trip exactly through the emitted text
        if r.pou is not None:
            assert float(line[3]) == r.pou
        if r.log_rel_pou is None:
            assert line[5] == ""

    with open(agg_path, newline="") as fh:
        aggs = list(csv.reader(fh))
    assert aggs[0] == AGG_HEADER
    assert len(aggs) == 1 + len(res.aggregates)


def test_emit_csv_is_byte_deterministic(tmp_path):
    res_a = sweep(_tiny_config())
    res_b = sweep(_tiny_config())
    pa = emit_csv(res_a, tmp_path / "a")
    pb = emit_csv(res_b, tmp_path / "b")
    for fa, fb in zip(pa, pb):
        assert fa.read_bytes() == fb.read_bytes()


def test_emit_csv_uses_lf_line_endings(tmp_path):
    res = sweep(_tiny_config())
    rows_path, _ = emit_csv(res, tmp_path)
    data = rows_path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


# ------------------------------------------------------------------ plotting

def _fake_aggs():
    return [
        AggregateRow(T=20, W=w, mean_pou=1.0, mean_nash_cost=2.0,
                     log_rel_pou_of_means=-1.0 * w - 2.0)
        for w in range(4)
    ]


def test_emit_plot_writes_svg(tmp_path):
    path = emit_plot(_fake_aggs(), "W", tmp_path / "curve.svg")
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "log relative PoU" in text
    assert "<polyline" in text
    assert text.count("<circle") == 4


def test_emit_plot_single_point_has_marker_but_no_line(tmp_path):
    aggs = [AggregateRow(T=5, W=1, mean_pou=1.0, mean_nash_cost=2.0,
                         log_rel_pou_of_means=-3.0)]
    text = emit_plot(aggs, "T", tmp_path / "one.svg").read_text()
    assert "<circle" in text
    assert "<polyline" not in text


def test_emit_plot_skips_empty_log_values(tmp_path):
    aggs = _fake_aggs() + [AggregateRow(T=20, W=9, mean_pou=0.0,
                                        mean_nash_cost=2.0, log_rel_pou_of_means=None)]
    text = emit_plot(aggs, "W", tmp_path / "skip.svg").read_text()
    assert text.count("<circle") == 4


def test_emit_plot_validates_axis(tmp_path):
    with pytest.raises(ValueError):
        emit_plot(_fake_aggs(), "seed", tmp_path / "bad.svg")
    with pytest.raises(EmptyAggregateError):
        emit_plot([], "W", tmp_path / "empty.svg")


# ------------------------------------------------- one game, every preview

_REFERENCE_TAGS = (
    (ThetaNotPDError, "theta_not_pd"),
    (NotStabilizableError, "not_stabilizable"),
    (ZeroNashCostError, "zero_nash_cost"),
    (np.linalg.LinAlgError, "linalg_error"),
    (DimensionMismatchError, "dimension_mismatch"),
)


def _reference_cell(config, T, W, seed, k_bar):
    """One (T, W, seed) cell on its own: draw, validate, run_online."""
    try:
        spec = experiments.generate_game(config, T, seed)
        if config.assumption_mode == "strict":
            check_assumptions(spec, mode="strict")
        run = run_online(spec, W, K_tracking=k_bar)
    except AssumptionViolatedError as exc:
        return SweepRow(T, W, seed, None, None, None, error=f"assumption_{exc.assumption_id}")
    except tuple(cls for cls, _ in _REFERENCE_TAGS) as exc:
        tag = next(tag for cls, tag in _REFERENCE_TAGS if isinstance(exc, cls))
        return SweepRow(T, W, seed, None, None, None, error=tag)
    lrp = run.log_rel_pou if math.isfinite(run.log_rel_pou) else None
    return SweepRow(T, W, seed, run.pou, run.nash_cost_avg, lrp)


def _reference_sweep(config):
    """Sorted rows of a sweep that plays every cell with its own run_online."""
    try:
        probe = experiments.generate_game(config, min(config.T_range), config.seed)
        k_bar = compute_tracking_gain(probe)
    except NotStabilizableError:
        k_bar = None
    rows = [_reference_cell(config, T, W, config.seed + k, k_bar)
            for T in config.T_range for W in config.W_range for k in range(config.runs)]
    return sorted(rows, key=lambda r: (r.T, r.W, r.seed))


@pytest.mark.parametrize("kwargs, jobs", [
    ({"runs": 10}, 1),
    ({"T_range": (5, 10), "W_range": (0, 1, 3, 12), "runs": 5}, 1),
    ({"runs": 3, "assumption_mode": "strict"}, 1),
    ({"runs": 3, "x1": (0.0, 0.0)}, 1),
    ({"T_range": (5, 10), "W_range": (0, 1, 3, 12), "runs": 3}, 2),
], ids=["defaults", "T_and_W", "strict", "zero_start", "jobs2"])
def test_grouped_sweep_equals_per_cell_runs(kwargs, jobs):
    config = ExperimentConfig(**kwargs)
    res = sweep(config, jobs=jobs)
    ref = _reference_sweep(config)
    assert list(res.rows) == ref
    assert list(res.aggregates) == experiments._aggregate(ref)


@pytest.mark.parametrize("w_range, x1, tags", [
    ((0, 1, 2, 3, 4, 5), 1.0, ["theta_not_pd"] * 4 + [None, None]),
    ((0,), 1.0, ["theta_not_pd"]),
    ((2,), 1.0, ["theta_not_pd"]),
    ((0, 1, 2, 3, 4, 5), 0.0, ["theta_not_pd"] * 4 + ["zero_nash_cost"] * 2),
], ids=["all_W", "only_W0", "only_W2", "zero_start"])
def test_failing_padded_game_fails_only_the_previews_that_meet_it(monkeypatch, w_range, x1, tags):
    # the zero-preview games of steps 2, 3 and 4 fail certification, so a
    # preview W fails iff some step t has min(t + W, 5) in {2, 3, 4}; the
    # others are played from the same single pass
    spec = dataclasses.replace(make_padded_failure_game(), x1=np.array([x1]))
    backward = game_mod._backward
    passes = []

    def counted_backward(*args, **kwargs):
        passes.append(args)
        return backward(*args, **kwargs)

    monkeypatch.setattr(experiments, "generate_game", lambda config, T, seed: spec)
    monkeypatch.setattr(game_mod, "_backward", counted_backward)
    config = ExperimentConfig(T_range=(6,), W_range=w_range, runs=2)
    res = sweep(config)
    assert len(passes) == config.runs
    assert [(r.W, r.error) for r in res.rows if r.seed == 0] == list(zip(w_range, tags))
    assert list(res.rows) == _reference_sweep(config)


@pytest.mark.parametrize("exc, tag", [
    (np.linalg.LinAlgError("Singular matrix"), "linalg_error"),
    (DimensionMismatchError("schedule lengths must match"), "dimension_mismatch"),
], ids=["linalg_error", "dimension_mismatch"])
def test_draw_failure_is_tagged_in_its_own_rows(monkeypatch, exc, tag):
    config = _tiny_config(runs=3)
    clean = sweep(config)
    draw = experiments.generate_game

    def failing(config, T, seed):
        if seed == 2:
            raise exc
        return draw(config, T, seed)

    monkeypatch.setattr(experiments, "generate_game", failing)
    res = sweep(config)
    assert [r.error for r in res.rows if r.seed == 2] == [tag, tag]
    assert [r for r in res.rows if r.seed != 2] == [r for r in clean.rows if r.seed != 2]


def test_solver_failure_is_tagged_in_its_own_rows(monkeypatch):
    config = _tiny_config(runs=3)
    clean = sweep(config)
    backward = game_mod._backward
    failing_game = experiments.generate_game(config, 4, 3)

    def failing(spec, *args, **kwargs):
        if np.array_equal(spec.costs.Q, failing_game.costs.Q):
            raise np.linalg.LinAlgError("Singular matrix")
        return backward(spec, *args, **kwargs)

    monkeypatch.setattr(game_mod, "_backward", failing)
    res = sweep(config)
    assert [r.error for r in res.rows if r.seed == 3] == ["linalg_error"] * 2
    assert [r for r in res.rows if r.seed != 3] == [r for r in clean.rows if r.seed != 3]


@pytest.mark.parametrize("w_range", [(0,), (0, 1, 2, 3, 4, 5, 6), (2, 9, 0, 2)])
def test_sweep_solves_once_per_game_whatever_the_previews(monkeypatch, w_range):
    backward = game_mod._backward
    draw = experiments.generate_game
    passes, draws = [], []

    def counted_backward(spec, known, *args, **kwargs):
        passes.append((spec.T, list(known)))
        return backward(spec, known, *args, **kwargs)

    def counted_draw(config, T, seed):
        draws.append((T, seed))
        return draw(config, T, seed)

    monkeypatch.setattr(game_mod, "_backward", counted_backward)
    monkeypatch.setattr(experiments, "generate_game", counted_draw)
    config = ExperimentConfig(T_range=(5, 8), W_range=w_range, runs=3)
    res = sweep(config)
    assert all(r.error is None for r in res.rows)
    assert len(passes) == config.runs * len(config.T_range)
    assert all(known == list(range(1, T)) for T, known in passes)
    assert len(draws) == config.runs * len(config.T_range) + 1
