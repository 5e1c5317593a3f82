"""Random-family generation, sweeps, CSV emission, and the SVG plotter."""

import concurrent.futures
import csv
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from previewnash import (
    DEFAULT_TOLERANCES,
    AggregateRow,
    DimensionMismatchError,
    EmptyAggregateError,
    ExperimentConfig,
    IndexOutOfRangeError,
    InvalidConfigError,
    NonFiniteCostError,
    NotStabilizableError,
    SweepRow,
    ThetaNotPDError,
    ZeroNashCostError,
    check_assumptions,
    check_sufficient_structure,
    compute_tracking_gain,
    cost_schedule,
    emit_csv,
    emit_plot,
    generate_game,
    predict_nash,
    run_online,
    spec_from_dict,
    spec_to_dict,
    sweep,
)
from previewnash import cli, experiments, linalg, online
from previewnash import game as game_mod

from conftest import make_padded_failure_game, malformed_docs, scalar_draw, traced_peak

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
    {"l_dist": (-1.7e308, 1.7e308)},
    {"d_dist": (-1e308, 1e308)},
    {"b1": 1e200},
    {"b2": 1e154},
    {"b1": 1e150, "beta_dist": (10.0, 1e10)},
    {"d_convention": "absolute"},
    {"x1": (1.0,)},
    {"x1": (1.0, math.nan)},
    {"runs": None},
    {"a": None},
    {"seed": [1]},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"runs": 1.5},
    {"seed": 2.9},
    {"T_range": (20.7,)},
    {"W_range": (0, 1.5)},
    {"runs": math.inf},
    {"T_range": (math.inf,)},
], ids=["runs", "seed", "T_range", "W_range", "runs_inf", "T_inf"])
def test_config_rejects_non_integral_integers(kwargs):
    # int() would truncate these silently
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("call, error", [
    (lambda spec: run_online(spec, "2"), IndexOutOfRangeError),
    (lambda spec: run_online(spec, True), IndexOutOfRangeError),
    (lambda spec: predict_nash(spec, np.True_, 0), IndexOutOfRangeError),
    (lambda spec: ExperimentConfig.from_dict({"runs": "3"}), InvalidConfigError),
    (lambda spec: ExperimentConfig.from_dict({"runs": True}), InvalidConfigError),
    (lambda spec: ExperimentConfig.from_dict({"a": "1.6"}), InvalidConfigError),
    (lambda spec: ExperimentConfig(b1=b"0.85"), InvalidConfigError),
    (lambda spec: ExperimentConfig(seed=np.True_), InvalidConfigError),
    (lambda spec: ExperimentConfig.from_dict({"T_range": ["5"]}), InvalidConfigError),
    (lambda spec: sweep(_tiny_config(), jobs="1"), InvalidConfigError),
    (lambda spec: spec_from_dict({**spec_to_dict(spec), "T": "5"}), DimensionMismatchError),
], ids=["W_text", "W_bool", "t_numpy_bool", "runs_text", "runs_bool", "a_text", "b1_bytes",
        "seed_numpy_bool", "T_range_text", "jobs_text", "declared_T_text"])
def test_text_and_booleans_are_not_numbers(call, error):
    # int() and float() read "2" and True as numbers, but JSON does not
    with pytest.raises(error, match="integer|real"):
        call(generate_game(ExperimentConfig(), 5, 0))


@pytest.mark.parametrize("bad", ["1", b"1", True, np.True_], ids=["str", "bytes", "bool", "numpy_bool"])
@pytest.mark.parametrize("field, pair, message", [
    ("x1", (1.0, 1.0), "x1 must be a pair of reals"),
    ("beta_dist", (10.0, 110.0), r"beta_dist must be a \(low, high\) pair"),
    ("l_dist", (10.0, 110.0), r"l_dist must be a \(low, high\) pair"),
    ("d_dist", (-110.0, -10.0), r"d_dist must be a \(low, high\) pair"),
], ids=["x1", "beta_dist", "l_dist", "d_dist"])
def test_float_pairs_refuse_text_and_booleans(field, pair, message, bad):
    # float() reads "1", b"1" and True as 1.0, but JSON does not
    for k in range(2):
        entries = [*pair[:k], bad, *pair[k + 1:]]
        with pytest.raises(InvalidConfigError, match=message):
            ExperimentConfig(**{field: entries})


def test_config_accepts_integral_floats():
    cfg = ExperimentConfig(runs=10.0, seed=3.0, T_range=(20.0,), W_range=(0.0, 2.0))
    assert (cfg.runs, cfg.seed, cfg.T_range, cfg.W_range) == (10, 3, (20,), (0, 2))
    assert all(type(v) is int for v in (cfg.runs, cfg.seed, *cfg.T_range, *cfg.W_range))


def test_config_dict_lists_every_field_in_declaration_order():
    assert json.dumps(ExperimentConfig().to_dict()) == (
        '{"T_range": [20], "W_range": [0, 1, 2, 3, 4, 5, 6], "a": 1.6, "b1": 0.85, '
        '"b2": 0.89, "runs": 100, "seed": 0, "beta_dist": [10.0, 110.0], '
        '"l_dist": [10.0, 110.0], "d_dist": [-110.0, -10.0], "d_convention": "literal", '
        '"x1": [1.0, 1.0]}')


def test_config_round_trip_and_unknown_keys():
    cfg = ExperimentConfig(T_range=[5, 10], runs=3, seed=7, d_convention="magnitude")
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert back.T_range == (5, 10)  # lists are normalized to tuples
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict({"runs": 3, "horizon": 20})
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict([1, 2])


def test_config_rejects_the_removed_assumption_mode():
    # sweeps only play; a game is checked with check_assumptions or validate
    doc = {**ExperimentConfig().to_dict(), "assumption_mode": "warn"}
    with pytest.raises(InvalidConfigError, match=r"unknown config keys: \['assumption_mode'\]"):
        ExperimentConfig.from_dict(doc)


def test_config_from_dict_ends_malformed_input_in_its_typed_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    doc = ExperimentConfig(T_range=(5, 10), W_range=(0, 2)).to_dict()
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(bad=malformed_docs(st, doc))
    @hypothesis.example(bad={**doc, "x1": [1, 10 ** 400]})
    @hypothesis.example(bad={**doc, "beta_dist": [1, 10 ** 400]})
    def check(bad):
        try:
            ExperimentConfig.from_dict(bad)
        except InvalidConfigError:
            pass

    check()


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
    # a horizon or seed that int() would truncate, or that is no number, is refused too
    for T, seed in ((20.7, 0), (20, 0.9), ("x", 0), (5, "y"), (None, 0), (5, [1])):
        with pytest.raises(InvalidConfigError):
            generate_game(ExperimentConfig(), T, seed)
    assert generate_game(ExperimentConfig(), 5.0, 2.0) == generate_game(ExperimentConfig(), 5, 2)


def _scalar_schedule(config, T, seed):
    """The Q, R1 and R2 stacks of generate_game, built one scalar draw at a time."""
    q, r1, r2 = [], [], []
    for t in range(1, T):
        beta = scalar_draw(seed, t, 0, config.beta_dist)
        r1.append([[config.b1 ** 2 * beta, 0.0], [0.0, 0.0]])
        r2.append([[0.0, 0.0], [0.0, config.b2 ** 2 * beta]])
    for t in range(2, T + 1):
        ell = scalar_draw(seed, t, 1, config.l_dist)
        dee = scalar_draw(seed, t, 2, config.d_dist)
        if config.d_convention == "magnitude":
            dee = abs(dee)
        q.append([[ell, -dee], [-dee, 0.0]])
    return np.array(q), np.array(r1), np.array(r2)


@pytest.mark.parametrize("convention", ["literal", "magnitude"])
@pytest.mark.parametrize("T", [2, 3, 20])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 5, 2 ** 96 + 7])
def test_generated_schedule_is_bitwise_the_scalar_draws(seed, T, convention):
    # seeds of 2^32 and more enter the seed hash as two or more words, and
    # from 2^64 on some words are mixed in after the four-word pool
    config = ExperimentConfig(d_convention=convention)
    costs = generate_game(config, T, seed).costs
    for got, want in zip((costs.Q, costs.R1, costs.R2), _scalar_schedule(config, T, seed)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("convention", ["literal", "magnitude"])
@pytest.mark.parametrize("T", [2, 3, 20])
def test_block_draw_is_bitwise_the_one_seed_draw(T, convention):
    # consecutive seeds that cross 2^32 and 2^64 enter one block with one,
    # two and three seed words
    config = ExperimentConfig(d_convention=convention)
    seeds = list(range(2 ** 32 - 3, 2 ** 32 + 3)) + list(range(2 ** 64 - 4, 2 ** 64 + 2))
    block = experiments._draw_block(config, T, seeds)
    assert len(block) == len(seeds)
    for seed, got in zip(seeds, block):
        want = generate_game(config, T, seed)
        assert got.T == want.T == T
        for field in ("A", "B1", "B2", "x1"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        for field in ("Q", "R1", "R2"):
            assert getattr(got.costs, field).tobytes() == getattr(want.costs, field).tobytes()


def test_vector_draw_is_bitwise_the_scalar_draw():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    reals = st.floats(allow_nan=False, allow_infinity=False)
    # seeds of one to four 32-bit words, so one call hashes several word counts
    seeds = st.one_of(*(st.integers(2 ** (32 * k) if k else 0, 2 ** (32 * k + 32) - 1) for k in range(4)))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(keys=st.lists(st.tuples(seeds, st.integers(0, 2 ** 32 - 1), st.integers(0, 2)),
                                    min_size=1, max_size=6),
                      bounds=st.tuples(reals, reals).filter(lambda b: b[0] < b[1]))
    def check(keys, bounds):
        seeds = [seed for seed, _, _ in keys]
        ts, tags = np.array([key[1:] for key in keys]).T
        try:
            want = [scalar_draw(seed, t, tag, bounds) for seed, t, tag in keys]
            first = [scalar_draw(seeds[0], t, tag, bounds) for t, tag in zip(ts, tags)]
        except OverflowError:  # high - low is not finite
            with pytest.raises(OverflowError):
                experiments._draws(seeds, ts[:, None], tags[:, None], *bounds)
            return
        # one seed per key, then the first seed on every key
        lows, highs = (np.full((len(keys), 1), b) for b in bounds)
        got = experiments._draws(seeds, ts[:, None], tags[:, None], lows, highs)
        assert got.shape == (len(keys), 1) and got.tobytes() == np.array(want).tobytes()
        got = experiments._draws(seeds[:1], ts, tags, lows[:, 0], highs[:, 0])
        assert got.shape == (1, len(keys)) and got.tobytes() == np.array(first).tobytes()

    check()


def test_cached_draw_inputs_are_read_only():
    # every draw shares the cached hash constants and key arrays, so an
    # in-place change to one would change every later draw
    config = ExperimentConfig()
    generate_game(config, 20, 0)
    cached = (*experiments._hash_consts(experiments._INIT_A, experiments._MULT_A, 16),
              *experiments._hash_consts(experiments._INIT_B, experiments._MULT_B, 8),
              *experiments._keys(20, (config.beta_dist, config.l_dist, config.d_dist)))
    assert len(cached) == 8
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_sweep_leaves_numpy_random_unimported(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"T_range": [4], "W_range": [0, 2], "runs": 2}))
    script = ("import sys\n"
              "from previewnash import cli\n"
              f"code = cli.main(['sweep', '--config', {str(config)!r}, '--out-dir', {str(tmp_path)!r}])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert out.stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "rows.csv").exists()


def test_import_leaves_the_process_pool_unimported():
    # only sweep(jobs > 1) starts a pool, so only it imports one
    script = ("import sys\n"
              "import previewnash\n"
              "print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# every public name the package bound before its surface became the layers' __all__
_PACKAGE_NAMES = """
    ASSUMPTION_IDS AggregateRow AssumptionReport AssumptionViolatedError CostDifference
    CostSchedule DEFAULT_TOLERANCES DimensionMismatchError EmptyAggregateError
    ExperimentConfig GameSpec IndexOutOfRangeError InvalidConfigError NashSolution
    NonFiniteCostError NotStabilizableError OcpReduction OnlineRun ReductionMismatchError
    SweepResult SweepRow ThetaNotPDError Tolerances WrongStructureError ZeroNashCostError
    build_r_potential check_assumptions check_sufficient_structure compute_pou
    compute_tracking_gain cost_difference_check cost_schedule emit_csv emit_plot
    evaluate_cost experiments gain_decay_diagnostic game game_spec generate_game linalg
    log_rel_pou nash_from_dict nash_to_dict online pad_schedule potential predict_nash
    reduce_to_ocp run_online simulate solve_feedback_nash spec_from_dict spec_to_dict
    sweep verify_equivalence verify_nash_by_deviation with_costs
""".split()


def test_the_package_exports_each_layers_all():
    import previewnash
    from previewnash import potential

    names = previewnash.__all__
    layers = (game_mod, online, potential, experiments)
    assert len(names) == len(set(names))
    assert set(names) == {"__version__", "Tolerances", "DEFAULT_TOLERANCES",
                          *(name for layer in layers for name in layer.__all__)}
    star = {}
    exec("from previewnash import *", star)
    for name in names:
        assert star[name] is getattr(previewnash, name)
    for name in _PACKAGE_NAMES:
        assert hasattr(previewnash, name), name
    # the benchmark's spans look these functions up by name, among those
    # it wraps from each layer's __all__, and it rebinds the ones that
    # layers import from game, so a deletion fails here first
    traced = {linalg: ("cholesky_pd", "sym_eig", "solve_linear"),
              game_mod: ("solve_feedback_nash", "cost_schedule", "evaluate_cost"),
              online: ("predict_nash", "pad_schedule", "run_online", "compute_tracking_gain"),
              potential: ("check_assumptions", "reduce_to_ocp", "verify_equivalence"),
              experiments: ("generate_game", "sweep", "emit_csv"),
              cli: ("main",)}
    for layer, functions in traced.items():
        for name in functions:
            assert name in layer.__all__ and inspect.isfunction(getattr(layer, name)), name
    for layer, name in ((online, "with_costs"), (potential, "with_costs"),
                        (experiments, "cost_schedule"), (experiments, "game_spec")):
        assert getattr(layer, name) is getattr(game_mod, name), name


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


def test_aggregate_means_stay_finite_where_the_rows_sum_past_the_float_range(tmp_path):
    # each row is finite, but thirty equilibrium costs near 1e307 sum past
    # the float range; their mean does not
    res = sweep(ExperimentConfig(W_range=(0,), runs=30, x1=(4e152, 4e152)))
    costs = [r.nash_social_cost for r in res.rows]
    assert all(r.error is None for r in res.rows) and all(map(math.isfinite, costs))
    assert not math.isfinite(sum(costs))
    (agg,) = res.aggregates
    assert math.isfinite(agg.mean_pou) and math.isfinite(agg.mean_nash_cost)
    assert agg.mean_nash_cost == pytest.approx(math.fsum(c / 30 for c in costs), rel=1e-15)
    assert min(costs) <= agg.mean_nash_cost <= max(costs)
    assert agg.log_rel_pou_of_means == math.log(abs(agg.mean_pou / agg.mean_nash_cost))
    emit_csv(res, tmp_path)  # the sweep's work is written, not lost
    with open(tmp_path / "agg.csv", newline="") as fh:
        assert list(csv.reader(fh))[1][3] == repr(agg.mean_nash_cost)
    assert experiments._mean([1.7976931348623157e308] * 3) == 1.7976931348623157e308


def test_aggregate_means_are_fsum_over_the_count_where_the_sum_fits():
    values = [0.1, 0.2, 0.3, 1e16, -1e16]
    assert experiments._mean(values) == math.fsum(values) / 5


def test_sweep_is_deterministic():
    a = sweep(_tiny_config())
    b = sweep(_tiny_config())
    assert a.rows == b.rows
    assert a.aggregates == b.aggregates


def test_two_jobs_equal_one_job():
    # with jobs=2 each T's runs are split into two blocks of seeds
    config = ExperimentConfig(T_range=(5, 12), W_range=(0, 1, 3, 12), runs=5)
    assert sweep(config, jobs=2) == sweep(config, jobs=1)


def test_one_seed_blocks_equal_the_uncapped_sweep(monkeypatch, passes):
    config = ExperimentConfig(T_range=(5, 10), W_range=(0, 1, 3, 12), runs=5)
    uncapped = sweep(config)
    passes.clear()
    monkeypatch.setattr(experiments, "_BLOCK_FLOATS", 1)
    assert sweep(config) == uncapped
    # a lone spec's pass plays its own schedule
    assert [p.schedules for p in passes] == [1] * (config.runs * len(config.T_range))


def _workers_started(monkeypatch, affinity, cpus) -> list:
    """The worker counts `sweep(config, jobs=64)` starts pools with, for a
    config of 3 one-seed blocks, when this process may run on the CPUs in
    `affinity` (None: a platform without os.sched_getaffinity) and
    os.cpu_count() is `cpus`; no real pool is started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    config = ExperimentConfig(T_range=(5,), W_range=(0, 2), runs=3)
    serial = sweep(config)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    if affinity is None:
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(affinity))
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    assert sweep(config, jobs=64) == serial
    return started


@pytest.mark.parametrize("cpus, workers", [(2, 2), (8, 3), (None, 1)])
def test_worker_count_is_capped_by_blocks_and_cpus(monkeypatch, cpus, workers):
    # None: a platform that reports neither its CPU affinity nor its CPU count
    affinity = None if cpus is None else range(cpus)
    assert _workers_started(monkeypatch, affinity, cpus) == [workers]


def test_worker_count_is_capped_by_the_cpus_this_process_may_run_on(monkeypatch):
    # pinned to one CPU of eight (taskset -c 0), a second worker would only share it
    assert _workers_started(monkeypatch, {0}, 8) == [1]
    # where the platform has no affinity call, the CPU count caps the workers
    assert _workers_started(monkeypatch, None, 8) == [3]


def test_blocks_split_each_horizon_into_jobs_contiguous_runs(monkeypatch):
    config = ExperimentConfig(T_range=(20, 200), runs=5)
    assert experiments._blocks(config, 1) == [(20, range(0, 5)), (200, range(0, 5))]
    assert experiments._blocks(config, 2) == [(20, range(0, 3)), (20, range(3, 5)),
                                              (200, range(0, 3)), (200, range(3, 5))]
    # the stack cap, which sizes a seed at 8 floats per game-stage: 8 * 199^2 at T=200
    monkeypatch.setattr(experiments, "_BLOCK_FLOATS", 2 * 8 * 199 ** 2)
    assert experiments._blocks(config, 1) == [(20, range(0, 5)), (200, range(0, 2)),
                                              (200, range(2, 4)), (200, range(4, 5))]


@pytest.mark.parametrize("seeds", [[4], [4, 5], [0, 1, 2]])
def test_a_block_of_seeds_keeps_no_curvatures(passes, seeds):
    # the play reads gains and failures only, so a block's pass keeps
    # nothing else, a lone seed's too, and no game holds it
    config = ExperimentConfig(W_range=(0, 2))
    games = experiments._draw_block(config, 9, seeds)
    k_bar = online.compute_tracking_gain(games[0])
    online._play_previews(games, config.W_range, k_bar, DEFAULT_TOLERANCES)
    assert len(passes) == 1 and passes[0].games == 8 * len(seeds)  # revealed through 1..8
    assert passes[0].keep == frozenset() and passes[0].batch.theta is None
    assert all("pass" not in {name for name, _ in game._kept_results or {}} for game in games)


def test_horizon_sweep_keeps_its_peak_memory():
    # with one block per T at jobs=1 the peak is about 5.3 MB, and 8.0 MB
    # with each block's curvature stack kept too
    config = ExperimentConfig(T_range=(50, 100, 200), W_range=(1,), runs=2)
    assert traced_peak(lambda: sweep(config)) <= 5.9e6


def test_one_seed_blocks_keep_and_hold_no_curvatures(monkeypatch):
    # one-seed blocks peak at about 2.66 MB, pinned with 0.34 MB to spare;
    # they peaked at 3.93 MB when each kept its curvatures and held its
    # pass on a game the sweep drops
    monkeypatch.setattr(experiments, "_BLOCK_FLOATS", 1)
    config = ExperimentConfig(T_range=(50, 100, 200), W_range=(1,), runs=2)
    assert traced_peak(lambda: sweep(config)) <= 3.0e6


def test_parallel_sweep_matches_serial():
    cfg = _tiny_config(runs=3)
    assert sweep(cfg, jobs=2).rows == sweep(cfg, jobs=1).rows
    with pytest.raises(InvalidConfigError):
        sweep(cfg, jobs=0)


@pytest.mark.parametrize("jobs", [1.5, 0.5, float("nan"), None, "2.5"])
def test_sweep_refuses_non_integral_jobs(jobs):
    # int() would run 1.5 at jobs=1 and report 0.5 as "got 0"
    with pytest.raises(InvalidConfigError, match="jobs must be an integer"):
        sweep(_tiny_config(), jobs=jobs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_overflowing_draw_fails_a1_without_a_warning(seed):
    # at a=1e60 the padded games' values overflow; check_assumptions reports
    # that as a failed A1, and pytest turns any numpy warning into an error
    report = check_assumptions(generate_game(ExperimentConfig(a=1e60), 5, seed), "warn")
    assert not report.check("A1").passed


def test_sweep_computes_the_tracking_gain_per_block(monkeypatch):
    calls = []
    gain = online.compute_tracking_gain

    def counted(*args, **kwargs):
        calls.append(args)
        return gain(*args, **kwargs)

    monkeypatch.setattr(online, "compute_tracking_gain", counted)
    assert all(r.error is None for r in sweep(ExperimentConfig(T_range=(5, 8), runs=3)).rows)
    assert len(calls) == 2  # one block per T
    # (A, B) at a=1e60 is not stabilizable: each block's failed gain tags
    # the rows of every seed of the block
    calls.clear()
    config = ExperimentConfig(a=1e60, T_range=(5, 8), runs=3)
    res = sweep(config)
    assert len(calls) == 2
    assert len(res.rows) == 2 * 7 * 3
    assert {r.error for r in res.rows} == {"not_stabilizable"}
    assert sweep(config, jobs=2) == res


def test_overflowing_gain_tags_rows_without_a_warning():
    # at a=1e200 the doubling step overflows; pytest turns that warning into
    # an error, so the rows are tagged only if the finiteness guard sees it
    res = sweep(ExperimentConfig(a=1e200, T_range=(4,), W_range=(0, 1), runs=2))
    assert [r.error for r in res.rows] == ["not_stabilizable"] * 4


def test_singular_gain_step_tags_every_row_not_stabilizable(monkeypatch):
    # at a=1e10 a step of the tracking-gain solve is singular; each block's
    # NotStabilizableError tags its seeds' rows, none is linalg_error, and
    # the block's one doubling is the only one
    doubling = online._doubling_gain
    calls = []

    def counted(spec, tol):
        calls.append(spec.T)
        return doubling(spec, tol)

    monkeypatch.setattr(online, "_doubling_gain", counted)
    config = ExperimentConfig(a=1e10, T_range=(8, 20), W_range=(0, 1, 3), runs=20)
    res = sweep(config)
    assert calls == [8, 20]
    assert [r.error for r in res.rows] == ["not_stabilizable"] * 120
    assert list(res.rows) == _reference_sweep(config)


def test_previews_past_the_horizon_play_the_full_information_run():
    config = _tiny_config(W_range=(0, 3, 2 ** 63, 10 ** 31))
    rows = sweep(config).rows
    full = [r for r in rows if r.W == 3]
    for W in (2 ** 63, 10 ** 31):
        assert [dataclasses.replace(r, W=3) for r in rows if r.W == W] == full


def _draw_seed_by_seed(monkeypatch, draw):
    """Make every block draw, and so `generate_game`, call draw(config, T, seed)
    for each seed of the block, raising the first error as the block's
    stacked check would.  Returns the unpatched one-seed draw, for draw to call."""
    block = experiments._draw_block
    monkeypatch.setattr(experiments, "_draw_block",
                        lambda config, T, seeds: [draw(config, T, seed) for seed in seeds])
    return lambda config, T, seed: block(config, T, [seed])[0]


def test_failed_gain_tags_rows_after_the_draw(monkeypatch):
    # a seed whose own draw fails keeps that tag; the failed gain tags the rest
    def failing(config, T, seed):
        if seed == 2:
            raise DimensionMismatchError("schedule lengths must match")
        return draw(config, T, seed)

    draw = _draw_seed_by_seed(monkeypatch, failing)
    res = sweep(ExperimentConfig(a=1e60, T_range=(5,), W_range=(0, 1), runs=3))
    assert [(r.seed, r.error) for r in res.rows] == [
        (0, "not_stabilizable"), (1, "not_stabilizable"), (2, "dimension_mismatch")] * 2


def test_failed_draw_of_the_first_seed_tags_only_its_rows(monkeypatch):
    # the first seed's game is the one whose gain a block computes first; its
    # failed draw stays in its own rows and the other seeds play as before
    config = _tiny_config(T_range=(4, 6), runs=3)
    clean = sweep(config)

    first = config.seed

    def failing(config, T, seed):
        if seed == first:
            raise DimensionMismatchError("schedule lengths must match")
        return draw(config, T, seed)

    draw = _draw_seed_by_seed(monkeypatch, failing)
    res = sweep(config)
    assert {r.error for r in res.rows if r.seed == first} == {"dimension_mismatch"}
    assert [r for r in res.rows if r.seed != first] == [r for r in clean.rows if r.seed != first]


def test_failing_sweep_flags_every_row_and_has_nothing_to_plot(tmp_path):
    # from x1 = 0 every cell fails, so no row has a price, every aggregate
    # is empty and there is nothing to plot
    res = sweep(_tiny_config(x1=(0.0, 0.0)))
    assert all(r.error is not None and r.pou is None for r in res.rows)
    for agg in res.aggregates:
        assert agg.mean_pou is None and agg.log_rel_pou_of_means is None
    with pytest.raises(EmptyAggregateError):
        emit_plot(res.aggregates, "W", tmp_path / "unused.svg")
    assert not (tmp_path / "unused.svg").exists()


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


def test_emit_plot_thins_past_twelve_x_values_to_twelve_ticks(tmp_path):
    aggs = [AggregateRow(T=20, W=w, mean_pou=1.0, mean_nash_cost=2.0, log_rel_pou_of_means=-1.0 * w)
            for w in range(20)]
    text = emit_plot(aggs, "W", tmp_path / "many.svg").read_text()
    ticks = re.findall(r'<text [^>]*text-anchor="middle">([^<]*)</text>', text)[:-1]  # less the axis name
    # evenly spaced over the sorted values, both ends kept; every point is still drawn
    assert ticks == ["0", "2", "3", "5", "7", "9", "10", "12", "14", "16", "17", "19"]
    assert text.count("<circle") == 20


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
    (NonFiniteCostError, "non_finite_cost"),
    (np.linalg.LinAlgError, "linalg_error"),
    (DimensionMismatchError, "dimension_mismatch"),
)


def _reference_cell(config, T, W, seed, k_bar):
    """One (T, W, seed) cell on its own: draw, run_online."""
    try:
        spec = experiments.generate_game(config, T, seed)
        run = run_online(spec, W, K_tracking=k_bar)
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
    ({"runs": 3, "x1": (0.0, 0.0)}, 1),
    ({"T_range": (4,), "W_range": (0, 1), "runs": 2, "x1": (1e300, 1e300)}, 1),
    ({"T_range": (5, 10), "W_range": (0, 1, 3, 12), "runs": 3}, 2),
], ids=["defaults", "T_and_W", "zero_start", "overflowing_start", "jobs2"])
def test_grouped_sweep_equals_per_cell_runs(kwargs, jobs):
    config = ExperimentConfig(**kwargs)
    res = sweep(config, jobs=jobs)
    ref = _reference_sweep(config)
    assert list(res.rows) == ref
    assert list(res.aggregates) == experiments._aggregate(ref)


def test_an_overflowing_equilibrium_path_tags_its_rows_as_a_non_finite_cost():
    # every curvature certifies; the paths overflow, which is a cost failure,
    # not a curvature one, and raises no warning
    rows = sweep(ExperimentConfig(x1=(1e308, 1e308), T_range=(5,), W_range=(0, 1), runs=1)).rows
    assert [row.error for row in rows] == ["non_finite_cost"] * 2


def test_every_row_with_a_non_finite_metric_is_tagged():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coordinate = st.one_of(st.floats(-1e308, 1e308), st.sampled_from([1e150, 1e155, -1e160, 1e300]))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(x1=st.tuples(coordinate, coordinate), T=st.integers(3, 6))
    @hypothesis.example(x1=(1e300, 1e300), T=4)
    def check(x1, T):
        for row in sweep(ExperimentConfig(T_range=(T,), W_range=(0, 1, T), runs=2, x1=x1)).rows:
            metrics = [row.pou, row.nash_social_cost, row.log_rel_pou]
            if row.error is None:
                assert all(v is None or math.isfinite(v) for v in metrics), row
                assert row.pou is not None and row.nash_social_cost is not None, row
            else:
                assert metrics == [None] * 3, row

    check()


@pytest.mark.parametrize("w_range, x1, tags", [
    ((0, 1, 2, 3, 4, 5), 1.0, ["theta_not_pd"] * 4 + [None, None]),
    ((0,), 1.0, ["theta_not_pd"]),
    ((2,), 1.0, ["theta_not_pd"]),
    ((0, 1, 2, 3, 4, 5), 0.0, ["theta_not_pd"] * 4 + ["zero_nash_cost"] * 2),
], ids=["all_W", "only_W0", "only_W2", "zero_start"])
def test_failing_padded_game_fails_only_the_previews_that_meet_it(monkeypatch, passes, w_range, x1, tags):
    # the zero-preview games of steps 2, 3 and 4 fail certification, so a
    # preview W fails iff some step t has min(t + W, 5) in {2, 3, 4}; the
    # others are played from the same single pass
    spec = dataclasses.replace(make_padded_failure_game(), x1=np.array([x1]))
    _draw_seed_by_seed(monkeypatch, lambda config, T, seed: spec)
    config = ExperimentConfig(T_range=(6,), W_range=w_range, runs=2)
    res = sweep(config)
    assert len(passes) == len(config.T_range)
    assert [(r.W, r.error) for r in res.rows if r.seed == 0] == list(zip(w_range, tags))
    assert list(res.rows) == _reference_sweep(config)


@pytest.mark.parametrize("w_range", [(0, 2), (0, 2, 5)])
def test_block_mixing_failing_and_clean_seeds_equals_per_cell_runs(monkeypatch, w_range):
    # even seeds draw the padded failure game, which fails W = 0 and 2
    # (and so plays nothing under (0, 2)); odd seeds draw a clean game
    failing = make_padded_failure_game()
    clean = dataclasses.replace(failing, costs=cost_schedule(
        [[[v]] for v in (1.9, 0.4, 0.3, 1.0, 2.0)], failing.costs.R1, failing.costs.R2))
    _draw_seed_by_seed(monkeypatch, lambda config, T, seed: clean if seed % 2 else failing)
    config = ExperimentConfig(T_range=(6,), W_range=w_range, runs=5)
    res = sweep(config)
    assert {r.error for r in res.rows if r.seed % 2} == {None}
    assert list(res.rows) == _reference_sweep(config)


@pytest.mark.parametrize("exc, tag", [
    (np.linalg.LinAlgError("Singular matrix"), "linalg_error"),
    (DimensionMismatchError("schedule lengths must match"), "dimension_mismatch"),
], ids=["linalg_error", "dimension_mismatch"])
def test_draw_failure_is_tagged_in_its_own_rows(monkeypatch, exc, tag):
    config = _tiny_config(runs=3)
    clean = sweep(config)

    def failing(config, T, seed):
        if seed == 2:
            raise exc
        return draw(config, T, seed)

    draw = _draw_seed_by_seed(monkeypatch, failing)
    res = sweep(config)
    assert [r.error for r in res.rows if r.seed == 2] == [tag, tag]
    assert [r for r in res.rows if r.seed != 2] == [r for r in clean.rows if r.seed != 2]


def test_block_whose_check_raises_is_redrawn_seed_by_seed(monkeypatch):
    config = _tiny_config(runs=4)
    clean = sweep(config)
    draws, block = experiments._draws, experiments._draw_block
    blocks = []

    def faulty(seeds, *keys):
        # seed 2's negated beta_1 gives an indefinite R_1^1, which cost_schedule refuses
        out = draws(seeds, *keys)
        out[[seed == 2 for seed in seeds], 0] *= -1.0
        return out

    def counted(config, T, seeds):
        blocks.append(list(seeds))
        return block(config, T, seeds)

    monkeypatch.setattr(experiments, "_draws", faulty)
    monkeypatch.setattr(experiments, "_draw_block", counted)
    res = sweep(config)
    assert blocks == [[1, 2, 3, 4], [1], [2], [3], [4]]  # the block, then its seeds
    assert [r.error for r in res.rows if r.seed == 2] == ["dimension_mismatch"] * len(config.W_range)
    assert [r for r in res.rows if r.seed != 2] == [r for r in clean.rows if r.seed != 2]


def test_sweep_draws_and_checks_each_block_in_one_call(monkeypatch):
    # seeds from 2^32 - 3 have one or two words: per block, one _draws call
    # hashes one group per word count, and one cost_schedule call checks it
    config = ExperimentConfig(T_range=(4, 6), W_range=(0, 1), runs=6, seed=2 ** 32 - 3)
    calls = {"draws": [], "groups": [], "checks": []}

    def counted(name, call, size):
        def wrapper(*args):
            calls[name].append(size(*args))
            return call(*args)
        return wrapper

    monkeypatch.setattr(experiments, "_draws", counted("draws", experiments._draws, lambda s, *_: len(s)))
    monkeypatch.setattr(experiments, "_unit_draws",
                        counted("groups", experiments._unit_draws, lambda w, *_: w.shape))
    monkeypatch.setattr(experiments, "cost_schedule",
                        counted("checks", experiments.cost_schedule, lambda q, *_: len(q)))
    res = sweep(config)
    assert all(r.error is None for r in res.rows)
    assert calls["draws"] == [6, 6]  # one call per block
    assert calls["groups"] == [(3, 1), (3, 2), (3, 1), (3, 2)]
    assert calls["checks"] == [6 * 3, 6 * 5]


def test_solver_failure_is_tagged_in_its_own_rows(monkeypatch):
    config = _tiny_config(runs=3)
    clean = sweep(config)
    backward = game_mod._backward
    failing_game = experiments.generate_game(config, 4, 3)

    def failing(spec, *args, costs=None, **kwargs):
        if any(np.array_equal(c.Q, failing_game.costs.Q) for c in costs or [spec.costs]):
            raise np.linalg.LinAlgError("Singular matrix")
        return backward(spec, *args, costs=costs, **kwargs)

    monkeypatch.setattr(game_mod, "_backward", failing)
    res = sweep(config)
    assert [r.error for r in res.rows if r.seed == 3] == ["linalg_error"] * 2
    assert [r for r in res.rows if r.seed != 3] == [r for r in clean.rows if r.seed != 3]


@pytest.mark.parametrize("w_range", [(0,), (0, 1, 2, 3, 4, 5, 6), (2, 9, 0, 2)])
def test_sweep_solves_once_per_game_whatever_the_previews(monkeypatch, passes, w_range):
    draw = experiments._draw_block
    draws = []

    def counted_draw(config, T, seeds):
        draws.append((T, list(seeds)))
        return draw(config, T, seeds)

    monkeypatch.setattr(experiments, "_draw_block", counted_draw)
    config = ExperimentConfig(T_range=(5, 8), W_range=w_range, runs=3)
    res = sweep(config)
    assert all(r.error is None for r in res.rows)
    # one pass per block of seeds; every seed of it solves the same padded games
    assert len(passes) == len(config.T_range)
    for p in passes:
        assert {tuple(p.known[p.schedule == s]) for s in range(p.schedules)} == {tuple(range(1, p.spec.T))}
    # one draw per block, each (T, seed) in exactly one
    assert len(draws) == len(config.T_range)
    assert sorted((T, seed) for T, seeds in draws for seed in seeds) == [
        (T, config.seed + k) for T in config.T_range for k in range(config.runs)]
