"""Tests of the benchmark harness itself: python3 -m pytest benches -q

They pin the counts that the traced run must reproduce exactly, the
completeness of the function rebinding, the output checks, and that a
smoke run prints every metric of BENCHMARK.json with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import previewnash  # noqa: E402
from previewnash import experiments, game, online  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from dense import draw_dense_game  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_namespace_holding_a_public_function_is_rebound():
    originals = {
        ("previewnash.experiments", "cost_schedule"): game.cost_schedule,
        ("previewnash.experiments", "game_spec"): game.game_spec,
        ("previewnash.online", "with_costs"): game.with_costs,
        ("previewnash.potential", "with_costs"): game.with_costs,
        ("previewnash", "solve_feedback_nash"): game.solve_feedback_nash,
        ("previewnash", "run_online"): online.run_online,
        ("previewnash.linalg", "cholesky_pd"): previewnash.linalg.cholesky_pd,
    }
    layers = [sys.modules[f"previewnash.{layer}"] for layer in
              ("linalg", "game", "online", "potential", "experiments", "cli")]
    public = {id(getattr(mod, a)) for mod in layers for a in mod.__all__
              if callable(getattr(mod, a)) and not isinstance(getattr(mod, a), type)}
    package = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "previewnash"]
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(sys.modules[mod], attr) is not fn
        leftover = [(mod.__name__, attr) for mod in package
                    for attr, value in vars(mod).items() if id(value) in public]
        assert leftover == []
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn


def _traced(workload):
    tracer = Tracer()
    result = workload.call(0, jobs=1, tracer=tracer)
    assert result.problems == [] and result.failed == 0
    return tracer.layer_metrics(result.rows)


def test_preview_sweep_solves_twenty_schedules_per_row_nineteen_distinct_per_seed(tmp_path):
    config = experiments.ExperimentConfig(runs=1)
    wl = workloads.SweepWorkload("preview_sweep", config, 1, config, 0, tmp_path, None)
    wl.config_path.write_text(json.dumps(config.to_dict()))
    m = _traced(wl)
    assert m["game.solve_feedback_nash.calls_per_op"] == 20
    assert m["online.predict_nash.calls_per_op"] == 19
    assert m["game.unique_solve_frac"] == 19 / 140
    assert m["potential.check_assumptions.solves_per_call"] == 0


def test_horizon_sweep_solves_are_nearly_all_distinct(tmp_path):
    config = experiments.ExperimentConfig(T_range=(50,), W_range=(1,), runs=1)
    wl = workloads.SweepWorkload("horizon_sweep", config, 1, config, 0, tmp_path, None)
    wl.config_path.write_text(json.dumps(config.to_dict()))
    m = _traced(wl)
    assert m["game.solve_feedback_nash.calls_per_op"] == 50
    assert m["game.unique_solve_frac"] == 48 / 50


def test_certify_dense_game_solves_83_schedules_39_distinct():
    wl = workloads.CertifyWorkload(16, 4, 40, W=2, warm_size=(4, 2, 6), seed=0)
    m = _traced(wl)
    assert m["game.solve_feedback_nash.calls_per_op"] == 83
    assert m["game.unique_solve_frac"] == 39 / 83
    assert m["potential.check_assumptions.solves_per_call"] == 40
    assert m["online.predict_nash.calls_per_op"] == 39
    assert all(m[f"{layer}.errors"] == 0 for layer in ("linalg", "game", "online", "potential"))


def test_dense_draw_depends_on_seed_and_index_only():
    a = draw_dense_game(3, 5, 8, 2, 6)
    b = draw_dense_game(3, 5, 8, 2, 6)
    c = draw_dense_game(3, 6, 8, 2, 6)
    assert all(np.array_equal(x, y) for x, y in zip(a["Q"], b["Q"]))
    assert not np.array_equal(a["A"], c["A"])
    assert abs(np.linalg.norm(a["A"], 2) - 1.05) < 1e-12


def test_a_sweep_that_raises_counts_all_its_rows_as_failed(tmp_path):
    # x1 = (0, 0) gives zero equilibrium cost, which aborts the whole sweep
    config = experiments.ExperimentConfig(T_range=(4,), W_range=(0, 1), runs=2, x1=(0.0, 0.0))
    wl = workloads.SweepWorkload("preview_sweep", config, 1, config, 0, tmp_path, None)
    wl.config_path.write_text(json.dumps(config.to_dict()))
    result = wl.call(0)
    assert (result.rows, result.failed, result.problems) == (4, 4, [])


def _rows(pous):
    return [{"T": "5", "W": "0", "seed": str(i), "pou": repr(p), "nash_social_cost": "-2.0",
             "log_rel_pou": repr(float(np.log(abs(p / 2.0))))} for i, p in enumerate(pous)]


def test_aggregate_check_recomputes_the_means():
    rows = _rows([0.5, 1.5])
    agg = [{"T": "5", "W": "0", "mean_pou": "1.0", "mean_nash_cost": "-2.0",
            "log_rel_pou": repr(float(np.log(0.5)))}]
    assert workloads._check_aggregates(rows, agg) == []
    agg[0]["mean_pou"] = "1.0000001"
    assert workloads._check_aggregates(rows, agg)


def test_reference_check_allows_last_bit_drift_only():
    ref = _rows([0.5, 1.5])
    drift = _rows([0.5 + 1e-12, 1.5])
    assert workloads._check_reference(drift, ref) == []
    off = _rows([0.5 + 1e-6, 1.5])
    assert workloads._check_reference(off, ref)


def test_a_failed_output_check_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "_check_certified", lambda *a: ["forced"])
    code = run.main(["--workload", "certify_dense", "--seed", "0", "--seconds", "0.1", "--smoke"])
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK FAILED: forced" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines[:-1]), name
