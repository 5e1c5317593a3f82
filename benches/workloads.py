"""The three benchmark workloads: inputs, one closed-loop call, output checks.

A workload is driven by a single client that starts call i+1 only after
call i has returned.  Call i draws its inputs from (seed, i) alone, so two
runs with the same seed see the same inputs and no call repeats another's.

* preview_sweep: the paper's drawn family (ExperimentConfig defaults, T=20,
  W in 0..6) through `previewnash sweep`.  Every W of one seed solves the
  same 19 padded schedules, so only 0.136 of the solves are distinct.
* horizon_sweep: the same family at T in {50, 100, 200} with W=1 through
  `previewnash sweep --jobs 2`.  The O(T^2) prediction pass dominates,
  nearly every solve is distinct, and it is the only workload on the
  process-pool path.
* certify_dense: aligned 16-state games through the single-game journey
  check_assumptions -> reduce_to_ocp -> verify_equivalence -> run_online.

All three keep the family's start x1=(1, 1).  The start x1=(0, 0) makes the
equilibrium cost zero and raises ZeroNashCostError out of the whole sweep;
that defect is not covered here.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from previewnash import cli, experiments, game, online, potential
from previewnash.linalg import DEFAULT_TOLERANCES

from dense import draw_dense_game

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Call i of a run at seed s starts its sweep at s * SEED_STRIDE + i * runs,
# which keeps the seeds of different runs and calls apart.
SEED_STRIDE = 100_000


def _recording(tracer, index: int):
    """Spans of the timed part only; output checks run untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.recording(index)


@dataclass
class CallResult:
    seconds: float
    rows: int
    failed: int
    problems: list = field(default_factory=list)


class SweepWorkload:
    """One call is one `previewnash sweep` command, run in process."""

    def __init__(self, name: str, config: experiments.ExperimentConfig, jobs: int,
                 warm_config: experiments.ExperimentConfig, seed: int, out_dir: Path,
                 reference: Path | None):
        self.name = name
        self.config = config
        self.jobs = jobs
        self.warm_config = warm_config
        self.seed = seed
        self.out_dir = out_dir
        self.reference = reference
        self.rows_per_call = len(config.T_range) * len(config.W_range) * config.runs
        self.config_path = out_dir / "config.json"

    def prepare(self) -> None:
        self.config_path.write_text(json.dumps(self.config.to_dict()))
        warm_path = self.out_dir / "warm.json"
        warm_path.write_text(json.dumps(self.warm_config.to_dict()))
        self._sweep(warm_path, self.out_dir / "warm", self.seed * SEED_STRIDE, self.jobs)

    def _sweep(self, config_path: Path, out: Path, seed: int, jobs: int) -> int:
        return cli.main(["sweep", "--config", str(config_path), "--out-dir", str(out),
                         "--seed", str(seed), "--jobs", str(jobs)])

    def call(self, index: int, jobs: int | None = None, tracer=None) -> CallResult:
        jobs = self.jobs if jobs is None else jobs
        seed = self.seed * SEED_STRIDE + index * self.config.runs
        out = self.out_dir / f"call-{index}"
        with _recording(tracer, index):
            start = time.perf_counter()
            try:
                code = self._sweep(self.config_path, out, seed, jobs)
            except Exception:  # a sweep that raises loses its rows, the run goes on
                traceback.print_exc()
                code = None
            seconds = time.perf_counter() - start
        if code != 0:
            shutil.rmtree(out, ignore_errors=True)
            return CallResult(seconds, self.rows_per_call, self.rows_per_call)
        rows = _read_csv(out / "rows.csv")
        problems, failed = self._check_rows(rows, seed)
        problems += _check_aggregates(rows, _read_csv(out / "agg.csv"))
        if self.reference is not None and seed == 0:
            problems += _check_reference(rows, _read_csv(self.reference))
        shutil.rmtree(out)
        return CallResult(seconds, self.rows_per_call, failed, problems)

    def _check_rows(self, rows: list, seed: int) -> tuple[list, int]:
        cfg = self.config
        want = {(T, W, seed + k) for T in cfg.T_range for W in cfg.W_range for k in range(cfg.runs)}
        got = [(int(r["T"]), int(r["W"]), int(r["seed"])) for r in rows]
        problems = []
        if len(got) != len(set(got)) or set(got) != want:
            problems.append(f"{self.name}: rows.csv keys are not the complete (T, W, seed) set")
        failed = 0
        for r in rows:
            pou, nash, lrp = r["pou"], r["nash_social_cost"], r["log_rel_pou"]
            if pou == "" and nash == "" and lrp == "":
                failed += 1  # an error-tagged row
                continue
            try:
                values = [float(pou), float(nash)]
                if lrp != "" or float(pou) != 0.0:
                    values.append(float(lrp))
            except ValueError:
                problems.append(f"{self.name}: malformed row {r}")
                continue
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{self.name}: non-finite metrics in row {r}")
        return problems, failed


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_aggregates(rows: list, agg: list) -> list:
    """agg.csv must equal the per-(T, W) means recomputed from rows.csv."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((int(r["T"]), int(r["W"])), []).append(r)
    by_key = {(int(a["T"]), int(a["W"])): a for a in agg}
    if set(by_key) != set(groups) or len(agg) != len(groups):
        return ["agg.csv cells differ from the (T, W) cells of rows.csv"]
    problems = []
    for key, members in groups.items():
        ok = [r for r in members if r["pou"] != ""]
        a = by_key[key]
        if not ok:
            if any(a[f] != "" for f in ("mean_pou", "mean_nash_cost", "log_rel_pou")):
                problems.append(f"agg.csv cell {key} has values but no successful rows")
            continue
        mean_pou = math.fsum(float(r["pou"]) for r in ok) / len(ok)
        mean_nc = math.fsum(float(r["nash_social_cost"]) for r in ok) / len(ok)
        if not (_close(float(a["mean_pou"]), mean_pou) and _close(float(a["mean_nash_cost"]), mean_nc)):
            problems.append(f"agg.csv cell {key} differs from the mean of its rows")
            continue
        if mean_pou == 0.0:
            if a["log_rel_pou"] != "":
                problems.append(f"agg.csv cell {key} has a log ratio at zero mean price")
        elif not _close(float(a["log_rel_pou"]), math.log(abs(mean_pou / mean_nc)), 1e-9):
            problems.append(f"agg.csv cell {key} log ratio differs from its means")
    return problems


def _check_reference(rows: list, ref: list) -> list:
    """|pou - pou_ref| <= 1e-9 * nash_ref on every row of the recorded table.

    A tolerance rather than byte equality, so that a change that reorders
    the arithmetic (batching, say) may drift in the last bits.
    """
    ref_by_key = {(r["T"], r["W"], r["seed"]): r for r in ref}
    got_by_key = {(r["T"], r["W"], r["seed"]): r for r in rows}
    if set(ref_by_key) != set(got_by_key):
        return ["rows.csv keys differ from the reference table"]
    problems = []
    for key, r in ref_by_key.items():
        g = got_by_key[key]
        nash_ref = float(r["nash_social_cost"])
        tol = 1e-9 * abs(nash_ref)
        if g["pou"] == "" or abs(float(g["pou"]) - float(r["pou"])) > tol \
                or abs(float(g["nash_social_cost"]) - nash_ref) > tol:
            problems.append(f"row {key} differs from the reference table")
    return problems


class CertifyWorkload:
    """One call is one dense game through validate, reduce and run."""

    rows_per_call = 1
    jobs = 1

    def __init__(self, n: int, m: int, T: int, W: int, warm_size: tuple, seed: int):
        self.name = "certify_dense"
        self.size = (n, m, T)
        self.W = W
        self.warm_size = warm_size
        self.seed = seed

    def prepare(self) -> None:
        self._journey(draw_dense_game(self.seed, 0, *self.warm_size))

    def _journey(self, raw: dict):
        costs = game.cost_schedule(raw["Q"], raw["R1"], raw["R2"])
        spec = game.game_spec(raw["A"], raw["B1"], raw["B2"], raw["x1"], costs)
        report = potential.check_assumptions(spec, mode="warn")
        potential.reduce_to_ocp(spec)
        gap = potential.verify_equivalence(spec)
        run = online.run_online(spec, self.W)
        return spec, report, gap, run

    def call(self, index: int, jobs: int | None = None, tracer=None) -> CallResult:
        raw = draw_dense_game(self.seed, index, *self.size)
        with _recording(tracer, index):
            start = time.perf_counter()
            try:
                spec, report, gap, run = self._journey(raw)
            except Exception:  # a failed journey counts as failed, the run goes on
                traceback.print_exc()
                return CallResult(time.perf_counter() - start, 1, 1)
            seconds = time.perf_counter() - start
        return CallResult(seconds, 1, 0, _check_certified(spec, report, gap, run, index))


def _check_certified(spec, report, gap: float, run, index: int) -> list:
    problems = []
    where = f"certify_dense game {index}"
    if not report.overall:
        failing = [c.id for c in report.checks if not c.passed]
        problems.append(f"{where}: assumptions {failing} failed")
    if not gap <= DEFAULT_TOLERANCES.mat_eq:
        problems.append(f"{where}: equivalence gap {gap:.3e} above mat_eq")
    if not (math.isfinite(run.pou) and run.nash_cost_avg > 0.0):
        problems.append(f"{where}: online run has pou {run.pou} and cost {run.nash_cost_avg}")
    nash = game.solve_feedback_nash(spec)
    eye = np.eye(spec.m)
    for player in (1, 2):
        for dev in (*eye, *-eye, 0.1 * np.ones(spec.m)):
            check = game.verify_nash_by_deviation(spec, nash, 1, player, dev)
            slack = 1e-9 * max(1.0, abs(check.cost_at_nash))
            if check.cost_deviated < check.cost_at_nash - slack:
                problems.append(f"{where}: stage-1 deviation {dev} profits player {player}")
    return problems


def make_workload(name: str, seed: int, out_dir: Path, smoke: bool, nproc: int):
    """Full-size workloads, or tiny ones with `smoke` (no reference check)."""
    base = experiments.ExperimentConfig
    if name == "preview_sweep":
        config = base(T_range=(6,), W_range=(0, 1, 2), runs=2) if smoke else base(runs=10)
        warm = base(T_range=(6,), W_range=(0, 1), runs=1)
        return SweepWorkload(name, config, 1, warm, seed, out_dir,
                             None if smoke else REFERENCE_DIR / "preview_sweep.csv")
    if name == "horizon_sweep":
        t_range = (8, 12) if smoke else (50, 100, 200)
        config = base(T_range=t_range, W_range=(1,), runs=1 if smoke else 2)
        warm = base(T_range=(8,), W_range=(1,), runs=2)
        return SweepWorkload(name, config, min(2, nproc), warm, seed, out_dir,
                             None if smoke else REFERENCE_DIR / "horizon_sweep.csv")
    if name == "certify_dense":
        size = (4, 2, 6) if smoke else (16, 4, 40)
        return CertifyWorkload(*size, W=2, warm_size=(4, 2, 6), seed=seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("preview_sweep", "horizon_sweep", "certify_dense")
