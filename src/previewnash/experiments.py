"""Monte Carlo sweeps over the random two-state family.

Generates games whose scalar inputs act on the first state only with
per-stage control prices r_i,t = b_i^2 * beta_t, so both players share
the same gain-to-price ratio at every stage; runs the preview-limited
online algorithm across (T, W, seed) cells, and writes the results as
CSV tables and a plain SVG chart.  The unit of work is a block of seeds
at one horizon T: the block's games are drawn and checked together, and
handed to `online._play_previews`, the solve, play and price path of
`run_online`, which solves all its games in one stacked backward pass
and plays every preview length of every seed from it.

Random draws are counter-based: each scalar is the uniform draw of
numpy's `default_rng((seed, stage, field))`, so raising T or adding cells
never reshuffles the draws that earlier cells saw.  That keeps the
comparison across preview lengths paired and makes every output
byte-reproducible.  `_draws` computes the draws of every key of a block's
seeds at once, bit for bit, by porting numpy's seed hashing and PCG64 step
to array arithmetic, so no generator object is built and numpy's random
package is never imported.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import game as game_mod
from . import online
from .game import DimensionMismatchError, GameSpec, ThetaNotPDError, cost_schedule, game_spec
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .online import NonFiniteCostError, NotStabilizableError, ZeroNashCostError

__all__ = [
    "InvalidConfigError",
    "EmptyAggregateError",
    "ExperimentConfig",
    "SweepRow",
    "AggregateRow",
    "SweepResult",
    "generate_game",
    "sweep",
    "emit_csv",
    "emit_plot",
]


class InvalidConfigError(ValueError):
    pass


class EmptyAggregateError(ValueError):
    pass


# Field tags for the counter-based generator.  Frozen: changing them would
# silently re-randomize every experiment.
_BETA = 0
_ELL = 1
_DEE = 2


def _scalar(name: str, value, kind: type):
    """value as an int or a float; text, a boolean, a value that does not
    convert, or an int that would have to be truncated, is an InvalidConfigError."""
    try:
        return game_mod._number(value, kind)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfigError(f"{name} must be {'an integer' if kind is int else 'a real'}, "
                                 f"got {value!r}") from exc


def _check_dist(name: str, dist) -> tuple:
    try:
        lo, hi = (game_mod._number(v, float) for v in dist)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfigError(f"{name} must be a (low, high) pair") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise InvalidConfigError(f"{name} must satisfy low < high, got ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise InvalidConfigError(f"{name} must have a finite width, got ({lo}, {hi})")
    return (lo, hi)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition.  Defaults reproduce the two-state example system
    (a=1.6 recharge block, input gains 0.85 and 0.89) with previews 0..6
    at horizon 20."""

    T_range: tuple = (20,)
    W_range: tuple = (0, 1, 2, 3, 4, 5, 6)
    a: float = 1.6
    b1: float = 0.85
    b2: float = 0.89
    runs: int = 100
    seed: int = 0
    beta_dist: tuple = (10.0, 110.0)
    l_dist: tuple = (10.0, 110.0)
    d_dist: tuple = (-110.0, -10.0)
    d_convention: str = "literal"
    x1: tuple = (1.0, 1.0)

    def __post_init__(self):
        try:
            t_range = tuple(game_mod._number(v, int) for v in self.T_range)
            w_range = tuple(game_mod._number(v, int) for v in self.W_range)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfigError("T_range and W_range must be integer sequences") from exc
        if not t_range or not w_range:
            raise InvalidConfigError("T_range and W_range must be non-empty")
        if any(t < 2 for t in t_range):
            raise InvalidConfigError(f"every horizon must be at least 2, got {t_range}")
        if any(w < 0 for w in w_range):
            raise InvalidConfigError(f"preview lengths must be non-negative, got {w_range}")
        object.__setattr__(self, "T_range", t_range)
        object.__setattr__(self, "W_range", w_range)

        for name in ("a", "b1", "b2"):
            v = _scalar(name, getattr(self, name), float)
            if not math.isfinite(v):
                raise InvalidConfigError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.b1 == 0.0 or self.b2 == 0.0:
            raise InvalidConfigError("input gains b1 and b2 must be nonzero")

        runs = _scalar("runs", self.runs, int)
        if runs < 1:
            raise InvalidConfigError(f"runs must be at least 1, got {runs}")
        object.__setattr__(self, "runs", runs)
        seed = _scalar("seed", self.seed, int)
        if seed < 0:
            raise InvalidConfigError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "seed", seed)

        object.__setattr__(self, "beta_dist", _check_dist("beta_dist", self.beta_dist))
        object.__setattr__(self, "l_dist", _check_dist("l_dist", self.l_dist))
        object.__setattr__(self, "d_dist", _check_dist("d_dist", self.d_dist))
        if self.beta_dist[0] <= 0.0:
            raise InvalidConfigError(
                f"beta_dist must be positive (it prices the controls), got {self.beta_dist}"
            )
        for name in ("b1", "b2"):  # the largest control price b_i^2 * beta
            b = getattr(self, name)
            if not math.isfinite(b * b * self.beta_dist[1]):
                raise InvalidConfigError(f"{name}^2 * max(beta_dist) must be finite, got {name}={b}")

        if self.d_convention not in ("literal", "magnitude"):
            raise InvalidConfigError(f"d_convention must be 'literal' or 'magnitude', got {self.d_convention!r}")

        try:
            x1 = tuple(game_mod._number(v, float) for v in self.x1)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfigError("x1 must be a pair of reals") from exc
        if len(x1) != 2 or not all(math.isfinite(v) for v in x1):
            raise InvalidConfigError(f"x1 must be two finite reals, got {self.x1!r}")
        object.__setattr__(self, "x1", x1)

    def to_dict(self) -> dict:
        """Every field in declaration order, tuples as lists."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {unknown}")
        return cls(**data)


# numpy's SeedSequence hash constants and PCG64 multiplier (NEP 19 keeps
# the streams they define stable).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)  # high and low 64 bits
_M32 = 0xFFFFFFFF


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) constants of `count` successive hash calls, read-only
    since every draw shares them."""
    xors, h = [], init
    for _ in range(count + 1):
        xors.append(h)
        h = h * mult & _M32
    return tuple(game_mod._freeze(np.array(v, dtype=np.uint32)) for v in (xors[:-1], xors[1:]))


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x, y):
    value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return value ^ (value >> 16)


def _mul_hi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    lo_lo, hi_lo, lo_hi = a0 * b0, a1 * b0, a0 * b1
    mid = (lo_lo >> 32) + (hi_lo & _M32) + (lo_hi & _M32)
    return a1 * b1 + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _lcg(state: tuple, inc: tuple) -> tuple:
    """One PCG64 step, state * multiplier + inc modulo 2^128."""
    hi, lo = state
    m_hi, m_lo = _PCG_MULT
    product = (_mul_hi(lo, m_lo) + lo * np.uint64(m_hi) + hi * np.uint64(m_lo), lo * np.uint64(m_lo))
    return _add128(product, inc)


def _draws(seeds, ts, tags, lows, highs) -> np.ndarray:
    """`default_rng((seed, t, tag)).uniform(low, high)` for each seed and key, bit for bit.

    The keys are ts and tags, both (K,) if every seed shares them and both
    (S, K) if not; lows and highs broadcast with them.  A port to numpy
    array arithmetic: SeedSequence hashes the entropy words (the seed's
    little-endian 32-bit words, then t and tag) into a pool of four, and
    words past the pool are mixed in after it; the pool gives PCG64's
    128-bit state and increment; one step and the XSL-RR output give 64
    random bits, whose top 53 scale the range.  The seeds of each word
    count share an entropy layout and are hashed together.
    """
    words = [[s >> 32 * k & _M32 for k in range(max(1, -(-s.bit_length() // 32)))] for s in map(int, seeds)]
    ts, tags = np.asarray(ts, dtype=np.uint32), np.asarray(tags, dtype=np.uint32)
    lows, highs = np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)
    span = highs - lows
    if not np.all(np.isfinite(span)):
        raise OverflowError("high - low range exceeds valid bounds")
    counts = [len(w) for w in words]
    unit = np.empty((len(words), ts.shape[-1]))
    for count in sorted(set(counts)):
        rows = np.array(counts) == count
        unit[rows] = _unit_draws(np.array([w for w in words if len(w) == count], dtype=np.uint32),
                                 *(v if v.ndim < 2 else v[rows] for v in (ts, tags)))
    return lows + span * unit


def _unit_draws(words: np.ndarray, ts: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """The (S, K) uniform draws in [0, 1) of each seed whose c words are a row
    of the (S, c) words, on the keys (ts, tags), both (K,) or (S, K)."""
    (seeds, count), keys = words.shape, ts.shape[-1]
    entropy = np.zeros((seeds, keys, max(4, count + 2)), dtype=np.uint32)
    entropy[:, :, :count] = words[:, None]
    entropy[:, :, count], entropy[:, :, count + 1] = ts, tags
    entropy = entropy.reshape(seeds * keys, -1)

    xor, mul = _hash_consts(_INIT_A, _MULT_A, 4 * entropy.shape[1])
    pool = _hashmix(entropy[:, :4], xor[:4], mul[:4])
    for src in range(4):  # every pool word into every other one
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, [src]], xor[k:k + 3], mul[k:k + 3]))
    for i in range(4, count + 2):  # entropy past the pool
        k = 4 * i
        pool = _mix(pool, _hashmix(entropy[:, [i]], xor[k:k + 4], mul[k:k + 4]))

    xor, mul = _hash_consts(_INIT_B, _MULT_B, 8)
    state = np.ascontiguousarray(_hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], xor, mul), dtype="<u4")
    seed_hi, seed_lo, seq_hi, seq_lo = state.view("<u8").T  # word pairs, low word first
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    hi, lo = _lcg(_lcg(_add128(inc, (seed_hi, seed_lo)), inc), inc)
    bits = hi ^ lo
    turn = hi >> 58
    bits = bits >> turn | bits << ((64 - turn) & 63)
    return ((bits >> 11).astype(float) * 2.0 ** -53).reshape(seeds, keys)


def generate_game(config: ExperimentConfig, T: int, seed: int) -> GameSpec:
    """Draw one game at horizon T: the one-seed case of `_draw_block`.

    A = [[a, 0], [0, 0.9]]; each player pushes the first state through a
    negative scalar gain.  Stage weights: r_i,t = b_i^2 * beta_t (one
    shared price scale per stage, which is exactly the matched-ratio
    structure), Q_t = [[l_t, -d_t], [-d_t, 0]].  With d_convention
    "literal" the drawn d_t is used as-is (draws from a negative range
    make the off-diagonal positive); "magnitude" uses |d_t|.  Q_t has a
    zero (2,2) entry, so it is indefinite; validate in warn mode.
    """
    T = _scalar("T", T, int)
    seed = _scalar("seed", seed, int)
    if T < 2:
        raise InvalidConfigError(f"horizon must be at least 2, got {T}")
    if seed < 0:
        raise InvalidConfigError(f"seed must be non-negative, got {seed}")
    return _draw_block(config, T, [seed])[0]


@functools.lru_cache(maxsize=64)
def _keys(T: int, dists: tuple) -> tuple:
    """The (t, tag, low, high) of a game's draws, all frozen: beta_t prices
    stage t's controls (t = 1..T-1); l_t and d_t weigh state x_t (t = 2..T)."""
    stages = np.arange(1, T)
    keys = (np.concatenate((stages, stages + 1, stages + 1)), np.repeat([_BETA, _ELL, _DEE], T - 1),
            *np.repeat(dists, T - 1, axis=0).T)
    return tuple(map(game_mod._freeze, keys))


def _draw_block(config: ExperimentConfig, T: int, seeds: list) -> list:
    """The games `generate_game` draws for each of seeds at horizon T, drawn together.

    One `_draws` call draws every seed's keys and one `cost_schedule` call
    checks the block's stacked Q, R^1 and R^2, so a fault in any seed's
    schedule raises for the block.  The games share one validated (A, B1,
    B2, x1), and each holds its seed's slice of the checked stacks.
    """
    draws = _draws(seeds, *_keys(T, (config.beta_dist, config.l_dist, config.d_dist)))
    beta, ell, dee = draws.reshape(len(seeds), 3, T - 1).swapaxes(0, 1).reshape(3, -1)
    if config.d_convention == "magnitude":
        dee = np.abs(dee)
    q, r1, r2 = np.zeros((3, beta.size, 2, 2))
    r1[:, 0, 0] = config.b1 ** 2 * beta
    r2[:, 1, 1] = config.b2 ** 2 * beta
    q[:, 0, 0] = ell
    q[:, 0, 1] = q[:, 1, 0] = -dee

    costs = cost_schedule(q, r1, r2)
    stacks = (x.reshape(len(seeds), T - 1, 2, 2) for x in (costs.Q, costs.R1, costs.R2))
    parts = [game_mod.CostSchedule(*part) for part in zip(*stacks)]  # each seed's slice, copied
    first = game_spec(A=np.array([[config.a, 0.0], [0.0, 0.9]]), B1=np.array([[-config.b1], [0.0]]),
                      B2=np.array([[-config.b2], [0.0]]), x1=np.array(config.x1), costs=parts[0])
    return [first] + [game_mod.with_costs(first, part) for part in parts[1:]]


@dataclass(frozen=True)
class SweepRow:
    """One (T, W, seed) cell.  Metrics are None when the cell failed
    (error holds a short code) or, for log_rel_pou alone, when the run's
    value is not finite (exact zero price)."""

    T: int
    W: int
    seed: int
    pou: float | None
    nash_social_cost: float | None
    log_rel_pou: float | None
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    """Per-(T, W) means over the successful rows, with the log-ratio of
    the means.  All None when every cell in the group failed."""

    T: int
    W: int
    mean_pou: float | None
    mean_nash_cost: float | None
    log_rel_pou_of_means: float | None


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: tuple
    aggregates: tuple


# Failures that stay local to the rows of the game that raised them.
_ERROR_TAGS = (
    (ThetaNotPDError, "theta_not_pd"),
    (NotStabilizableError, "not_stabilizable"),
    (ZeroNashCostError, "zero_nash_cost"),
    (NonFiniteCostError, "non_finite_cost"),
    (np.linalg.LinAlgError, "linalg_error"),
    (DimensionMismatchError, "dimension_mismatch"),
)
_LOCAL_ERRORS = tuple(cls for cls, _ in _ERROR_TAGS)
# the numerical ones: a bad shape is an input error when it escapes to the CLI
_NUMERICAL_ERRORS = tuple(cls for cls, _ in _ERROR_TAGS if cls is not DimensionMismatchError)


def _error_tag(exc: Exception) -> str:
    return next(tag for cls, tag in _ERROR_TAGS if isinstance(exc, cls))


def _row(T: int, W: int, seed: int, run) -> SweepRow:
    """The row of one run of `online._play_previews`, or of the error its seed
    raised: its price, or the error's tag (a zero or non-finite cost is one too)."""
    if not isinstance(run, Exception):
        try:
            lrp = online.log_rel_pou(*run.price)
            return SweepRow(T, W, seed, *run.price, lrp if math.isfinite(lrp) else None)
        except (ZeroNashCostError, NonFiniteCostError) as exc:
            run = exc
    return SweepRow(T, W, seed, None, None, None, error=_error_tag(run))


# A block of S >= 2 seeds at horizon T keeps a gain stack of S (T-1)^2 2mn
# floats (4 in this family); sized at 8 per game-stage, it stays under 8 MB.
_BLOCK_FLOATS = 2 ** 21


def _blocks(config: ExperimentConfig, jobs: int) -> list:
    """The (T, run indices) work units: each T's runs in `jobs` contiguous
    blocks, cut smaller where a block's stacks would pass _BLOCK_FLOATS."""
    blocks = []
    for T in config.T_range:
        size = min(-(-config.runs // jobs), max(1, _BLOCK_FLOATS // (8 * (T - 1) ** 2)))
        blocks += [(T, range(k, min(k + size, config.runs))) for k in range(0, config.runs, size)]
    return blocks


def _run_block(config: ExperimentConfig, T: int, seeds: list, tol: Tolerances) -> list:
    """The rows of a block of seeds at horizon T, one per (seed, W).

    The block's games are drawn by one `_draw_block` call, and the tracking
    gain is computed from its first game: it depends only on (A, B), which
    every game of a config shares, so a failed gain tags every seed's rows.
    One `online._play_previews` call, the path `run_online` takes for one
    run, then solves, plays and prices the games; a run that meets a game
    failing certification gets that game's error as its tag.  If drawing
    or playing raises, the block is redone one seed at a time, so the
    failure stays in the rows of the seed that raised it.
    """
    try:
        games = _draw_block(config, T, seeds)
        k_bar = online.compute_tracking_gain(games[0], tol=tol)
        runs, _, _ = online._play_previews(games, config.W_range, k_bar, tol)
    except NotStabilizableError as exc:  # only the gain raises it, and it is every seed's
        runs = [[exc] * len(config.W_range)] * len(seeds)
    except _LOCAL_ERRORS as exc:
        if len(seeds) == 1:
            return [_row(T, W, seeds[0], exc) for W in config.W_range]
        return [r for seed in seeds for r in _run_block(config, T, [seed], tol)]
    return [_row(T, W, seed, run)
            for seed, seed_runs in zip(seeds, runs) for W, run in zip(config.W_range, seed_runs)]


def _mean(values: list) -> float:
    """fsum(values) / len(values) of finite values, whose mean is finite even
    where their sum is not: then they are summed scaled by 2^-k, 2^k > len."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        k = len(values).bit_length()
        return math.fsum(math.ldexp(v, -k) for v in values) / len(values) * 2.0 ** k


def _aggregate(rows) -> list:
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.T, r.W), []).append(r)
    out = []
    for (T, W) in sorted(groups):
        ok = [r for r in groups[(T, W)] if r.error is None]
        if not ok:
            out.append(AggregateRow(T, W, None, None, None))
            continue
        mean_pou = _mean([r.pou for r in ok])
        mean_nc = _mean([r.nash_social_cost for r in ok])
        if mean_nc == 0.0 or mean_pou == 0.0:
            lrp = None
        else:
            lrp = math.log(abs(mean_pou / mean_nc))
        out.append(AggregateRow(T, W, mean_pou, mean_nc, lrp))
    return out


def sweep(config: ExperimentConfig, jobs: int = 1, tol: Tolerances | None = None) -> SweepResult:
    """Run every (T, W, run-index) cell and aggregate per (T, W).

    Work is split into blocks of run indices at one T, not into cells (see
    `_blocks`): with jobs=1 a block holds all the runs of a T, and with
    jobs > 1 each T's runs are split into `jobs` contiguous blocks spread
    over worker processes.  Each block's games are drawn together, solved
    in one stacked backward pass, and yield the rows of every W in W_range
    (see `_run_block`); each block computes the tracking gain from its first game.
    A failure stays in the rows of the game that raised it, tagged with a
    short code, rather than aborting the sweep.
    The pool runs at most min(jobs, blocks, CPUs) workers, counting the CPUs
    this process may run on.  Every game's arithmetic is the same whatever
    block it is in, and rows are sorted by (T, W, seed) before aggregation,
    so jobs > 1 changes wall time and nothing else.
    """
    tol = tol or DEFAULT_TOLERANCES
    jobs = _scalar("jobs", jobs, int)
    if jobs < 1:
        raise InvalidConfigError(f"jobs must be at least 1, got {jobs}")

    blocks = [(config, T, [config.seed + k for k in runs], tol) for T, runs in _blocks(config, jobs)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it imports multiprocessing

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(jobs, len(blocks), cpus)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [r for block in pool.map(_run_block, *zip(*blocks)) for r in block]
    else:
        rows = [r for args in blocks for r in _run_block(*args)]

    rows.sort(key=lambda r: (r.T, r.W, r.seed))
    return SweepResult(config=config, rows=tuple(rows), aggregates=tuple(_aggregate(rows)))


_AGG_HEADER = ["T", "W", "mean_pou", "mean_nash_cost", "log_rel_pou"]


def _fmt(v) -> str:
    # repr of a Python float is the shortest decimal that round-trips.
    return "" if v is None else repr(float(v))


def emit_csv(result: SweepResult, out_dir) -> tuple:
    """Write rows.csv and agg.csv under out_dir; returns both paths.

    Failed cells keep their (T, W, seed) key with empty metric fields.
    Output is byte-deterministic for a given result.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "rows.csv"
    agg_path = out / "agg.csv"

    with open(rows_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["T", "W", "seed", "pou", "nash_social_cost", "log_rel_pou"])
        for r in result.rows:
            writer.writerow([r.T, r.W, r.seed, _fmt(r.pou), _fmt(r.nash_social_cost),
                             _fmt(r.log_rel_pou)])

    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_AGG_HEADER)
        for r in result.aggregates:
            writer.writerow([r.T, r.W, _fmt(r.mean_pou), _fmt(r.mean_nash_cost),
                             _fmt(r.log_rel_pou_of_means)])

    return rows_path, agg_path


_SERIES_COLORS = ("#2a6fdb", "#d64545", "#2f9e44", "#9147b0", "#e8841a", "#11808f")

_SVG_W = 640
_SVG_H = 420
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 24
_MARGIN_B = 56


def emit_plot(aggregates, x_axis: str, path) -> Path:
    """Render aggregate curves as a self-contained SVG polyline chart.

    x_axis picks which of T or W runs along the x axis; one series is
    drawn per value of the other variable.  Aggregates without a finite
    log-ratio are skipped; if none remain, raises EmptyAggregateError.
    """
    if x_axis not in ("T", "W"):
        raise ValueError(f"x_axis must be 'T' or 'W', got {x_axis!r}")
    pts = [r for r in aggregates
           if r.log_rel_pou_of_means is not None and math.isfinite(r.log_rel_pou_of_means)]
    if not pts:
        raise EmptyAggregateError("no aggregate rows with a finite log relative PoU")

    other_name = "W" if x_axis == "T" else "T"
    series: dict = {}
    try:
        for r in pts:
            x, key = (float(r.T), float(r.W)) if x_axis == "T" else (float(r.W), float(r.T))
            series.setdefault(key, []).append((x, float(r.log_rel_pou_of_means)))
    except OverflowError:
        raise ValueError("T and W must fit a float") from None
    for key in series:
        series[key].sort()

    xs = [p[0] for pts_ in series.values() for p in pts_]
    ys = [p[1] for pts_ in series.values() for p in pts_]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (0.0 < x_hi - x_lo < math.inf and 0.0 < y_hi - y_lo < math.inf):
        raise ValueError(f"cannot scale x in [{x_lo}, {x_hi}] and y in [{y_lo}, {y_hi}] to a chart")

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(x: float) -> str:
        return f"{_MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w:.2f}"

    def py(y: float) -> str:
        return f"{_MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_MARGIN_L + plot_w}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
    ]

    x_ticks = sorted(set(xs))
    if len(x_ticks) > 12:
        step = (len(x_ticks) - 1) / 11
        x_ticks = [x_ticks[round(i * step)] for i in range(12)]
    for xv in x_ticks:
        xp = px(xv)
        yb = _MARGIN_T + plot_h
        label = f"{xv:g}"
        parts.append(f'<line x1="{xp}" y1="{yb}" x2="{xp}" y2="{yb + 5}" stroke="black"/>')
        parts.append(f'<text x="{xp}" y="{yb + 18}" text-anchor="middle">{label}</text>')
    for i in range(5):
        yv = y_lo + i * (y_hi - y_lo) / 4
        yp = py(yv)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{yp}" x2="{_MARGIN_L}" y2="{yp}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{yp}" text-anchor="end" '
                     f'dominant-baseline="middle">{yv:.2f}</text>')

    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_SVG_H - 14}" '
                 f'text-anchor="middle">{x_axis}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.0f})">log relative PoU</text>')

    for idx, key in enumerate(sorted(series)):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        coords = series[key]
        if len(coords) > 1:
            joined = " ".join(f"{px(x)},{py(y)}" for x, y in coords)
            parts.append(f'<polyline points="{joined}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="{color}"/>')
        ly = _MARGIN_T + 16 + 16 * idx
        lx = _MARGIN_L + plot_w - 6
        parts.append(f'<text x="{lx}" y="{ly}" text-anchor="end" fill="{color}">'
                     f'{other_name}={key:g}</text>')

    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n")
    return out
