"""Monte Carlo sweeps over the random two-state family.

Generates games whose scalar inputs act on the first state only with
per-stage control prices r_i,t = b_i^2 * beta_t, so both players share
the same gain-to-price ratio at every stage; runs the preview-limited
online algorithm across (T, W, seed) cells, and writes the results as
CSV tables and a plain SVG chart.  The unit of work is one (T, seed)
game: it is drawn, validated and solved once, and every preview length
is played from that one solve.

Random draws are counter-based: each scalar comes from its own generator
keyed by (seed, stage, field), so raising T or adding cells never
reshuffles the draws that earlier cells saw.  That keeps the comparison
across preview lengths paired and makes every output byte-reproducible.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import game as game_mod
from . import online, potential
from .game import DimensionMismatchError, GameSpec, ThetaNotPDError, cost_schedule, game_spec
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .online import NotStabilizableError, ZeroNashCostError
from .potential import AssumptionViolatedError

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

_CONFIG_KEYS = (
    "a", "b1", "b2", "T_range", "W_range", "runs", "seed",
    "beta_dist", "l_dist", "d_dist", "d_convention", "assumption_mode", "x1",
)


def _check_dist(name: str, dist) -> tuple:
    try:
        lo, hi = (float(v) for v in dist)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{name} must be a (low, high) pair") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise InvalidConfigError(f"{name} must satisfy low < high, got ({lo}, {hi})")
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
    assumption_mode: str = "warn"
    x1: tuple = (1.0, 1.0)

    def __post_init__(self):
        try:
            t_range = tuple(int(v) for v in self.T_range)
            w_range = tuple(int(v) for v in self.W_range)
        except (TypeError, ValueError) as exc:
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
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidConfigError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.b1 == 0.0 or self.b2 == 0.0:
            raise InvalidConfigError("input gains b1 and b2 must be nonzero")

        runs = int(self.runs)
        if runs < 1:
            raise InvalidConfigError(f"runs must be at least 1, got {runs}")
        object.__setattr__(self, "runs", runs)
        seed = int(self.seed)
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

        if self.d_convention not in ("literal", "magnitude"):
            raise InvalidConfigError(f"d_convention must be 'literal' or 'magnitude', got {self.d_convention!r}")
        if self.assumption_mode not in ("warn", "strict"):
            raise InvalidConfigError(f"assumption_mode must be 'warn' or 'strict', got {self.assumption_mode!r}")

        try:
            x1 = tuple(float(v) for v in self.x1)
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError("x1 must be a pair of reals") from exc
        if len(x1) != 2 or not all(math.isfinite(v) for v in x1):
            raise InvalidConfigError(f"x1 must be two finite reals, got {self.x1!r}")
        object.__setattr__(self, "x1", x1)

    def to_dict(self) -> dict:
        return {
            "T_range": list(self.T_range),
            "W_range": list(self.W_range),
            "a": self.a,
            "b1": self.b1,
            "b2": self.b2,
            "runs": self.runs,
            "seed": self.seed,
            "beta_dist": list(self.beta_dist),
            "l_dist": list(self.l_dist),
            "d_dist": list(self.d_dist),
            "d_convention": self.d_convention,
            "assumption_mode": self.assumption_mode,
            "x1": list(self.x1),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {unknown}")
        return cls(**data)


def _draw(seed: int, t: int, tag: int, dist: tuple) -> float:
    rng = np.random.default_rng((seed, t, tag))
    return float(rng.uniform(dist[0], dist[1]))


def generate_game(config: ExperimentConfig, T: int, seed: int) -> GameSpec:
    """Draw one game at horizon T.

    A = [[a, 0], [0, 0.9]]; each player pushes the first state through a
    negative scalar gain.  Stage weights: r_i,t = b_i^2 * beta_t (one
    shared price scale per stage, which is exactly the matched-ratio
    structure), Q_t = [[l_t, -d_t], [-d_t, 0]].  With d_convention
    "literal" the drawn d_t is used as-is (draws from a negative range
    make the off-diagonal positive); "magnitude" uses |d_t|.  Q_t has a
    zero (2,2) entry, so it is indefinite; validate in warn mode.
    """
    T = int(T)
    seed = int(seed)
    if T < 2:
        raise InvalidConfigError(f"horizon must be at least 2, got {T}")
    if seed < 0:
        raise InvalidConfigError(f"seed must be non-negative, got {seed}")

    a_mat = np.array([[config.a, 0.0], [0.0, 0.9]])
    b1 = np.array([[-config.b1], [0.0]])
    b2 = np.array([[-config.b2], [0.0]])

    r1_list = []
    r2_list = []
    for t in range(1, T):
        beta = _draw(seed, t, _BETA, config.beta_dist)
        r1_list.append(np.array([[config.b1 ** 2 * beta, 0.0], [0.0, 0.0]]))
        r2_list.append(np.array([[0.0, 0.0], [0.0, config.b2 ** 2 * beta]]))
    q_list = []
    for t in range(2, T + 1):
        ell = _draw(seed, t, _ELL, config.l_dist)
        dee = _draw(seed, t, _DEE, config.d_dist)
        if config.d_convention == "magnitude":
            dee = abs(dee)
        q_list.append(np.array([[ell, -dee], [-dee, 0.0]]))

    costs = cost_schedule(q_list, r1_list, r2_list)
    return game_spec(A=a_mat, B1=b1, B2=b2, x1=np.array(config.x1), costs=costs)


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
    (np.linalg.LinAlgError, "linalg_error"),
    (DimensionMismatchError, "dimension_mismatch"),
)
_LOCAL_ERRORS = (AssumptionViolatedError, *(cls for cls, _ in _ERROR_TAGS))


def _error_tag(exc: Exception) -> str:
    if isinstance(exc, AssumptionViolatedError):
        return f"assumption_{exc.assumption_id}"
    return next(tag for cls, tag in _ERROR_TAGS if isinstance(exc, cls))


def _row(T: int, W: int, seed: int, pou: float, social: float) -> SweepRow:
    lrp = online.log_rel_pou(pou, social)
    return SweepRow(T, W, seed, pou, social, lrp if math.isfinite(lrp) else None)


def _run_group(config: ExperimentConfig, T: int, run_index: int,
               k_bar, tol: Tolerances) -> list:
    """The rows of one (T, seed) game, one per preview length in W_range.

    The game is drawn and validated once, and its T-1 zero-preview padded
    games are solved in one pass: under preview W, step t plays the game
    revealed through min(t+W, T-1), so every W reads its predictions off
    that one set and all W are tracked together (`online._play`).  Every W
    is priced against the last game, the true one.  Only the W that play a
    game failing certification fail with it.  A failure before the pass
    fails every row of the seed, and one after it every row played.
    """
    seed = config.seed + run_index
    w_range = config.W_range
    rows = {}
    try:
        spec = generate_game(config, T, seed)
        if config.assumption_mode == "strict":
            potential.check_assumptions(spec, mode="strict", tol=tol)
        if k_bar is None:
            k_bar = online.compute_tracking_gain(spec, tol=tol)
        pred = game_mod._backward(spec, np.arange(1, T), tol)
        for W in w_range:  # preview W plays the games revealed through min(1+W, T-1)..T-1
            exc = next(filter(None, pred.failures[min(W, T - 2):]), None)
            if exc is not None:
                rows[W] = SweepRow(T, W, seed, None, None, None, error=_error_tag(exc))
        played = [W for W in w_range if W not in rows]
        if played:  # all the games they play are certified
            x_pred, u_pred = game_mod._equilibrium_paths(spec, pred.K[min(min(played), T - 2):])
            xs, us = online._play(spec, x_pred, u_pred, played, k_bar)
            nash_costs = online._costs(spec, x_pred[-1], u_pred[-1])
            for W, x, u in zip(played, xs, us):
                rows[W] = _row(T, W, seed, *online._price(online._costs(spec, x, u), nash_costs))
    except _LOCAL_ERRORS as exc:
        rows = {W: SweepRow(T, W, seed, None, None, None, error=_error_tag(exc)) for W in w_range} | rows
    return [rows[W] for W in w_range]


def _group_task(args) -> list:
    return _run_group(*args)


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
        mean_pou = math.fsum(r.pou for r in ok) / len(ok)
        mean_nc = math.fsum(r.nash_social_cost for r in ok) / len(ok)
        if mean_nc == 0.0 or mean_pou == 0.0:
            lrp = None
        else:
            lrp = math.log(abs(mean_pou / mean_nc))
        out.append(AggregateRow(T, W, mean_pou, mean_nc, lrp))
    return out


def sweep(config: ExperimentConfig, jobs: int = 1, tol: Tolerances | None = None) -> SweepResult:
    """Run every (T, W, run-index) cell and aggregate per (T, W).

    Work is split by (T, run-index) game, not by cell: each game is drawn,
    validated and solved once (one backward pass over its T-1 zero-preview
    padded games) and yields the rows of every W in W_range (see
    `_run_group`); with jobs > 1 the games are spread over worker
    processes.  A failure stays in the rows of the game that raised it,
    tagged with a short code.  The tracking gain depends only on (A, B),
    which the whole sweep shares, so it is computed once up front from a
    probe game; if that fails each game computes it again, and a game that
    fails too has its rows flagged rather than aborting the sweep.  Rows are sorted by (T, W, seed) before
    aggregation, so jobs > 1 changes wall time and nothing else.
    """
    tol = tol or DEFAULT_TOLERANCES
    jobs = int(jobs)
    if jobs < 1:
        raise InvalidConfigError(f"jobs must be at least 1, got {jobs}")

    try:
        probe = generate_game(config, min(config.T_range), config.seed)
        k_bar = online.compute_tracking_gain(probe, tol=tol)
    except _LOCAL_ERRORS:
        k_bar = None

    groups = [(config, T, k, k_bar, tol) for T in config.T_range for k in range(config.runs)]
    if jobs > 1:
        chunk = max(1, len(groups) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [r for group in pool.map(_group_task, groups, chunksize=chunk) for r in group]
    else:
        rows = [r for args in groups for r in _run_group(*args)]

    rows.sort(key=lambda r: (r.T, r.W, r.seed))
    return SweepResult(config=config, rows=tuple(rows), aggregates=tuple(_aggregate(rows)))


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
        writer.writerow(["T", "W", "mean_pou", "mean_nash_cost", "log_rel_pou"])
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
    pts = [r for r in aggregates if r.log_rel_pou_of_means is not None]
    if not pts:
        raise EmptyAggregateError("no aggregate rows with a finite log relative PoU")

    other_name = "W" if x_axis == "T" else "T"
    series: dict = {}
    for r in pts:
        x = r.T if x_axis == "T" else r.W
        key = r.W if x_axis == "T" else r.T
        series.setdefault(key, []).append((float(x), float(r.log_rel_pou_of_means)))
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
