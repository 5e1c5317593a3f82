"""Command-line front end.

Subcommands: validate (assumption report), solve (feedback Nash solution),
run (online preview-limited rollout), sweep (Monte Carlo CSV tables), and
plot (SVG chart from an aggregate CSV).  Exit codes: 0 success, 1 usage or
input or I/O problem, 2 strict validation failure, 3 numerical failure.
Errors go to stderr as one JSON object {code, stage, detail}.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import experiments, game, linalg, online, potential
from .linalg import DEFAULT_TOLERANCES, Tolerances

__all__ = ["main", "entry", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on bad flags; surface them as exceptions
    # instead so main() owns every exit code.
    def error(self, message):
        raise UsageError(message)


def _error_out(code: str, detail: str, stage=None) -> None:
    print(json.dumps({"code": code, "stage": stage, "detail": detail}), file=sys.stderr)


def _tolerances(ns) -> Tolerances:
    tol = DEFAULT_TOLERANCES
    if not getattr(ns, "tol", None):
        return tol
    known = {f.name for f in fields(Tolerances)}
    updates = {}
    for item in ns.tol:
        name, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--tol expects NAME=VALUE, got {item!r}")
        if name not in known:
            raise UsageError(f"unknown tolerance {name!r} (choose from {sorted(known)})")
        try:
            updates[name] = float(value)
        except ValueError:
            raise UsageError(f"tolerance {name!r} needs a real value, got {value!r}") from None
    try:
        return replace(tol, **updates)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _dump_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _cmd_validate(ns) -> int:
    tol = _tolerances(ns)
    spec = game.spec_from_dict(_load_json(ns.spec), tol=tol)
    report = potential.check_assumptions(spec, mode="warn", tol=tol)
    print(json.dumps(report.to_dict(), indent=2))
    if ns.strict and not report.overall:
        first = next(c for c in report.checks if not c.passed)
        _error_out("assumption", first.detail, stage=first.id)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_solve(ns) -> int:
    tol = _tolerances(ns)
    spec = game.spec_from_dict(_load_json(ns.spec), tol=tol)
    solution = game.solve_feedback_nash(spec, tol=tol)
    _dump_json(ns.out, game.nash_to_dict(solution))
    return EXIT_OK


def _cmd_run(ns) -> int:
    tol = _tolerances(ns)
    if ns.preview < 0:
        raise UsageError(f"--preview must be non-negative, got {ns.preview}")
    spec = game.spec_from_dict(_load_json(ns.spec), tol=tol)
    k_tracking = None
    if ns.gain is not None:
        k_tracking = linalg.as_matrix(
            _load_json(ns.gain), 2 * spec.m, spec.n, name="tracking gain"
        )
    run = online.run_online(spec, ns.preview, K_tracking=k_tracking, tol=tol)
    _dump_json(ns.out, run.to_dict())
    return EXIT_OK


def _cmd_sweep(ns) -> int:
    tol = _tolerances(ns)
    config = experiments.ExperimentConfig.from_dict(_load_json(ns.config))
    if ns.seed is not None:
        config = replace(config, seed=ns.seed)
    if ns.runs is not None:
        config = replace(config, runs=ns.runs)
    result = experiments.sweep(config, jobs=ns.jobs, tol=tol)
    experiments.emit_csv(result, ns.out_dir)
    return EXIT_OK


def _cmd_plot(ns) -> int:
    header = experiments._AGG_HEADER
    rows = []
    with open(ns.infile, newline="") as fh:
        reader = csv.reader(fh)
        fieldnames = next(reader, None)
        if fieldnames != header:
            raise UsageError(f"expected aggregate CSV with header {','.join(header)}, got {fieldnames}")
        for rec in filter(None, reader):  # blank lines hold no row
            if len(rec) != len(header):
                raise ValueError(f"line {reader.line_num} has {len(rec)} fields, expected {len(header)}")
            T, W, *metrics = rec
            rows.append(experiments.AggregateRow(
                int(T), int(W), *(None if value == "" else float(value) for value in metrics)))
    experiments.emit_plot(rows, ns.x, ns.out)
    return EXIT_OK


@functools.cache  # parsing leaves the parser as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="previewnash",
                     description="Two-player preview-limited dynamic game toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add(name: str, handler, help_text: str) -> _Parser:
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.set_defaults(func=handler)
        sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override one tolerance (repeatable)")
        return sp

    sp = add("validate", _cmd_validate, "Check a game spec against the validity conditions.")
    sp.add_argument("--spec", required=True, help="game spec JSON file")
    sp.add_argument("--strict", action="store_true",
                    help="exit 2 when any condition fails (report is printed either way)")

    sp = add("solve", _cmd_solve, "Solve the full-information feedback Nash equilibrium.")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--out", required=True, help="output JSON file")

    sp = add("run", _cmd_run, "Run the online prediction/tracking algorithm.")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--preview", type=int, required=True, metavar="W",
                    help="preview window length")
    sp.add_argument("--gain", metavar="FILE",
                    help="JSON file holding a tracking gain matrix (2m x n nested arrays)")
    sp.add_argument("--out", required=True)

    sp = add("sweep", _cmd_sweep, "Monte Carlo sweep over (T, W, seed) cells.")
    sp.add_argument("--config", required=True, help="experiment config JSON file")
    sp.add_argument("--out-dir", required=True, help="directory for rows.csv and agg.csv")
    sp.add_argument("--seed", type=int, help="override the config's base seed")
    sp.add_argument("--runs", type=int, help="override the config's runs per cell")
    sp.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    sp = add("plot", _cmd_plot, "Render an aggregate CSV as an SVG chart.")
    sp.add_argument("--in", dest="infile", required=True, help="aggregate CSV file")
    sp.add_argument("--x", choices=("T", "W"), required=True, help="x-axis variable")
    sp.add_argument("--out", required=True, help="output SVG file")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except UsageError as exc:
        _error_out("usage", str(exc))
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        _error_out("input", f"invalid JSON: {exc}")
        return EXIT_USAGE
    except experiments._NUMERICAL_ERRORS as exc:  # some are ValueErrors, but not bad input
        _error_out(experiments._error_tag(exc), str(exc), stage=getattr(exc, "stage", None))
        return EXIT_NUMERICAL
    except (ValueError, KeyError, IndexError, csv.Error) as exc:
        _error_out("input", str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _error_out("io", str(exc))
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
