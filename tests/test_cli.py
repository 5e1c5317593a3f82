"""End-to-end command-line behavior: exit codes, stderr JSON, file outputs."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from previewnash import cli, potential
from previewnash import game as game_mod
from previewnash import (
    ExperimentConfig,
    generate_game,
    nash_from_dict,
    spec_to_dict,
    verify_nash_by_deviation,
)
from previewnash.game import spec_from_dict
from previewnash.linalg import DEFAULT_TOLERANCES

from conftest import make_aligned_game, malformed_docs


@pytest.fixture()
def scalar_spec_file(tmp_path, scalar_spec):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(spec_to_dict(scalar_spec)))
    return path


@pytest.fixture()
def indefinite_spec_file(tmp_path):
    # drawn two-state instance; its state weights are indefinite on purpose
    spec = generate_game(ExperimentConfig(), T=4, seed=0)
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    return path


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259 section 6)")


def _strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_refuse_constant)


def _stderr_json(capsys):
    captured = capsys.readouterr()
    return captured.out, (_strict_json(captured.err) if captured.err.strip() else None)


# ----------------------------------------------------------------- validate

def test_validate_passing_spec(scalar_spec_file, capsys):
    assert cli.main(["validate", "--spec", str(scalar_spec_file)]) == 0
    out, err = _stderr_json(capsys)
    report = json.loads(out)
    assert report["overall"] is True
    assert len(report["assumptions"]) == 6
    assert err is None


def test_validate_warn_mode_reports_but_passes(indefinite_spec_file, capsys):
    assert cli.main(["validate", "--spec", str(indefinite_spec_file)]) == 0
    out, err = _stderr_json(capsys)
    assert json.loads(out)["overall"] is False
    assert err is None


def test_validate_overflowing_game_is_quiet(tmp_path, capsys):
    # at a=1e60 the value recursion overflows; the non-finite curvature
    # fails its certificate as data, with no numpy warning on the way
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec_to_dict(generate_game(ExperimentConfig(a=1e60), 5, 0))))
    assert cli.main(["validate", "--spec", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["overall"] is False
    assert captured.err == ""


def test_validate_strict_mode_exits_2(indefinite_spec_file, capsys):
    code = cli.main(["validate", "--spec", str(indefinite_spec_file), "--strict"])
    assert code == 2
    out, err = _stderr_json(capsys)
    assert json.loads(out)["overall"] is False  # report still printed
    assert err["code"] == "assumption"
    assert err["stage"] == "A1"


# -------------------------------------------------------------------- solve

def test_solve_writes_verifiable_solution(scalar_spec_file, tmp_path, capsys):
    out_path = tmp_path / "nash.json"
    assert cli.main(["solve", "--spec", str(scalar_spec_file),
                     "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    nash = nash_from_dict(data)
    assert np.allclose(nash.gain(1), [[-1.0 / 3.0], [-1.0 / 3.0]], atol=1e-12)
    spec = spec_from_dict(json.loads(scalar_spec_file.read_text()))
    check = verify_nash_by_deviation(spec, nash, 1, 1, [0.25])
    assert check.cost_deviated >= check.cost_at_nash - 1e-12
    assert out_path.read_text().endswith("\n")


def test_solve_numerical_failure_exits_3(tmp_path, capsys):
    # zero control weights make the stage curvature singular
    doc = {
        "n": 1, "m": 1, "T": 2,
        "A": [[1.0]], "B1": [[1.0]], "B2": [[1.0]], "x1": [1.0],
        "Q": [[[1.0]]],
        "R1": [[[0.0, 0.0], [0.0, 0.0]]],
        "R2": [[[0.0, 0.0], [0.0, 0.0]]],
    }
    spec_path = tmp_path / "singular.json"
    spec_path.write_text(json.dumps(doc))
    code = cli.main(["solve", "--spec", str(spec_path), "--out", str(tmp_path / "x.json")])
    assert code == 3
    _, err = _stderr_json(capsys)
    assert err["code"] == "theta_not_pd"
    assert err["stage"] == 1


def test_solve_names_a_scalar_first_weight(scalar_spec, tmp_path, capsys):
    doc = spec_to_dict(scalar_spec)
    doc["Q"] = [1.0]
    spec_path = tmp_path / "scalar_q.json"
    spec_path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--spec", str(spec_path), "--out", str(tmp_path / "x.json")]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"
    assert err["detail"] == "Q_2: expected a 2-D array, got ndim=0"


# ---------------------------------------------------------------------- run

def test_run_full_preview(scalar_spec_file, tmp_path, capsys):
    out_path = tmp_path / "run.json"
    assert cli.main(["run", "--spec", str(scalar_spec_file),
                     "--preview", "1", "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["pou"] == 0.0
    assert data["log_rel_pou"] is None
    assert len(data["x"]) == 2


def test_run_with_explicit_gain_file(scalar_spec_file, tmp_path, capsys):
    gain_path = tmp_path / "gain.json"
    gain_path.write_text(json.dumps([[0.0], [0.0]]))
    out_path = tmp_path / "run.json"
    assert cli.main(["run", "--spec", str(scalar_spec_file), "--preview", "1",
                     "--gain", str(gain_path), "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["K_tracking"] == [[0.0], [0.0]]


def test_run_rejects_bad_gain_shape(scalar_spec_file, tmp_path, capsys):
    gain_path = tmp_path / "gain.json"
    gain_path.write_text(json.dumps([[0.0, 0.0]]))
    code = cli.main(["run", "--spec", str(scalar_spec_file), "--preview", "1",
                     "--gain", str(gain_path), "--out", str(tmp_path / "r.json")])
    assert code == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"


def test_run_rejects_negative_preview(scalar_spec_file, tmp_path, capsys):
    code = cli.main(["run", "--spec", str(scalar_spec_file),
                     "--preview", "-1", "--out", str(tmp_path / "r.json")])
    assert code == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "usage"


def test_run_unstabilizable_exits_3(tmp_path, capsys):
    doc = {
        "n": 2, "m": 1, "T": 3,
        "A": [[2.0, 0.0], [0.0, 2.0]],
        "B1": [[1.0], [0.0]], "B2": [[1.0], [0.0]],
        "x1": [1.0, 1.0],
        "Q": [[[1.0, 0.0], [0.0, 1.0]]] * 2,
        "R1": [[[1.0, 0.0], [0.0, 0.0]]] * 2,
        "R2": [[[0.0, 0.0], [0.0, 1.0]]] * 2,
    }
    spec_path = tmp_path / "unstab.json"
    spec_path.write_text(json.dumps(doc))
    code = cli.main(["run", "--spec", str(spec_path), "--preview", "0",
                     "--out", str(tmp_path / "r.json")])
    assert code == 3
    _, err = _stderr_json(capsys)
    assert err["code"] == "not_stabilizable"


def test_run_zero_equilibrium_cost_exits_3(scalar_spec, tmp_path, capsys):
    # x1 = 0 keeps every cost at zero, so the relative price is undefined
    doc = spec_to_dict(scalar_spec)
    doc["x1"] = [0.0]
    spec_path = tmp_path / "zero.json"
    spec_path.write_text(json.dumps(doc))
    code = cli.main(["run", "--spec", str(spec_path), "--preview", "0",
                     "--out", str(tmp_path / "r.json")])
    assert code == 3
    _, err = _stderr_json(capsys)
    assert err["code"] == "zero_nash_cost"
    assert not (tmp_path / "r.json").exists()


def test_solve_linalg_error_exits_3(scalar_spec_file, tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, but it is numerical, not bad input
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(game_mod, "_backward", singular)
    code = cli.main(["solve", "--spec", str(scalar_spec_file), "--out", str(tmp_path / "n.json")])
    assert code == 3
    _, err = _stderr_json(capsys)
    assert err["code"] == "linalg_error"
    assert err["detail"] == "Singular matrix"
    assert not (tmp_path / "n.json").exists()


# -------------------------------------------------------------------- sweep

def _write_config(tmp_path, **kwargs):
    doc = dict(T_range=[4], W_range=[0, 3], runs=2, seed=1)
    doc.update(kwargs)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_sweep_writes_both_tables(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "rows.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "W", "seed", "pou", "nash_social_cost", "log_rel_pou"]
    assert len(rows) == 1 + 4
    with open(out_dir / "agg.csv", newline="") as fh:
        aggs = list(csv.reader(fh))
    assert aggs[0] == ["T", "W", "mean_pou", "mean_nash_cost", "log_rel_pou"]


def test_sweep_flag_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out2"
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir),
                     "--seed", "5", "--runs", "1"]) == 0
    with open(out_dir / "rows.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2  # one run per cell now
    assert rows[1][2] == "5"  # reseeded


@pytest.mark.parametrize("doc", [{"b1": 1e200}, {"l_dist": [-1.7e308, 1.7e308]},
                                 {"W_range": [0, 10 ** 31]}, {"W_range": [0, 2 ** 63]}],
                         ids=["b1", "l_dist", "W_1e31", "W_2e63"])
def test_overflowing_sweep_configs_end_in_an_exit_code(doc, tmp_path, capsys):
    cfg = _write_config(tmp_path, T_range=[4], runs=1, **doc)
    code = cli.main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code:
        assert json.loads(captured.err)["code"] == "input"
        assert len(captured.err.splitlines()) == 1
    else:
        assert captured.err == ""


def test_sweep_with_a_preview_past_the_horizon_writes_the_full_information_rows(tmp_path, capsys):
    out = {}
    for W in (3, 10 ** 31):
        cfg = _write_config(tmp_path, T_range=[4], W_range=[W], runs=2)
        assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / str(W))]) == 0
        out[W] = (tmp_path / str(W) / "rows.csv").read_text()
    assert out[10 ** 31] == out[3].replace("\n4,3,", f"\n4,{10 ** 31},")


def test_run_with_a_preview_past_the_horizon_is_the_full_preview(scalar_spec_file, tmp_path, capsys):
    for W in ("100", str(10 ** 31)):
        assert cli.main(["run", "--spec", str(scalar_spec_file), "--preview", W,
                         "--out", str(tmp_path / f"{W}.json")]) == 0
    assert (tmp_path / "100.json").read_bytes() == (tmp_path / f"{10 ** 31}.json").read_bytes()


def test_run_with_a_singular_tracking_step_exits_3(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(generate_game(ExperimentConfig(a=1e10), 6, 0))))
    assert cli.main(["run", "--spec", str(path), "--preview", "1", "--out", str(tmp_path / "r.json")]) == 3
    _, err = _stderr_json(capsys)
    assert err["code"] == "not_stabilizable"
    assert "could not be certified" in err["detail"]


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, horizon=20)
    code = cli.main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"


# --------------------------------------------------------------------- plot

def test_plot_from_sweep_output(tmp_path, capsys):
    cfg = _write_config(tmp_path, W_range=[0, 1, 2])
    out_dir = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    svg = tmp_path / "curve.svg"
    assert cli.main(["plot", "--in", str(out_dir / "agg.csv"),
                     "--x", "W", "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg ")


def test_plot_rejects_wrong_header(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)])
    capsys.readouterr()
    code = cli.main(["plot", "--in", str(out_dir / "rows.csv"),
                     "--x", "W", "--out", str(tmp_path / "bad.svg")])
    assert code == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "usage"


_AGG_HEADER_LINE = "T,W,mean_pou,mean_nash_cost,log_rel_pou\n"


@pytest.mark.parametrize("body", ["20,0\n", "20,0,1.0,2.0,-1.0,5\n", "20,0,1.0,2.0\n"],
                         ids=["short", "extra_field", "four_fields"])
def test_plot_rejects_ragged_rows(body, tmp_path, capsys):
    path = tmp_path / "agg.csv"
    path.write_text(_AGG_HEADER_LINE + "20,1,1.0,2.0,-2.0\n" + body)
    assert cli.main(["plot", "--in", str(path), "--x", "W", "--out", str(tmp_path / "p.svg")]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input" and "line 3" in err["detail"]
    assert not (tmp_path / "p.svg").exists()


def test_plot_skips_non_finite_log_ratios(tmp_path, capsys):
    # emit_csv writes inf for a cell whose mean price is infinite
    path = tmp_path / "agg.csv"
    path.write_text(_AGG_HEADER_LINE + "20,0,inf,2.0,inf\n20,1,1.0,2.0,-2.0\n"
                    "20,2,1.0,2.0,nan\n20,3,1.0,2.0,-3.0\n")
    svg = tmp_path / "p.svg"
    assert cli.main(["plot", "--in", str(path), "--x", "W", "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<circle") == 2
    assert not re.search(r"(?<![a-z])(nan|inf)", text)


def test_plot_ends_every_csv_body_in_an_exit_code_and_one_json_error(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = st.one_of(st.integers(-10 ** 400, 10 ** 400).map(str), st.floats().map(repr),
                      st.sampled_from(["inf", "-inf", "nan", "", "1e400", "-0.0", "20", "0"]),
                      st.text(max_size=6))
    rows = st.lists(st.lists(field, min_size=0, max_size=7), max_size=6)
    path = tmp_path / "agg.csv"
    svg = tmp_path / "p.svg"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(body=rows)
    @hypothesis.example(body=[["20", "0"]])
    @hypothesis.example(body=[["20", "0", "inf", "1.0", "inf"]])
    @hypothesis.example(body=[["20", "0", "1", "1", "-1", "x"]])
    @hypothesis.example(body=[["20", "0", "1", "1", "1e308"], ["20", "1", "1", "1", "-1e308"]])
    @hypothesis.example(body=[["20", "0", "1", "1", "1"], ["20", str(10 ** 400), "1", "1", "2"]])
    @hypothesis.example(body=[[str(10 ** 17), "0", "1", "1", "1"]])
    def check(body):
        path.write_text(_AGG_HEADER_LINE + "".join(",".join(r) + "\n" for r in body))
        svg.unlink(missing_ok=True)
        code = cli.main(["plot", "--in", str(path), "--x", "W", "--out", str(svg)])
        captured = capsys.readouterr()
        assert code in (0, 1)
        if code:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and "code" in _strict_json(lines[0])
            assert not svg.exists()
        else:
            assert captured.err == ""
            assert not re.search(r"(?<![a-z])(nan|inf)", svg.read_text())

    check()


def test_plot_rejects_invalid_axis(tmp_path, capsys):
    code = cli.main(["plot", "--in", "whatever.csv", "--x", "seed",
                     "--out", str(tmp_path / "x.svg")])
    assert code == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "usage"


# ------------------------------------------------------------ error plumbing

def test_missing_file_is_io_error(tmp_path, capsys):
    code = cli.main(["validate", "--spec", str(tmp_path / "nope.json")])
    assert code == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "io"


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["validate", "--spec", str(bad)])
    assert code == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"


def test_truncated_spec_is_input_error(tmp_path, capsys):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"n": 1, "m": 1}))
    code = cli.main(["validate", "--spec", str(part)])
    assert code == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"


@pytest.mark.parametrize("doc", [[1, 2], {"n": None}, {"Q": 5}, {"A": [[10 ** 400]]}, {"Q": [[[10 ** 400]]]},
                                 {"R1": [[[10 ** 400, 0.0], [0.0, 0.0]]]}, {"x1": [10 ** 400]}])
def test_mistyped_spec_is_input_error(scalar_spec, doc, tmp_path, capsys):
    data = doc if isinstance(doc, list) else {**spec_to_dict(scalar_spec), **doc}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert cli.main(["validate", "--spec", str(path)]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"


@pytest.mark.parametrize("field, value", [("A", [["1.0"]]), ("Q", [[[True]]]), ("x1", ["1"])])
def test_numeric_text_and_booleans_in_a_spec_are_input_errors(scalar_spec, field, value, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec_to_dict(scalar_spec), field: value}))
    assert cli.main(["validate", "--spec", str(path)]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input" and "entries must be numbers" in err["detail"]


@pytest.mark.parametrize("doc", [{"runs": None}, {"a": None}, {"seed": [1]}, {"beta_dist": [1, 10 ** 400]},
                                 {"x1": [1, 10 ** 400]}])
def test_mistyped_config_is_input_error(doc, tmp_path, capsys):
    cfg = _write_config(tmp_path, **doc)
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"


@pytest.mark.parametrize("doc", [{"runs": 1.5}, {"seed": 2.9}, {"T_range": [20.7]}])
def test_non_integral_config_is_input_error(doc, tmp_path, capsys):
    cfg = _write_config(tmp_path, **doc)
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"
    assert not (tmp_path / "o").exists()


def test_non_integral_declared_size_is_input_error(scalar_spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec_to_dict(scalar_spec), "T": 2.9}))
    assert cli.main(["validate", "--spec", str(path)]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "input"


@pytest.mark.parametrize("command", ["validate", "solve", "run"])
def test_malformed_spec_ends_in_an_exit_code_and_one_json_error(command, tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    doc = spec_to_dict(make_aligned_game(np.random.default_rng(5), n=2, m=1, T=3))
    path = tmp_path / "spec.json"
    out = tmp_path / "out.json"
    argv = {"validate": ["validate", "--spec", str(path), "--strict"],
            "solve": ["solve", "--spec", str(path), "--out", str(out)],
            "run": ["run", "--spec", str(path), "--preview", "1", "--out", str(out)]}[command]

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(bad=malformed_docs(st, doc))
    @hypothesis.example(bad=doc)
    @hypothesis.example(bad={**doc, "Q": [[[1e308, 0.0], [0.0, 1e308]]] * 2})
    @hypothesis.example(bad={**doc, "Q": [[[1e308, 1e308], [-1e308, 1e308]]] * 2})
    @hypothesis.example(bad={**doc, "Q": [[[1e308, 1.7e308], [1.7e308, 1e308]]] * 2})
    @hypothesis.example(bad={**doc, "R1": [[[1e308, 1e308], [1e308, 1e308]]] * 2,
                             "R2": [[[1e308, -1e308], [-1e308, 1e308]]] * 2})
    @hypothesis.example(bad={**doc, "x1": [1e300, -1e300]})
    @hypothesis.example(bad={**doc, "A": [[1e200, 0.0], [0.0, 1e200]]})
    def check(bad):
        path.write_text(json.dumps(bad))
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        if captured.out:  # validate's report
            assert "overall" in _strict_json(captured.out)
        if code:
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert "code" in _strict_json(lines[0])
        else:
            assert captured.err == ""

    check()


def test_tolerance_overrides(scalar_spec_file, capsys):
    assert cli.main(["validate", "--spec", str(scalar_spec_file),
                     "--tol", "mat_eq=1e-6", "--tol", "pd_pivot=1e-12"]) == 0
    capsys.readouterr()
    for bad in ("bogus=1", "mat_eq=abc", "mat_eq"):
        code = cli.main(["validate", "--spec", str(scalar_spec_file), "--tol", bad])
        assert code == 1
        _, err = _stderr_json(capsys)
        assert err["code"] == "usage"


def test_one_parser_serves_every_call_and_keeps_no_override(scalar_spec_file, monkeypatch, capsys):
    assert cli._build_parser() is cli._build_parser()
    seen = []
    check = potential.check_assumptions
    monkeypatch.setattr(potential, "check_assumptions",
                        lambda spec, mode, tol: seen.append(tol) or check(spec, mode=mode, tol=tol))
    argv = ["validate", "--spec", str(scalar_spec_file)]
    assert cli.main(argv + ["--tol", "mat_eq=1e-6"]) == 0
    assert cli.main(argv) == 0
    assert [tol.mat_eq for tol in seen] == [1e-6, DEFAULT_TOLERANCES.mat_eq]
    assert cli._build_parser().parse_args(argv).tol is None


@pytest.mark.parametrize("override", ["pd_pivot=-1", "symmetry=-1", "pd_pivot=nan",
                                      "spectral_margin=inf", "mat_eq=-inf"])
def test_invalid_tolerances_are_usage_errors(override, scalar_spec_file, capsys):
    assert cli.main(["validate", "--spec", str(scalar_spec_file), "--tol", override]) == 1
    out, err = _stderr_json(capsys)
    assert out == ""
    assert err["code"] == "usage"
    assert f"tolerance {override.partition('=')[0]} must be finite and non-negative" in err["detail"]


def test_usage_errors(capsys):
    assert cli.main([]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "usage"
    assert cli.main(["frobnicate"]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "usage"
    assert cli.main(["solve", "--spec"]) == 1
    _, err = _stderr_json(capsys)
    assert err["code"] == "usage"


def _run_module(*args):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-W", "error", "-m", "previewnash.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=120)


def test_run_with_an_overflowing_price_exits_3_without_a_warning(tmp_path):
    # a start of 1e300 overflows every cost, so the price is not finite; the
    # run stops there, before its tracking error overflows as well
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(generate_game(ExperimentConfig(x1=(1e300, 1e300)), 4, 0))))
    run = _run_module("run", "--spec", str(path), "--preview", "1", "--out", str(tmp_path / "r.json"))
    assert (run.returncode, run.stdout) == (3, "")
    assert _strict_json(run.stderr)["code"] == "non_finite_cost"
    assert not (tmp_path / "r.json").exists()


def test_validate_writes_a_non_finite_margin_as_null(tmp_path):
    # the joint weight 1e308 [[1, 1], [1, -1]] is asymmetric past the float
    # range, so A4's margin is -inf; strict JSON has no token for it
    r1 = [[[1e308, 1e308], [1e308, 1e308]]]
    r2 = [[[1e308, -1e308], [-1e308, 1e308]]]
    spec = game_mod.game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], game_mod.cost_schedule([[[1.0]]], r1, r2))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    report = _run_module("validate", "--spec", str(path))
    assert report.returncode == 0
    a4 = _strict_json(report.stdout)["assumptions"][3]
    assert (a4["id"], a4["passed"], a4["margin"]) == ("A4", False, None)


@pytest.mark.parametrize("a, T, seed, stage", [(1e60, 8, 2, 6), (1e10, 6, 0, 4)])
def test_validate_reports_a_curvature_that_solve_cannot_invert(tmp_path, a, T, seed, stage):
    # the curvature at that stage passes pd_pivot with a pivot ratio near
    # 1e-16, which `solve` found singular; its certificate now fails it,
    # and A1 reads a negative margin
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(generate_game(ExperimentConfig(a=a), T, seed))))
    report = _run_module("validate", "--spec", str(path))
    assert (report.returncode, report.stderr) == (0, "")
    a1 = _strict_json(report.stdout)["assumptions"][0]
    assert (a1["id"], a1["passed"]) == ("A1", False) and a1["margin"] < 0.0
    assert a1["detail"].startswith(f"stage {stage}: joint curvature matrix ")


def test_module_entry_point_runs_main(scalar_spec_file, indefinite_spec_file):
    ok = _run_module("validate", "--spec", str(scalar_spec_file))
    assert (ok.returncode, ok.stderr) == (0, "")
    assert _strict_json(ok.stdout)["overall"] is True
    strict = _run_module("validate", "--spec", str(indefinite_spec_file), "--strict")
    assert strict.returncode == 2
    assert _strict_json(strict.stdout)["overall"] is False
    err = _strict_json(strict.stderr)
    assert (err["code"], err["stage"]) == ("assumption", "A1")


def test_exit_code_constants():
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL) == (0, 1, 2, 3)
