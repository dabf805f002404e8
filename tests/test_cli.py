import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ewlsim import cli
from ewlsim.analysis import prop3_params
from ewlsim.ewl import (UnitaryParams, build_gate, expected_payoff, n_tuple_driver_game,
                        payoff_three_param_fn)
from ewlsim.optimize import OptResult
from oracles import three_param_payoff


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out = capsys.readouterr().out if capsys is not None else ""
    return code, out


# ------------------------------------------------------------ angle parsing


@pytest.mark.parametrize("text,expected", [
    ("pi", math.pi),
    ("pi/2", math.pi / 2),
    ("9pi/16", 9 * math.pi / 16),
    ("3*pi/16", 3 * math.pi / 16),
    ("2pi/3", 2 * math.pi / 3),
    ("-pi/4", -math.pi / 4),
    ("0.5", 0.5),
    ("2", 2.0),
    ("0.5pi", 0.5 * math.pi),
])
def test_parse_angle(text, expected):
    assert cli.parse_angle(text) == pytest.approx(expected, abs=0)


def test_parse_angle_rejects_garbage():
    import argparse

    for text in ("pie/2", "pi/0"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle(text)


@pytest.mark.parametrize("argv,dest,expected", [
    (["simulate", "--theta", "1", "--alpha", "-pi/4"], "alpha", -math.pi / 4),
    (["simulate", "--theta", "1", "--alpha", "-1e-3"], "alpha", -1e-3),
    (["optimize", "--lambda", "-1e3"], "lam", -1e3),
    (["reproduce", "--lambda-sweep", "-3,4"], "lambda_sweep", "-3,4"),
])
def test_options_take_negative_values(argv, dest, expected, capsys, monkeypatch):
    seen = []
    for command in ("cmd_simulate", "cmd_optimize", "cmd_reproduce"):
        monkeypatch.setattr(cli, command, lambda args: seen.append(args) or "")
    assert cli.main(argv) == 0
    assert getattr(seen[0], dest) == expected
    # the same value written with '=' parses the same
    assert cli.main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == 0
    assert vars(seen[1]) == vars(seen[0])


@pytest.mark.parametrize("argv,message", [
    (["optimize", "--lambda", "-inf"], "--lambda must be finite"),
    (["optimize", "--lambda", "-nan"], "--lambda must be finite"),
    (["optimize", "--lambda", "-Infinity"], "--lambda must be finite"),
    (["optimize", "--lambda", "-NaN"], "--lambda must be finite"),
    (["simulate", "--theta", "1", "--alpha", "-inf"], "angles must be finite"),
    (["simulate", "--theta", "1", "--beta", "-INF"], "angles must be finite"),
], ids=" ".join)
def test_negative_non_finite_values_reach_their_option(argv, message, capsys):
    # argparse would read -inf as an unknown option and exit 2 with
    # "expected one argument"; joined to its option, the value gets its own message
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and "expected one argument" not in err


def test_simulate_reports_a_negative_alpha_wrapped(capsys):
    code, out = run_cli("simulate", "--theta", "1", "--alpha", "-pi/4", "--format", "json",
                        capsys=capsys)
    assert code == 0 and json.loads(out)["alpha"] == pytest.approx(7 * math.pi / 4, abs=1e-15)


def test_simulate_off_range_phases_print_the_reduced_phases_bytes(capsys):
    args = ("simulate", "--n", "2", "--lambda", "5", "--theta", "1", "--format", "json")
    code, off = run_cli(*args, "--alpha", "7", "--beta", "-pi/4", capsys=capsys)
    assert code == 0
    code, reduced = run_cli(*args, "--alpha", "0.7168146928204138", "--beta", "5.497787143782138",
                            capsys=capsys)
    assert code == 0 and off == reduced


# ----------------------------------------------------------------- simulate


def test_simulate_driver_quarter_turn(capsys):
    code, out = run_cli("simulate", "--n", "1", "--lambda", "4",
                        "--theta", "pi/2", "--alpha", "pi/4", "--beta", "0",
                        "--format", "json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_payoff"] == pytest.approx(2.0, abs=1e-9)
    assert doc["basis_probabilities"]["10"] == pytest.approx(0.5, abs=1e-9)
    assert sum(doc["outcome_distribution"].values()) == pytest.approx(1.0, abs=1e-9)


def test_simulate_always_exit(capsys):
    code, out = run_cli("simulate", "--n", "1", "--lambda", "4", "--theta", "0",
                        "--alpha", "0", "--beta", "0", "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["expected_payoff"] == pytest.approx(0.0, abs=1e-12)


def test_simulate_example_n3(capsys):
    code, out = run_cli("simulate", "--n", "3", "--lambda", "20", "--theta", "pi/2",
                        "--alpha", "9pi/16", "--beta", "3pi/16", "--format", "json",
                        capsys=capsys)
    assert code == 0
    assert json.loads(out)["expected_payoff"] == pytest.approx(5.0, abs=1e-9)


def test_simulate_builds_the_state_once(capsys, monkeypatch):
    calls = []
    original = cli.ewl.final_state

    def counted(gates):
        calls.append(len(gates))
        return original(gates)

    monkeypatch.setattr(cli.ewl, "final_state", counted)
    code, out = run_cli("simulate", "--n", "3", "--lambda", "20", "--theta", "pi/2",
                        "--alpha", "9pi/16", "--beta", "3pi/16", "--format", "json",
                        capsys=capsys)
    assert code == 0 and calls == [4]
    doc = json.loads(out)
    dist = doc["outcome_distribution"]
    assert doc["expected_payoff"] == pytest.approx(20.0 * dist["o4"] + dist["o5"], abs=1e-12)
    assert sum(doc["basis_probabilities"].values()) == pytest.approx(1.0, abs=1e-12)


def test_simulate_compiles_one_game(capsys, monkeypatch):
    compiled = []
    original = cli.ewl.ewl_game

    def counted(problem):
        compiled.append(problem)
        return original(problem)

    monkeypatch.setattr(cli.ewl, "ewl_game", counted)
    code, out = run_cli("simulate", "--n", "3", "--lambda", "20", "--theta", "pi/2",
                        "--alpha", "9pi/16", "--beta", "3pi/16", "--format", "json",
                        capsys=capsys)
    assert code == 0 and len(compiled) == 1
    assert list(json.loads(out)["outcome_distribution"]) == ["o1", "o2", "o3", "o4", "o5"]


def test_simulate_refuses_basis_tables_over_budget_before_any_work(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an oversized simulate run started its work")

    monkeypatch.setattr(cli.ewl, "ewl_game", refused)
    monkeypatch.setattr(cli.ewl, "final_state", refused)
    assert cli.main(["simulate", "--n", "19", "--theta", "pi/2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--n 19 gives a basis table of 1,048,576 rows, over the budget of 1,000,000 " \
        "(GRID_BUDGET)" in err


def test_simulate_requires_theta(capsys):
    code, _ = run_cli("simulate", "--n", "1", "--lambda", "4", capsys=capsys)
    assert code == 2


def test_simulate_validates_ranges(capsys):
    code, _ = run_cli("simulate", "--n", "0", "--lambda", "4", "--theta", "0",
                      capsys=capsys)
    assert code == 2
    code, _ = run_cli("simulate", "--n", "1", "--lambda", "4", "--theta", "2pi",
                      capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "40", "--theta", "pi/2"),
    ("verify", "prop3", "--n", "40"),
    ("verify", "formulas", "--n", "40"),
    ("optimize", "--n", "40"),
])
def test_oversized_runs_exit_2_before_any_work(argv, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an oversized run started its work")

    monkeypatch.setattr(cli.ewl, "final_state", refused)
    monkeypatch.setattr(cli.ewl, "final_states", refused)
    monkeypatch.setattr(cli.ewl, "block_masses", refused)
    monkeypatch.setattr(cli.analysis, "final_states", refused)
    monkeypatch.setattr(cli.analysis, "prop3_verify", refused)
    monkeypatch.setattr(cli.analysis, "maximize_1d", refused)
    monkeypatch.setattr(cli.analysis, "maximize_3d", refused)
    assert cli.main(list(argv)) == 2
    err = capsys.readouterr().err
    assert "41 qubits exceed the limit of MAX_QUBITS = 24" in err
    assert "amplitudes" not in err  # the cap holds on paths that build none, too


def test_optimize_refuses_grids_over_budget(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an oversized optimize run started its scan")

    monkeypatch.setattr(cli.analysis, "maximize_3d", refused)
    assert cli.main(["optimize", "--n", "1", "--mode", "quantum", "--grid", "101"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "over the budget of 1,000,000 (GRID_BUDGET)" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_optimize_refuses_tolerances_that_are_not_finite_and_positive(tol, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a run with an invalid tolerance started its search")

    monkeypatch.setattr(cli.analysis, "maximize_1d", refused)
    monkeypatch.setattr(cli.analysis, "maximize_3d", refused)
    assert cli.main(["optimize", "--n", "2", "--lambda", "5", f"--tol={tol}"]) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["quantum", "both"])
def test_optimize_refuses_starts_below_one_before_any_search(mode, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a run without starts started its search")

    monkeypatch.setattr(cli.analysis, "maximize_1d", refused)
    monkeypatch.setattr(cli.analysis, "maximize_3d", refused)
    assert cli.main(["optimize", "--n", "1", "--mode", mode, "--starts", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--starts must be >= 1, got 0" in err


def test_optimize_classical_ignores_starts(capsys):
    code, _ = run_cli("optimize", "--n", "1", "--mode", "classical", "--starts", "0",
                      capsys=capsys)
    assert code == 0


@pytest.mark.parametrize("argv, target", [
    (("verify", "prop1", "--seed", "-1"), "prop1_verify"),
    (("verify", "formulas", "--seed", "-3"), "formulas_verify"),
], ids=["prop1", "formulas"])
def test_negative_seeds_are_refused_by_name(argv, target, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a run with a negative seed started its sweep")

    monkeypatch.setattr(cli.analysis, target, refused)
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--seed must be >= 0, got {argv[-1]}" in err


def test_optimize_finishes_at_a_tolerance_below_float_resolution(capsys):
    # a bracket cannot narrow to 1e-300 off 0; Brent's steps stop at float resolution
    code, out = run_cli("optimize", "--n", "2", "--lambda", "5", "--mode", "both", "--grid", "9",
                        "--tol", "1e-300", "--format", "json", capsys=capsys)
    assert code == 0
    values = {c["check"]: c["actual"] for c in json.loads(out)["checks"]}
    assert values["classical_optimum"] == pytest.approx(125.0 / 108.0, abs=1e-12)


def test_verify_prop2_refuses_n_over_its_cap(capsys, monkeypatch):
    # the cap is the stack budget: 101 runs on 17 qubits fit, on 18 they do not
    def refused(*args, **kwargs):
        raise AssertionError("verify prop2 ran past its cap")

    monkeypatch.setattr(cli.analysis, "final_states", refused)
    monkeypatch.setattr(cli.analysis, "outcome_masses", refused)
    assert cli.main(["verify", "prop2", "--n", "17"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ("101 runs on 18 qubits need an array of 26,476,544 complex entries, "
                          "over the budget of 16,777,216 (STACK_BUDGET)") in err
    cli.ewl.check_stack_size(101, 17)  # --n 16 fits


# ----------------------------------------------------------------- optimize


def test_optimize_example_values(capsys):
    code, out = run_cli("optimize", "--n", "3", "--lambda", "20", "--grid", "17",
                        "--format", "json", capsys=capsys)
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["classical_optimum"]["actual"] == pytest.approx(16875 / 6859, abs=1e-6)
    assert checks["quantum_optimum"]["actual"] == pytest.approx(5.0, abs=1e-6)
    assert checks["quantum_classical_ratio"]["actual"] == pytest.approx(2.0323, abs=1e-3)


def test_optimize_driver(capsys):
    code, out = run_cli("optimize", "--n", "1", "--lambda", "4", "--grid", "17",
                        "--format", "json", capsys=capsys)
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["classical_optimum"]["actual"] == pytest.approx(4 / 3, abs=1e-6)
    assert checks["quantum_optimum"]["actual"] == pytest.approx(2.0, abs=1e-6)


def test_optimize_below_threshold(capsys):
    code, out = run_cli("optimize", "--n", "1", "--lambda", "2", "--grid", "17",
                        "--format", "json", capsys=capsys)
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["classical_optimum"]["actual"] == pytest.approx(1.0, abs=1e-6)
    assert checks["quantum_optimum"]["actual"] == pytest.approx(1.0, abs=1e-6)


def test_optimize_reports_argmax_and_evaluations_as_fields(capsys):
    code, out = run_cli("optimize", "--n", "3", "--lambda", "20", "--format", "json",
                        capsys=capsys)
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    classical, quantum = checks["classical_optimum"], checks["quantum_optimum"]
    assert classical["argmax"] == [pytest.approx(2 * math.acos(math.sqrt(4 / 19)), abs=1e-6)]
    assert classical["evaluations"] == 267
    assert classical["note"] == f"p*={4 / 19:.9f}"
    assert len(quantum["argmax"]) == 3 and quantum["evaluations"] == 45291
    assert "note" not in quantum
    assert payoff_three_param_fn(3, 20.0)(*quantum["argmax"]) == quantum["actual"]


def test_optimize_single_mode(capsys):
    code, out = run_cli("optimize", "--n", "1", "--lambda", "4", "--mode", "classical",
                        "--format", "json", capsys=capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["check"] for c in checks] == ["classical_optimum"]


# ------------------------------------------------------------------- verify


@pytest.mark.parametrize("target,extra", [
    ("prop1", ("--samples", "200")),
    ("recall", ()),
    ("formulas", ("--samples", "100",)),
])
def test_verify_targets_pass(target, extra, capsys):
    code, out = run_cli("verify", target, *extra, "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_prop2_small(capsys):
    code, out = run_cli("verify", "prop2", "--n", "3", "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_prop3_passes_at_the_qubit_limit(capsys):
    # the payoffs reach 1e30 at n = 23, where their float difference lost the margin
    code, out = run_cli("verify", "prop3", "--n", "23", "--format", "json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and len(report["checks"]) == 66


def test_verify_prop3_small(capsys):
    code, out = run_cli("verify", "prop3", "--n", "3", "--format", "json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert all(c["actual"]["margin"] > 0 for c in report["checks"])


def test_verify_prop3_runs_from_n_2_and_refuses_n_1(capsys):
    code, out = run_cli("verify", "prop3", "--n", "2", "--format", "json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and [c["inputs"]["n"] for c in report["checks"]] == [2, 2, 2]
    assert cli.main(["verify", "prop3", "--n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--n must be >= 2" in err


def test_verify_prop3_refuses_n_below_2_before_any_work(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("verify prop3 --n 1 started its work")

    monkeypatch.setattr(cli.analysis, "prop3_sweep", refused)
    assert cli.main(["verify", "prop3", "--n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--n must be >= 2" in err


def test_verify_formulas_reports_discrepancy_note(capsys):
    code, out = run_cli("verify", "formulas", "--n", "1", "--samples", "60",
                        "--format", "json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    notes = [c.get("note", "") for c in report["checks"]]
    assert any("known discrepancy" in n for n in notes)


def test_verify_recall_with_problem_file(tmp_path, capsys):
    from ewlsim.decision import absentminded_driver, problem_to_json

    path = tmp_path / "driver.json"
    path.write_text(problem_to_json(absentminded_driver(4.0)))
    code, out = run_cli("verify", "recall", "--problem", str(path), "--format", "json",
                        capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["checks"][-1]["check"] == "user_problem_imperfect_recall"
    assert report["checks"][-1]["actual"] is True


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"histories": [[]], "partition": [[5]], "labels": {}},
    {"histories": [[], [0], [1]], "partition": [[0]], "labels": {"-2": "a", "2": "b"}},
    {"histories": [[], [0], [True]], "partition": [[0]], "labels": {"1": "a", "2": "b"}},
    {"histories": [[], [0], [1.0]], "partition": [[0]], "labels": {"1": "a", "2": "b"}},
    {"histories": [[], [0], ["1"]], "partition": [[0]], "labels": {"1": "a", "2": "b"}},
    {"histories": [[], [0], 1], "partition": [[0]], "labels": {"1": "a", "2": "b"}},
    {"histories": [[], [0], [1]], "partition": [[0]], "labels": {"1": "a", "01": "b"}},
    {"histories": [[], [0], [1]], "partition": [[0]], "labels": {"1": "a", "2": "b"},
     "payoffs": {"a": True, "b": 0.0}},
    # a repeated key, which json.dumps cannot write, at any level of the document
    '{"histories": [[], [0], [1]], "partition": [[0]], "labels": {"1": "a", "1": "c", "2": "b"}}',
    '{"histories": [[], [0], [1]], "partition": [[0]], "labels": {"1": "a", "2": "b"}, '
    '"payoffs": {"a": 1, "a": 5, "b": 0}}',
    {"histories": [[], [0], [0]], "partition": [[0]], "labels": {"1": "a"}},
])
def test_verify_recall_rejects_malformed_problem(doc, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = cli.main(["verify", "recall", "--problem", str(path)])
    assert code == 2
    assert "cannot load problem" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_verify_recall_refuses_non_finite_payoffs(bad, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text('{"histories": [[], [0], [1]], "partition": [[0]], '
                    f'"labels": {{"1": "a", "2": "b"}}, "payoffs": {{"a": 1.0, "b": {bad}}}}}')
    assert cli.main(["verify", "recall", "--problem", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "payoffs must be finite" in err


def test_verify_recall_refuses_problems_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = subprocess.run([sys.executable, "-m", "ewlsim", "verify", "recall",
                           "--problem", str(path)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "nests too deeply" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_recall_missing_problem_file(capsys):
    code, _ = run_cli("verify", "recall", "--problem", "/nonexistent/problem.json",
                      capsys=capsys)
    assert code == 2


# ---------------------------------------------------------------- landscape


def test_landscape_row_count(capsys):
    code, out = run_cli("landscape", "--n", "1", "--lambda", "4", "--grid", "3",
                        capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,alpha,beta,payoff"
    assert len(lines) == 1 + 27


def test_landscape_refuses_grids_over_budget(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an oversized landscape started computing rows")

    monkeypatch.setattr(cli.ewl, "payoff_three_param_fn", refused)
    assert cli.main(["landscape", "--grid", "101"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "over the budget of 1,000,000 (GRID_BUDGET)" in err


@pytest.mark.parametrize("target,verify", [("prop1", "prop1_verify"),
                                           ("formulas", "formulas_verify")])
@pytest.mark.parametrize("samples", ["1000001", "1000000000"])
def test_verify_refuses_sample_counts_over_budget(target, verify, samples, capsys, monkeypatch):
    # the sweep itself refuses the count, before it makes its random generator
    def refused(*args, **kwargs):
        raise AssertionError("an oversized sweep started drawing its samples")

    calls = []
    sweep = getattr(cli.analysis, verify)

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(cli.analysis, verify, counted)
    monkeypatch.setattr(np.random, "default_rng", refused)
    assert cli.main(["verify", target, "--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "over the budget of 1,000,000 (GRID_BUDGET)" in err
    assert len(calls) == 1


def test_landscape_refuses_n_beyond_the_optimize_range(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an oversized landscape started computing rows")

    monkeypatch.setattr(cli.ewl, "payoff_three_param_fn", refused)
    assert cli.main(["landscape", "--n", "24", "--grid", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--n must be at most 23 (MAX_QUBITS - 1), got 24" in err
    monkeypatch.undo()
    code, out = run_cli("landscape", "--n", "23", "--grid", "2", capsys=capsys)
    assert code == 0 and len(out.strip().splitlines()) == 1 + 8


def test_landscape_reference_row_and_roundtrip(capsys):
    # grid 9 puts pi/2 on the theta axis and pi/4 on the alpha axis
    code, out = run_cli("landscape", "--n", "1", "--lambda", "4", "--grid", "9",
                        capsys=capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    f = payoff_three_param_fn(1, 4.0)
    hit = False
    for t, a, b, v in rows:
        t, a, b, v = float(t), float(a), float(b), float(v)
        assert abs(f(t, a, b) - v) <= 1e-9  # emitted CSV re-evaluates to itself
        assert -1e-12 <= v <= max(1.0, 4.0 / 2.0) + 1e-9
        if abs(t - math.pi / 2) < 1e-9 and abs(a - math.pi / 4) < 1e-9 and b == 0.0:
            hit = True
            assert v == pytest.approx(2.0, abs=1e-9)
    assert hit


def test_landscape_values_match_reference(capsys, monkeypatch):
    calls = []

    def recording_fn(n, lam):
        f = payoff_three_param_fn(n, lam)

        def objective(*angles):
            values = f(*angles)
            calls.append((angles, values))
            return values

        return objective

    monkeypatch.setattr(cli.ewl, "payoff_three_param_fn", recording_fn)
    code, out = run_cli("landscape", "--n", "3", "--lambda", "20", "--grid", "9", capsys=capsys)
    assert code == 0
    assert len(calls) == 1  # one array call for the whole grid
    angles, values = calls[0]
    points = zip(*(x.ravel().tolist() for x in np.broadcast_arrays(*angles)))
    rows = out.strip().splitlines()[1:]
    assert len(rows) == values.size == 9 ** 3
    for row, (t, a, b), v in zip(rows, points, values.ravel().tolist()):
        assert row == f"{t:.12g},{a:.12g},{b:.12g},{v:.12g}"
        ref = three_param_payoff(3, 20.0, t, a, b)
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


def test_landscape_unwritable_output(capsys):
    code, _ = run_cli("landscape", "--n", "1", "--lambda", "4", "--grid", "3",
                      "--output", "/nonexistent-dir/out.csv", capsys=capsys)
    assert code == 2


def test_landscape_output_file(tmp_path, capsys):
    path = tmp_path / "surface.csv"
    code, _ = run_cli("landscape", "--n", "1", "--lambda", "4", "--grid", "3",
                      "--output", str(path), capsys=capsys)
    assert code == 0
    assert path.read_text().startswith("theta,alpha,beta,payoff")


# ---------------------------------------------------------------- reproduce


def test_reproduce_default_passes(capsys):
    code, out = run_cli("reproduce", capsys=capsys)
    assert code == 0
    assert "FAIL" not in out


def test_reproduce_json_cells(capsys):
    code, out = run_cli("reproduce", "--format", "json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    for cell in report["checks"]:
        assert set(cell) >= {"check", "inputs", "expected", "actual", "deviation", "pass"}


def test_reproduce_lambda_sweep(capsys):
    code, out = run_cli("reproduce", "--lambda-sweep", "3,4,10", "--format", "json",
                        capsys=capsys)
    assert code == 0
    report = json.loads(out)
    sweep = {c["check"]: c for c in report["checks"] if "lambda" in c["check"]}
    for lam in (3.0, 4.0, 10.0):
        cell = sweep[f"driver_quantum_optimum_lambda{lam:g}"]
        assert cell["actual"] == pytest.approx(lam / 2.0, abs=1e-6)


def test_optimize_and_reproduce_pass_at_the_largest_lambdas(capsys):
    code, out = run_cli("optimize", "--n", "1", "--lambda", "1e308", "--grid", "17",
                        "--format", "json", capsys=capsys)
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["classical_optimum"]["actual"] == pytest.approx(2.5e307, rel=1e-9)
    assert checks["quantum_optimum"]["actual"] == pytest.approx(5e307, rel=1e-9)
    # the quantum optimum misses 5e307 by about one ulp, far above an absolute 1e-6
    code, out = run_cli("reproduce", "--lambda-sweep", "1e308", "--format", "json",
                        capsys=capsys)
    assert code == 0
    cell = {c["check"]: c for c in json.loads(out)["checks"]}["driver_quantum_optimum_lambda1e+308"]
    assert cell["pass"] and cell["deviation"] > 1e-6


@pytest.mark.parametrize("n, lam", [("6", "-1e300"), ("3", "-1e308"), ("6", "-1e20")])
def test_optimize_passes_at_the_most_negative_lambdas(n, lam, capsys):
    # the optimum is p* = 0, theta = pi, where cos^2(theta/2) must be exactly 0:
    # 3.7e-33 of it times lambda would swamp the payoff of 1.  A closed form
    # whose cos^2 differed from the gates' put the classical argmax 1.8e-8
    # below pi at lambda = -1e20, where the simulated payoff is -8268.6
    code, out = run_cli("optimize", "--n", n, "--lambda", lam, "--format", "json",
                        capsys=capsys)
    assert code == 0
    classical = {c["check"]: c for c in json.loads(out)["checks"]}["classical_optimum"]
    assert classical["actual"] == 1.0 and classical["argmax"] == [math.pi]
    gate = build_gate(UnitaryParams(*classical["argmax"]))
    assert expected_payoff(n_tuple_driver_game(int(n), float(lam)),
                           [gate] * (int(n) + 1)) == classical["actual"]


def test_optimize_reports_the_value_of_its_argmax_on_a_narrow_peak(capsys):
    # at 1.5 lambda0(6), a line search that stepped off its peak between two
    # samples left a value its argmax did not reach, and optimize exited 3
    lam = 205885.75
    code, out = run_cli("optimize", "--n", "6", "--lambda", str(lam), "--format", "json",
                        capsys=capsys)
    assert code == 0
    quantum = {c["check"]: c for c in json.loads(out)["checks"]}["quantum_optimum"]
    assert quantum["actual"] >= 11665.807  # Prop. 3's angles give 11665.80745...
    assert payoff_three_param_fn(6, lam)(*quantum["argmax"]) == quantum["actual"]


@pytest.mark.parametrize("sweep", ["nan", "inf", "3,inf"])
def test_reproduce_refuses_lambda_sweeps_that_are_not_finite(sweep, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a sweep with a non-finite lambda started its checks")

    monkeypatch.setattr(cli.analysis, "maximize_1d", refused)
    monkeypatch.setattr(cli.analysis, "maximize_3d", refused)
    assert cli.main(["reproduce", "--lambda-sweep", sweep]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--lambda-sweep entries must be finite" in err


@pytest.mark.parametrize("sweep", [",,", "", " , "])
def test_reproduce_refuses_a_sweep_that_lists_no_value(sweep, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an empty sweep started its checks")

    monkeypatch.setattr(cli.analysis, "classical_optimum", refused)
    assert cli.main(["reproduce", "--lambda-sweep", sweep]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--lambda-sweep {sweep!r} lists no value" in err


# ----------------------------------------------------------- determinism etc


def test_verify_formulas_n1_restricts_sweep(capsys):
    code, out = run_cli("verify", "formulas", "--n", "1", "--samples", "40",
                        "--format", "json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    sample_check = next(c for c in report["checks"]
                        if c["check"] == "three_param_closed_form_vs_simulation")
    assert sample_check["inputs"]["n_max"] == 1


def test_verify_exits_1_on_failed_check(capsys, monkeypatch):
    from ewlsim import analysis

    broken = analysis.make_report([analysis.make_check(
        "forced_failure", {}, 0.0, 1.0, 1.0, analysis.SIM_TOL)])
    monkeypatch.setattr(cli.analysis, "recall_verify", lambda problem=None: broken)
    code, _ = run_cli("verify", "recall", capsys=capsys)
    assert code == 1


def test_reproduce_exits_3_on_classical_cross_check_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli.analysis, "payoff_one_param", lambda n, lam, t: 0.0)
    assert cli.main(["reproduce"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: classical optimum mismatch")
    assert "Traceback" not in err


def test_verify_prop3_runs_no_search(capsys, monkeypatch):
    # the classical side is the closed form; a search would need a cross-check
    def refused(*args, **kwargs):
        raise AssertionError("verify prop3 ran a search")

    monkeypatch.setattr(cli.analysis, "maximize_1d", refused)
    monkeypatch.setattr(cli.analysis, "maximize_3d", refused)
    assert cli.main(["verify", "prop3", "--n", "3"]) == 0


def test_other_arithmetic_errors_are_not_cross_check_failures(monkeypatch):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("a stray crash")

    monkeypatch.setattr(cli.analysis, "prop3_sweep", crash)
    with pytest.raises(ZeroDivisionError):
        cli.main(["verify", "prop3"])


def test_optimize_quantum_optimum_at_theta_pi_equals_the_classical_one(capsys):
    # at lambda = -1e300 the best play exits at once: theta = pi, where the
    # float cos(pi/2) = 6e-17 would let lambda swamp the exit payoff of 1
    code, out = run_cli("optimize", "--n", "6", "--lambda", "-1e300", "--mode", "both",
                        "--format", "json", capsys=capsys)
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["classical_optimum"]["actual"] == checks["quantum_optimum"]["actual"] == 1.0
    assert checks["quantum_optimum"]["argmax"] == [math.pi, 0.0, 0.0]
    ratio = checks["quantum_classical_ratio"]
    assert ratio["pass"] and ratio["actual"] == 1.0 and ratio["deviation"] == 0.0


def test_optimize_reports_theta_pi_itself_where_its_grid_formula_overshoots(capsys):
    # grid 14's last theta, 13 pi/13, rounds one ulp past pi; the search seeds
    # from pi itself and simulates its argmax as reported
    assert 13 * math.pi / 13 > math.pi
    code, out = run_cli("optimize", "--n", "1", "--lambda", "-5", "--grid", "14",
                        "--mode", "quantum", "--format", "json", capsys=capsys)
    assert code == 0
    argmax = json.loads(out)["checks"][0]["argmax"]
    assert argmax[0] == math.pi and all(0.0 <= phase < 2 * math.pi for phase in argmax[1:])


def test_landscape_axes_end_at_pi_and_two_pi_themselves(capsys):
    # at lambda = -1e300 a theta one ulp past pi gives a payoff near -1e269;
    # at pi itself the payoff lies in [0, 1]
    code, out = run_cli("landscape", "--n", "1", "--lambda", "-1e300", "--grid", "14",
                        capsys=capsys)
    assert code == 0
    rows = [[float(x) for x in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert len(rows) == 14 ** 3
    last = [payoff for theta, _, _, payoff in rows if theta == float(f"{math.pi:.12g}")]
    assert len(last) == 14 ** 2 and all(0.0 <= payoff <= 1.0 for payoff in last)
    assert max(alpha for _, alpha, _, _ in rows) == float(f"{2 * math.pi:.12g}")


def test_optimize_fails_when_the_quantum_optimum_is_below_the_classical_one(capsys, monkeypatch):
    # the quantum game embeds the classical one, so a quantum search that ends
    # below the classical optimum fails the ratio check
    original = cli.analysis.quantum_optimum

    def short(n, lam, grid_per_dim, starts, tol):
        res, sim = original(n, lam, grid_per_dim, starts, tol)
        low = 4.0 / 3.0 - 1e-6  # the classical optimum at n = 1, lambda = 4, less 1e-6
        return replace(res, value=low), low

    monkeypatch.setattr(cli.analysis, "quantum_optimum", short)
    code, out = run_cli("optimize", "--n", "1", "--lambda", "4", "--mode", "both", "--grid", "9",
                        "--format", "json", capsys=capsys)
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["classical_optimum"]["pass"] and checks["quantum_optimum"]["pass"]
    ratio = checks["quantum_classical_ratio"]
    assert not ratio["pass"] and ratio["deviation"] == pytest.approx(1e-6, rel=1e-6)


def test_optimize_checks_its_search_against_prop3_point_from_n_2(capsys):
    # Prop. 3's gate is one point of the box, so the search must reach its payoff
    code, out = run_cli("optimize", "--n", "1", "--lambda", "4", "--mode", "quantum", "--grid",
                        "9", "--format", "json", capsys=capsys)
    assert code == 0
    assert [c["check"] for c in json.loads(out)["checks"]] == ["quantum_optimum"]
    code, out = run_cli("optimize", "--n", "6", "--lambda", "205885.75", "--format", "json",
                        capsys=capsys)
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    row = checks["quantum_reaches_prop3_point"]
    theta, alpha, beta, _ = prop3_params(6)
    assert row["inputs"]["params"] == [theta, alpha, beta]
    assert row["expected"] == payoff_three_param_fn(6, 205885.75)(theta, alpha, beta)
    assert row["pass"] and row["actual"] == checks["quantum_optimum"]["actual"] >= row["expected"]


def test_optimize_fails_when_its_search_ends_below_prop3_point(capsys, monkeypatch):
    # a search stopped 1e-3 off Prop. 3's theta: above the classical optimum,
    # so only the Prop. 3 row fails, and its value is its argmax's, so the
    # simulation cross-check passes
    theta, alpha, beta, _ = prop3_params(6)

    def stalled(f, grid_per_dim, starts, tol):
        argmax = (theta + 1e-3, alpha, beta)
        return OptResult(argmax, f(*argmax), 1)

    monkeypatch.setattr(cli.analysis, "maximize_3d", stalled)
    code, out = run_cli("optimize", "--n", "6", "--lambda", "205885.75", "--format", "json",
                        capsys=capsys)
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == ["quantum_reaches_prop3_point"]
    row = checks["quantum_reaches_prop3_point"]
    assert row["deviation"] == row["expected"] - row["actual"] == pytest.approx(0.0613, abs=1e-4)


def test_optimize_exits_3_on_cross_check_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli.analysis, "payoff_one_param", lambda n, lam, t: 0.0)
    code, _ = run_cli("optimize", "--n", "1", "--lambda", "4", "--mode", "classical",
                      capsys=capsys)
    assert code == 3


@pytest.mark.parametrize("n, lam", [(3, "20"), (100, "1000"), (23, "1e8")])
@pytest.mark.parametrize("tol", ["1e-3", "1e-2", "0.1", "0.5"])
def test_optimize_classical_passes_at_coarse_tolerances(n, lam, tol, capsys):
    # the cross-check bound grows with --tol: a coarse search is not an internal fault
    code, out = run_cli("optimize", "--n", str(n), "--lambda", lam, "--mode", "classical",
                        "--tol", tol, "--format", "json", capsys=capsys)
    assert code == 0 and json.loads(out)["pass"]


def test_reproduce_exits_3_when_the_simulation_disagrees_with_its_search(capsys, monkeypatch):
    original = cli.analysis.expected_payoff
    monkeypatch.setattr(cli.analysis, "expected_payoff",
                        lambda game, gates: original(game, gates) + 1e-3)
    assert cli.main(["reproduce", "--lambda-sweep", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: quantum optimum mismatch")


def test_identical_invocations_identical_output(capsys):
    _, out1 = run_cli("verify", "prop1", "--samples", "50", "--seed", "3",
                      "--format", "json", capsys=capsys)
    _, out2 = run_cli("verify", "prop1", "--samples", "50", "--seed", "3",
                      "--format", "json", capsys=capsys)
    assert out1 == out2


def test_csv_report_format(capsys):
    import csv
    import io

    code, out = run_cli("verify", "recall", "--format", "csv", capsys=capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "inputs", "expected", "actual", "deviation", "pass"]
    assert all(len(r) == 6 for r in rows[1:])
    assert all(json.loads(r[1]) is not None for r in rows[1:])  # inputs parse back


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ewlsim", "simulate", "--n", "1", "--lambda", "4",
         "--theta", "pi/2", "--alpha", "pi/4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "expected payoff" in proc.stdout


def test_usage_error_exits_2():
    proc = subprocess.run([sys.executable, "-m", "ewlsim", "bogus-subcommand"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_reader_closing_the_pipe_early_is_no_failure():
    # the 64,000-row CSV (3.6 MB) is far past a pipe's buffer, so printing it
    # meets the closed pipe, as `ewlsim landscape ... | head -n 1` does
    with subprocess.Popen([sys.executable, "-m", "ewlsim", "landscape", "--n", "1", "--grid",
                           "40"], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"theta,alpha,beta,payoff\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


# ------------------------------------------------------------ option sets


@pytest.mark.parametrize("argv", [
    ("reproduce", "--n", "3"),
    ("reproduce", "--tol", "0"),
    ("simulate", "--theta", "0", "--grid", "5"),
    ("optimize", "--samples", "5"),
    ("verify", "prop3", "--lambda", "7"),
    ("verify", "prop1", "--problem", "x.json"),
    ("verify", "recall", "--seed", "3"),
    ("verify", "--samples", "5", "prop1"),
    ("landscape", "--tol", "1e-3"),
], ids=" ".join)
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


@pytest.mark.parametrize("target,call", [
    ("prop1", lambda a: a.prop1_verify(1000, 7)),
    ("prop2", lambda a: a.prop2_verify(n_max=5)),
    ("prop3", lambda a: a.prop3_sweep(n_values=(2, 3, 4, 5, 6))),
    ("recall", lambda a: a.recall_verify(None)),
    # formulas_verify's own defaults (500 samples, seed 11) are not the CLI's
    ("formulas", lambda a: a.formulas_verify(n_max=5, samples=1000, seed=7)),
], ids=["prop1", "prop2", "prop3", "recall", "formulas"])
def test_verify_defaults_stay_pinned(target, call, capsys):
    from ewlsim import analysis

    code, out = run_cli("verify", target, "--format", "json", capsys=capsys)
    assert code == 0
    assert out == json.dumps(call(analysis), indent=2) + "\n"

