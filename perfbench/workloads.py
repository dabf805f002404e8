"""The four benchmark workloads: fixed inputs from a seed, tasks and answer checks.

Each workload is a list of tasks that one closed-loop worker runs in order,
one at a time.  A task's ``run`` calls into ewlsim and returns its answer;
``check`` raises ``WrongAnswer`` when the answer disagrees with a value the
task knows independently.  ``setup`` builds the fixed inputs (games, trees,
argv lists) from the seed, so the same seed gives the same tasks.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ewlsim
from ewlsim import analysis, cli, decision, ewl, optimize

TWO_PI = 2.0 * math.pi


class WrongAnswer(Exception):
    """A task returned an answer that fails its correctness gate."""


@dataclass
class Task:
    """``run`` returns the answer; a long task may instead be a generator that
    yields between its calls into ewlsim and returns the answer, so that the
    runner can measure the host's speed between those calls."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def complete(result, between: Callable[[], None] = lambda: None):
    """The answer of ``task.run()``: a generator is run to its end, with
    ``between`` called at each yield."""
    if not inspect.isgenerator(result):
        return result
    while True:
        try:
            next(result)
        except StopIteration as stop:
            return stop.value
        between()


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    setup: Callable[[int], dict]
    # (inputs, in_process) -> tasks; in_process only changes cli_session
    tasks: Callable[[dict, bool], list[Task]]
    # passes a run makes at least, so that the tail percentile has the same
    # level in every run and falls inside the slowest task class
    min_passes: int = 1
    setup_samples: int = 7
    # set-up time is interpreter start plus import, timed from outside
    setup_is_startup: bool = False
    # pin the run to one CPU; False where numpy's two-thread BLAS pool does the work
    single_cpu: bool = True


def _close(actual: float, expected: float, tol: float, what: str) -> None:
    if not abs(actual - expected) <= tol:
        raise WrongAnswer(f"{what}: got {actual!r}, expected {expected!r} within {tol:g}")


def _wrap_phase(x: float) -> float:
    w = x % TWO_PI
    return 0.0 if w >= TWO_PI else w


# --------------------------------------------------------------------------
# sim_state: large state vectors, same seeded gate on every qubit

SIM_LAMBDA = 20.0
# one pass of 114 tasks: the p90 falls inside the 18 m=20 tasks, and each
# m=20 gate is distinct, so how many of them trip ewlsim's tolerances early
# (which shortens a task) varies less from seed to seed
SIM_COUNTS = {12: 72, 16: 24, 20: 18}


def sim_setup(seed: int, counts: dict[int, int] = SIM_COUNTS) -> dict:
    rng = np.random.default_rng(seed)
    games = {}
    for m in counts:
        games[m] = (ewl.n_tuple_driver_game(m - 1, SIM_LAMBDA), ewl.n_tuple_outcome_game(m - 1))
    cases = []
    for m, count in counts.items():
        for _ in range(count):
            params = ewl.UnitaryParams(float(rng.uniform(0.0, math.pi)),
                                       float(rng.uniform(0.0, TWO_PI)),
                                       float(rng.uniform(0.0, TWO_PI)))
            cases.append((m, params))
    order = rng.permutation(len(cases))
    return {"games": games, "cases": [cases[i] for i in order]}


def sim_check(m: int, params: ewl.UnitaryParams, answer: tuple[float, dict]) -> None:
    payoff, dist = answer
    n = m - 1
    _close(payoff, ewl.payoff_three_param(n, SIM_LAMBDA, params), 1e-9,
           f"m={m} payoff vs payoff_three_param")
    from_labels = SIM_LAMBDA * dist.get(f"o{n + 1}", 0.0) + dist.get(f"o{n + 2}", 0.0)
    _close(payoff, from_labels, 1e-9, f"m={m} payoff vs lambda*P(home)+P(lodge)")


def sim_tasks(inputs: dict, in_process: bool = True) -> list[Task]:
    tasks = []
    for m, params in inputs["cases"]:
        numeric, labelled = inputs["games"][m]
        gates = [ewl.build_gate(params)] * m

        def run(numeric=numeric, labelled=labelled, gates=gates):
            payoff = ewl.expected_payoff(numeric, gates)
            yield
            dist = ewl.outcome_distribution_ewl(labelled, gates)
            return payoff, dict(dist.probs)

        tasks.append(Task(f"m{m}", run, lambda ans, m=m, p=params: sim_check(m, p, ans)))
    return tasks


# --------------------------------------------------------------------------
# opt_search: the paper's optimization cases through the scalar closed form

REPRODUCE_SETTINGS = {"grid_per_dim": 17, "starts": 6, "tol": 1e-9}
OPT_CASES = ((1, 3.0, REPRODUCE_SETTINGS), (1, 4.0, REPRODUCE_SETTINGS),
             (1, 10.0, REPRODUCE_SETTINGS), (3, 20.0, {}), (6, 100.0, {}))


def opt_setup(seed: int, cases=OPT_CASES) -> dict:
    rng = np.random.default_rng(seed)
    games = {(n, lam): ewl.n_tuple_driver_game(n, lam) for n, lam, _ in cases}
    order = rng.permutation(len(cases))
    return {"games": games, "cases": [cases[i] for i in order], "record": {"evaluations": {}}}


def opt_check(n: int, lam: float, answer: dict) -> None:
    quantum, classical, sim = answer["quantum"], answer["classical"], answer["simulated"]
    _, closed = analysis.classical_max_closed_form(n, lam)
    _close(classical, closed, 1e-9 * max(1.0, abs(closed)), f"n={n} lam={lam:g} classical optimum")
    _close(quantum, sim, 1e-9 * max(1.0, abs(sim)),
           f"n={n} lam={lam:g} quantum optimum vs simulation at the argmax")
    if n == 1:
        _close(quantum, max(1.0, lam / 2.0), 1e-9, f"lam={lam:g} n=1 quantum optimum")
    if (n, lam) == (3, 20.0) and not quantum >= 5.0 - 1e-9:
        raise WrongAnswer(f"n=3 lam=20 quantum optimum {quantum!r} below 5")
    if not quantum >= classical - 1e-9:
        raise WrongAnswer(f"n={n} lam={lam:g} quantum optimum {quantum!r} "
                          f"below classical {classical!r}")


def opt_tasks(inputs: dict, in_process: bool = True) -> list[Task]:
    tasks = []
    for n, lam, settings in inputs["cases"]:
        label = f"n{n}_lam{lam:g}"
        game = inputs["games"][(n, lam)]

        def run(n=n, lam=lam, settings=settings, game=game, label=label):
            q = optimize.maximize_3d(ewl.payoff_three_param_fn(n, lam), **settings)
            c = optimize.maximize_1d(lambda t: ewl.payoff_one_param(n, lam, t),
                                     0.0, math.pi, tol=1e-10)
            theta, alpha, beta = q.argmax
            params = ewl.UnitaryParams(min(max(theta, 0.0), math.pi),
                                       _wrap_phase(alpha), _wrap_phase(beta))
            sim = ewl.expected_payoff(game, [ewl.build_gate(params)] * (n + 1))
            inputs["record"]["evaluations"][label] = q.evaluations
            return {"quantum": q.value, "classical": c.value, "simulated": sim}

        tasks.append(Task(label, run, lambda ans, n=n, lam=lam: opt_check(n, lam, ans)))
    return tasks


# --------------------------------------------------------------------------
# cli_session: the README experiments, one subprocess per command

CLI_LANDSCAPE_GRID = 9


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    rng = np.random.default_rng(seed)
    prop1_seed, formulas_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
    return [
        ("simulate", ["simulate", "--n", "1", "--lambda", "4", "--theta", "pi/2",
                      "--alpha", "pi/4", "--beta", "0"]),
        ("optimize", ["optimize", "--n", "3", "--lambda", "20"]),
        ("verify_prop1", ["verify", "prop1", "--samples", "1000", "--seed", str(prop1_seed)]),
        ("verify_prop2", ["verify", "prop2"]),
        ("verify_prop3", ["verify", "prop3"]),
        ("verify_recall", ["verify", "recall"]),
        ("verify_formulas", ["verify", "formulas", "--seed", str(formulas_seed)]),
        ("landscape", ["landscape", "--n", "1", "--lambda", "4",
                       "--grid", str(CLI_LANDSCAPE_GRID)]),
        ("reproduce", ["reproduce", "--lambda-sweep", "3,4,10"]),
    ]


def cli_setup(seed: int) -> dict:
    return {"commands": cli_commands(seed), "record": {"output_bytes": {}}}


def _check_report(label: str, doc: dict) -> None:
    if doc.get("pass") is not True or not doc.get("checks"):
        failed = [c["check"] for c in doc.get("checks", []) if not c.get("pass")]
        raise WrongAnswer(f"{label}: report does not pass (failed checks {failed})")


def cli_check(label: str, answer: tuple[int, str]) -> None:
    code, out = answer
    if code != 0:
        raise WrongAnswer(f"{label}: exit code {code}")
    if label == "landscape":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["theta", "alpha", "beta", "payoff"] or len(rows) != 1 + CLI_LANDSCAPE_GRID**3:
            raise WrongAnswer(f"landscape: expected header and {CLI_LANDSCAPE_GRID**3} rows")
        values = {(round(float(t), 9), round(float(a), 9), round(float(b), 9)): float(v)
                  for t, a, b, v in rows[1:]}
        # n=1, lambda=4: payoff lambda/2 at U(pi/2, pi/4, 0), which caps the surface
        key = (round(math.pi / 2, 9), round(math.pi / 4, 9), 0.0)
        _close(values.get(key, math.nan), 2.0, 1e-9, "landscape payoff at (pi/2, pi/4, 0)")
        if not all(-1e-12 <= v <= 2.0 + 1e-9 for v in values.values()):
            raise WrongAnswer("landscape: payoff outside [0, max(1, lambda/2)]")
        return
    doc = json.loads(out)
    if label == "simulate":
        _close(doc["expected_payoff"], 2.0, 1e-9, "simulate payoff at U(pi/2, pi/4, 0)")
        _close(sum(doc["outcome_distribution"].values()), 1.0, 1e-9, "simulate outcome mass")
        return
    _check_report(label, doc)
    by_name = {c["check"]: c for c in doc["checks"]}
    if label == "optimize":
        _close(by_name["classical_optimum"]["actual"], 16875.0 / 6859.0, 1e-9,
               "optimize classical optimum")
        if not by_name["quantum_optimum"]["actual"] >= 5.0 - 1e-9:
            raise WrongAnswer("optimize: quantum optimum below 5")
    if label == "reproduce":
        for lam in ("3", "4", "10"):
            if f"driver_quantum_optimum_lambda{lam}" not in by_name:
                raise WrongAnswer(f"reproduce: no quantum optimum row for lambda={lam}")


def cli_tasks(inputs: dict, in_process: bool = False) -> list[Task]:
    env = {**os.environ, "PYTHONPATH": str(Path(ewlsim.__file__).resolve().parents[1])}
    output_bytes = inputs["record"]["output_bytes"]
    tasks = []
    for label, argv in inputs["commands"]:
        argv = argv + ["--format", "json"]
        if in_process:
            def run(argv=argv, label=label):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                output_bytes[label] = len(out.getvalue().encode())
                return code, out.getvalue()
        else:
            def run(argv=argv, label=label):
                proc = subprocess.run([sys.executable, "-m", "ewlsim", *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                output_bytes[label] = len(proc.stdout.encode())
                return proc.returncode, proc.stdout

        tasks.append(Task(label, run, lambda ans, label=label: cli_check(label, ans)))
    return tasks


# --------------------------------------------------------------------------
# tree_classical: history trees of the n-tuple driver, where decision dominates

TREE_NS = (25, 50, 100)
TREE_EXITS = 3
# strategies per round-trip task, and round-trip tasks per pass; with three
# trees and the gap task a pass has 7 tasks, so the p90 falls inside the
# n=100 trees (1/7 of the tasks) and the p50 inside the n=25 trees
TREE_ROUNDTRIPS = 14
TREE_ROUNDTRIP_TASKS = 3
GAP_TARGET = {"o00": 0.5, "o01": 0.0, "o10": 0.0, "o11": 0.5}


def tree_setup(seed: int, ns=TREE_NS) -> dict:
    rng = np.random.default_rng(seed)
    trees = []
    for n in ns:
        lam = float(rng.uniform(1.0, 20.0))
        exits = tuple(float(p) for p in rng.uniform(0.05, 0.95, size=TREE_EXITS))
        trees.append((n, lam, exits))
    # three binary sets for the perfect-recall control, two for the two-stage problem
    strategies = [[decision.BehavioralStrategy(tuple((p, 1.0 - p) for p in rng.uniform(0.0, 1.0, size=k)))
                   for k in (3, 2) * (TREE_ROUNDTRIPS // 2)]
                  for _ in range(TREE_ROUNDTRIP_TASKS)]
    return {
        "trees": trees,
        "two_stage": decision.two_stage_problem(),
        "perfect_recall": analysis.perfect_recall_control(),
        "gap_target": decision.OutcomeDistribution(GAP_TARGET),
        "strategies": strategies,
    }


def tree_check(n: int, lam: float, exits: tuple[float, ...], answer: dict) -> None:
    for p, value in zip(exits, answer["payoffs"], strict=True):
        theta = 2.0 * math.acos(math.sqrt(p))
        _close(value, ewl.payoff_one_param(n, lam, theta), 1e-9,
               f"n={n} payoff at exit probability {p:.6f}")
    if answer["imperfect_recall"] is not True:
        raise WrongAnswer(f"n={n}: driver tree not flagged as imperfect recall")
    if answer["json_copy"] != answer["tree"]:
        raise WrongAnswer(f"n={n}: JSON round trip changed the tree")


def gap_check(answer: float) -> None:
    _close(answer, 0.25, 1e-6, "two-stage behavioral gap")


def roundtrip_check(answer: list[tuple[dict, ...]]) -> None:
    for dists in answer:
        for other in dists[1:]:
            dev = max(abs(dists[0][k] - other.get(k, math.nan)) for k in dists[0])
            if not dev <= 1e-12:
                raise WrongAnswer(f"mixed/behavioral round trip moved an outcome by {dev!r}")


def tree_tasks(inputs: dict, in_process: bool = True) -> list[Task]:
    tasks = []
    for n, lam, exits in inputs["trees"]:
        def run(n=n, lam=lam, exits=exits):
            tree = decision.n_tuple_driver(n, lam)
            payoffs = []
            for p in exits:
                yield
                payoffs.append(decision.expected_payoff_classical(
                    tree, decision.BehavioralStrategy(((p, 1.0 - p),))))
            yield
            copy = decision.problem_from_json(decision.problem_to_json(tree))
            return {"tree": tree, "payoffs": payoffs, "json_copy": copy,
                    "imperfect_recall": decision.has_imperfect_recall(tree)}

        tasks.append(Task(f"tree_n{n}", run,
                          lambda ans, n=n, lam=lam, exits=exits: tree_check(n, lam, exits, ans)))

    def gap():
        return decision.behavioral_gap(inputs["two_stage"], inputs["gap_target"])

    def roundtrips(strategies):
        out = []
        for strat in strategies:
            # perfect recall: both translations keep the outcome; two-stage:
            # no path meets a set twice, so the product weights keep it
            problem = inputs["perfect_recall"] if len(strat.local) == 3 else inputs["two_stage"]
            mixed = decision.mixed_from_behavioral(problem, strat)
            dists = [decision.outcome_of(problem, strat), decision.outcome_of(problem, mixed)]
            if problem is inputs["perfect_recall"]:
                back = decision.behavioral_from_mixed(problem, mixed)
                dists.append(decision.outcome_of(problem, back))
            out.append(tuple(dict(d.probs) for d in dists))
        return out

    tasks.append(Task("behavioral_gap", gap, gap_check))
    for chunk in inputs["strategies"]:
        tasks.append(Task("mixed_behavioral_roundtrip", lambda chunk=chunk: roundtrips(chunk),
                          roundtrip_check))
    return tasks


# --------------------------------------------------------------------------

WORKLOADS = {
    "sim_state": Workload(
        "sim_state",
        {"m_counts": SIM_COUNTS, "lambda": SIM_LAMBDA, "gates": "seeded U(theta, alpha, beta), same on every qubit"},
        sim_setup, sim_tasks, setup_samples=3, single_cpu=False,
    ),
    "opt_search": Workload(
        "opt_search",
        {"cases": [{"n": n, "lambda": lam, "maximize_3d": s or "defaults"} for n, lam, s in OPT_CASES],
         "maximize_1d_tol": 1e-10},
        opt_setup, opt_tasks, min_passes=20,
    ),
    "cli_session": Workload(
        "cli_session",
        {"commands": [label for label, _ in cli_commands(0)], "format": "json",
         "seeded": ["verify prop1 --seed", "verify formulas --seed"]},
        cli_setup, cli_tasks, min_passes=5, setup_samples=7, setup_is_startup=True,
    ),
    "tree_classical": Workload(
        "tree_classical",
        {"tree_n": list(TREE_NS), "exit_probabilities_per_tree": TREE_EXITS,
         "roundtrip_tasks": TREE_ROUNDTRIP_TASKS, "strategies_per_roundtrip_task": TREE_ROUNDTRIPS,
         "behavioral_gap_grid": 201},
        tree_setup, tree_tasks, min_passes=15,
    ),
}
