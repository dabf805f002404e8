"""Tests of the benchmark itself: correctness gates, pinned counts, failure
accounting and tracing.  Run with ``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from ewlsim import ewl  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WrongAnswer  # noqa: E402

PINNED_EVALUATIONS = {"n3_lam20": 67772, "n6_lam100": 131117, "n1_lam10": 12371}


def _answers(tasks):
    out = []
    for task in tasks:
        answer = wl.complete(task.run())
        task.check(answer)  # the unperturbed answer passes
        out.append((task, answer))
    return out


def _rejects(task, answer):
    with pytest.raises(WrongAnswer):
        task.check(answer)


def test_opt_search_evaluation_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        inputs = wl.opt_setup(5)
        _answers(wl.opt_tasks(inputs))
        counts.append(dict(inputs["record"]["evaluations"]))
    assert counts[0] == counts[1]
    assert {k: counts[0][k] for k in PINNED_EVALUATIONS} == PINNED_EVALUATIONS


def test_sim_state_gates_reject_perturbed_answers():
    inputs = wl.sim_setup(3, counts={4: 2, 7: 1})
    for task, (payoff, dist) in _answers(wl.sim_tasks(inputs)):
        m = int(task.label[1:])
        _rejects(task, (payoff + 1e-6, dist))
        _rejects(task, (payoff, {**dist, f"o{m}": dist[f"o{m}"] + 1e-6}))
        _rejects(task, (payoff, {**dist, f"o{m + 1}": dist[f"o{m + 1}"] + 1e-6}))


def test_opt_search_gates_reject_perturbed_answers():
    inputs = wl.opt_setup(1, cases=wl.OPT_CASES[:1] + wl.OPT_CASES[3:4])
    for task, answer in _answers(wl.opt_tasks(inputs)):
        for key in ("quantum", "classical", "simulated"):
            _rejects(task, {**answer, key: answer[key] + 1e-6})
    low = {"quantum": 4.9, "classical": 2.0, "simulated": 4.9}
    with pytest.raises(WrongAnswer, match="below 5"):
        wl.opt_check(3, 20.0, {**low, "classical": 16875.0 / 6859.0})


def test_cli_session_gates_reject_perturbed_answers():
    inputs = wl.cli_setup(1)
    keep = {"simulate", "optimize", "verify_recall", "landscape"}
    inputs["commands"] = [c for c in inputs["commands"] if c[0] in keep]
    for task, (code, out) in _answers(wl.cli_tasks(inputs, in_process=True)):
        _rejects(task, (1, out))
        if task.label == "landscape":
            _rejects(task, (code, out.replace(",2\n", ",2.001\n", 1)))
            _rejects(task, (code, "\n".join(out.splitlines()[:-1])))
        elif task.label == "simulate":
            doc = run.json.loads(out)
            doc["expected_payoff"] += 1e-6
            _rejects(task, (code, run.json.dumps(doc)))
        else:
            _rejects(task, (code, out.replace('"pass": true', '"pass": false')))
    for check in ("classical_optimum", "quantum_optimum"):
        doc = {"pass": True, "checks": [
            {"check": "classical_optimum", "actual": 16875.0 / 6859.0, "pass": True},
            {"check": "quantum_optimum", "actual": 5.0, "pass": True}]}
        wl.cli_check("optimize", (0, run.json.dumps(doc)))
        next(c for c in doc["checks"] if c["check"] == check)["actual"] = 1.0
        with pytest.raises(WrongAnswer):
            wl.cli_check("optimize", (0, run.json.dumps(doc)))


def test_tree_classical_gates_reject_perturbed_answers():
    inputs = wl.tree_setup(2, ns=(3, 4))
    for task, answer in _answers(wl.tree_tasks(inputs)):
        if task.label.startswith("tree_n"):
            _rejects(task, {**answer, "payoffs": [answer["payoffs"][0] + 1e-6, *answer["payoffs"][1:]]})
            _rejects(task, {**answer, "imperfect_recall": False})
            _rejects(task, {**answer, "json_copy": wl.decision.n_tuple_driver(2, 1.0)})
        elif task.label == "behavioral_gap":
            _rejects(task, answer + 1e-3)
        else:
            first = answer[0]
            moved = dict(first[1])
            key = next(iter(moved))
            moved[key] += 1e-9
            _rejects(task, [(first[0], moved, *first[2:]), *answer[1:]])


def test_failures_are_counted_not_raised():
    def boom():
        raise ValueError("sum off")

    def wrong(_):
        raise WrongAnswer("off by one")

    def steps():
        yield
        boom()

    tasks = [wl.Task("ok", lambda: 1, lambda a: None), wl.Task("raises", boom, lambda a: None),
             wl.Task("wrong", lambda: 2, wrong), wl.Task("raises", steps, lambda a: None)]
    stats = run.run_passes(tasks, 0.0, 2)
    assert stats.passes == 2 and stats.attempted == 8
    assert stats.wrong == 2 and len(stats.failures) == 6
    # one kernel run before the first task and after every step of every task
    assert len(stats.kernel) == 1 + 2 * (3 + 2)
    kinds = sorted({(label, kind) for label, kind, _, _ in stats.failures})
    assert kinds == [("raises", "ValueError"), ("wrong", "WrongAnswer")]
    assert all(where.startswith("test_perfbench.py:") for label, _, _, where in stats.failures
               if label == "raises")


def test_tail_percentile_is_on_the_ladder_with_ten_beyond():
    assert run.tail_latency(list(range(1, 46))) == (75.0, 34)  # 11 beyond rank 34
    assert run.tail_latency(list(range(1, 109))) == (90.0, 98)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_tracer_counts_layers_and_restores_originals():
    original = ewl.final_state
    inputs = wl.sim_setup(4, counts={5: 2})
    tracer = Tracer()
    tracer.install()
    try:
        assert ewl.final_state is not original
        stats = run.run_passes(wl.sim_tasks(inputs), 0.0, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert ewl.final_state is original and wl.ewl.final_state is original
    metrics = tracer.layer_metrics(stats.passes, stats.labels)
    assert set(metrics) <= set(LAYER_METRICS)
    # two tasks, each simulating twice: m gates and two entanglers per final state
    assert metrics["ewl.final_state.calls"] == 4
    assert metrics["qstate.gate_apply.calls"] == 4 * 5
    assert metrics["qstate.entangler.calls"] == 4 * 2
    assert metrics["qstate.bytes_computed"] == 16 * 2**5 * 4 * 7
    assert metrics["ewl.closed_form.calls"] == 2  # the payoff_three_param check
    names, start, end, parent, task = tracer.spans()
    assert (end >= start).all() and (parent < np.arange(len(parent))).all()


def test_traced_run_and_bare_directory(tmp_path):
    spans = tmp_path / "spans.csv"
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "tree_classical",
                          "--seed", "1", "--seconds", "0.1", "--trace", "1", "--spans", str(spans)],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = run.json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(LAYER_METRICS)
    assert result["metrics"]["decision.actions.calls"]["value"] > 0
    assert spans.read_text().startswith("name,start,end,parent,task\n")

    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sim_state",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""
