"""Per-layer spans around ewlsim's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
ewlsim module namespace that holds it (``analysis`` binds ``expected_payoff``
at import time, ``decision`` calls ``optimize.maximize_1d`` through the
module), and ``uninstall`` puts the originals back.  A span records its
name, start, end, parent span and task id; spans stay in memory in flat
arrays until the run ends.  A layer's self time is its spans' durations
minus the durations of their child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP_TASK = -1

# (module, attribute, span name); every public function of a layer that a
# workload reaches is listed under the layer it belongs to
TARGETS = (
    ("ewlsim.qstate", "apply_single_qubit_gate", "qstate.gate_apply"),
    ("ewlsim.qstate", "apply_entangler", "qstate.entangler"),
    ("ewlsim.ewl", "final_state", "ewl.final_state"),
    ("ewlsim.ewl", "expected_payoff", "ewl.expected_payoff"),
    ("ewlsim.ewl", "outcome_distribution_ewl", "ewl.outcome_distribution"),
    ("ewlsim.ewl", "n_tuple_driver_game", "ewl.game_build"),
    ("ewlsim.ewl", "n_tuple_outcome_game", "ewl.game_build"),
    ("ewlsim.ewl", "driver_game", "ewl.game_build"),
    ("ewlsim.ewl", "two_stage_game", "ewl.game_build"),
    ("ewlsim.ewl", "payoff_one_param", "ewl.closed_form"),
    ("ewlsim.ewl", "payoff_three_param", "ewl.closed_form"),
    ("ewlsim.ewl", "amplitude_one_param", "ewl.closed_form"),
    ("ewlsim.optimize", "maximize_3d", "optimize.maximize_3d"),
    ("ewlsim.optimize", "maximize_1d", "optimize.maximize_1d"),
    ("ewlsim.decision", "n_tuple_driver", "decision.build"),
    ("ewlsim.decision", "absentminded_driver", "decision.build"),
    ("ewlsim.decision", "two_stage_problem", "decision.build"),
    ("ewlsim.decision", "n_tuple_outcomes", "decision.build"),
    ("ewlsim.decision", "outcome_of", "decision.outcome_of"),
    ("ewlsim.decision", "has_imperfect_recall", "decision.recall"),
    ("ewlsim.decision", "mixed_from_behavioral", "decision.translate"),
    ("ewlsim.decision", "behavioral_from_mixed", "decision.translate"),
    ("ewlsim.decision", "problem_to_json", "decision.json"),
    ("ewlsim.decision", "problem_from_json", "decision.json"),
    ("ewlsim.decision", "behavioral_gap", "decision.behavioral_gap"),
    ("ewlsim.analysis", "prop1_verify", "analysis.prop1"),
    ("ewlsim.analysis", "prop2_verify", "analysis.prop2"),
    ("ewlsim.analysis", "prop3_sweep", "analysis.prop3"),
    ("ewlsim.analysis", "formulas_verify", "analysis.formulas"),
    ("ewlsim.analysis", "recall_verify", "analysis.recall"),
    ("ewlsim.cli", "main", "cli.main"),
)

CLI_COMMANDS = ("simulate", "optimize", "verify_prop1", "verify_prop2", "verify_prop3",
                "verify_recall", "verify_formulas", "landscape", "reproduce")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "qstate.gate_apply.calls": "count",
    "qstate.gate_apply.self_s": "s",
    "qstate.entangler.calls": "count",
    "qstate.entangler.self_s": "s",
    "qstate.bytes_computed": "B",
    "ewl.final_state.calls": "count",
    "ewl.final_state.self_s": "s",
    "ewl.expected_payoff.self_s": "s",
    "ewl.outcome_distribution.self_s": "s",
    "ewl.game_build.self_s": "s",
    "ewl.closed_form.calls": "count",
    "ewl.closed_form.self_s": "s",
    "optimize.maximize_3d.self_s": "s",
    "optimize.maximize_1d.self_s": "s",
    "optimize.evaluations": "count",
    "optimize.grid_frac": "ratio",
    "decision.build.self_s": "s",
    "decision.actions.calls": "count",
    "decision.actions.self_s": "s",
    "decision.outcome_of.self_s": "s",
    "decision.recall.self_s": "s",
    "decision.translate.self_s": "s",
    "decision.json.self_s": "s",
    "decision.behavioral_gap.self_s": "s",
    "analysis.prop1.self_s": "s",
    "analysis.prop2.self_s": "s",
    "analysis.prop3.self_s": "s",
    "analysis.formulas.self_s": "s",
    "analysis.recall.self_s": "s",
    "analysis.checks": "count",
    "analysis.checks_failed": "count",
    "cli.startup_ms": "ms",
    **{f"cli.{c}.wall_ms": "ms" for c in CLI_COMMANDS},
    "cli.output_bytes": "B",
    "trace.overhead_pct": "%",
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task = array("q")
        self._stack: list[int] = []
        self.task_id = SETUP_TASK
        # counts kept apart for set-up (key False) and passes (key True)
        self.counts: dict[bool, dict[str, float]] = {False: defaultdict(float), True: defaultdict(float)}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counts[self.task_id != SETUP_TASK][key] += amount

    def wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # installation

    def _after_hooks(self) -> dict:
        from ewlsim import optimize

        signature_3d = inspect.signature(optimize.maximize_3d)

        def states(result, args, kwargs):
            # bytes of the complex128 amplitudes the call produced, from m
            self.count("bytes_computed", 16 * (1 << result.m))

        def opt3(result, args, kwargs):
            bound = signature_3d.bind(*args, **kwargs)
            bound.apply_defaults()
            self.count("evaluations", result.evaluations)
            self.count("grid_evaluations", bound.arguments["grid_per_dim"] ** 3)

        def opt1(result, args, kwargs):
            self.count("evaluations", result.evaluations)
            self.count("grid_evaluations", optimize.GRID_1D)

        def report(result, args, kwargs):
            self.count("checks", len(result["checks"]))
            self.count("checks_failed", sum(not c["pass"] for c in result["checks"]))

        return {
            "qstate.gate_apply": states, "qstate.entangler": states,
            "optimize.maximize_3d": opt3, "optimize.maximize_1d": opt1,
            **{name: report for _, _, name in TARGETS if name.startswith("analysis.")},
        }

    def install(self) -> None:
        from ewlsim import decision, ewl

        modules = [m for key, m in sys.modules.items() if key == "ewlsim" or key.startswith("ewlsim.")]
        hooks = self._after_hooks()
        replacements = [(getattr(sys.modules[mod], attr), self.wrap(name, getattr(sys.modules[mod], attr),
                                                                     hooks.get(name)))
                        for mod, attr, name in TARGETS]

        orig_factory = ewl.payoff_three_param_fn

        def factory(n, lam):
            return self.wrap("ewl.closed_form", orig_factory(n, lam))

        replacements.append((orig_factory, factory))
        for orig, wrapper in replacements:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        orig_actions = decision.DecisionProblem.actions
        decision.DecisionProblem.actions = self.wrap("decision.actions", orig_actions)
        self._restore.append((decision.DecisionProblem, "actions", orig_actions))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # ------------------------------------------------------------------
    # results

    def spans(self):
        """(name ids, start, end, parent, task) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32).copy(), np.frombuffer(self.start).copy(),
                np.frombuffer(self.end).copy(), np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.task, dtype=np.int64).copy())

    def write(self, path: str) -> None:
        """Write every span as one CSV row: name,start,end,parent,task."""
        rows = zip((self.names[i] for i in self.name), self.start, self.end, self.parent, self.task)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,task\n")
            fh.writelines(f"{n},{s!r},{e!r},{p},{t}\n" for n, s, e, p, t in rows)

    def layer_metrics(self, passes: int, task_labels: dict[int, str]) -> dict[str, float]:
        """Per-layer self time and counts for one set-up plus one pass.

        Spans under set-up count once; spans under passes are averaged over
        the traced passes.
        """
        names, start, end, parent, task = self.spans()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        weight = np.where(task == SETUP_TASK, 1.0, 1.0 / passes)

        def per_name(values: np.ndarray) -> dict[str, float]:
            sums = np.bincount(names, weights=values * weight, minlength=len(self.names))
            return {n: float(sums[i]) for i, n in enumerate(self.names)}

        self_s = per_name(own)
        calls = per_name(np.ones(len(dur)))
        counts = defaultdict(float)
        for phase, scale in ((False, 1.0), (True, 1.0 / passes)):
            for key, value in self.counts[phase].items():
                counts[key] += value * scale

        out = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(base, 0.0)
        out["qstate.bytes_computed"] = counts["bytes_computed"]
        out["optimize.evaluations"] = counts["evaluations"]
        out["optimize.grid_frac"] = (counts["grid_evaluations"] / counts["evaluations"]
                                     if counts["evaluations"] else 0.0)
        out["analysis.checks"] = counts["checks"]
        out["analysis.checks_failed"] = counts["checks_failed"]

        walls = defaultdict(list)
        for i in np.flatnonzero(names == self._ids.get("cli.main", -1)):
            walls[task_labels.get(int(task[i]))].append(dur[i])
        for command in CLI_COMMANDS:
            w = walls[command]
            out[f"cli.{command}.wall_ms"] = 1e3 * float(np.median(w)) if w else 0.0
        return out
