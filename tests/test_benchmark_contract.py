"""The benchmark's tracer looks ewlsim functions up by name; every one must resolve,
and the benchmark's tasks must pass their own answer checks.

``perfbench/tracing.py`` and ``perfbench/workloads.py`` are imported as they
are, from their files, so a deletion, rename or wrong answer in ``src/`` that
would break ``perfbench/run.py`` fails here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def test_every_traced_target_resolves():
    tracing = _tracing()
    missing = [(mod, attr) for mod, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_tracer_installs_and_restores_every_target():
    tracing = _tracing()
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(importlib.import_module(mod), attr) is not fn
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn


@pytest.mark.parametrize("name", ["tree_classical", "opt_search", "cli_session", "sim_state"])
def test_one_workload_pass_passes_its_checks(name):
    workloads = _load("workloads")
    workload = workloads.WORKLOADS[name]
    # sim_state runs the same tasks on 5 and 9 qubits, then on 16 and 20 qubits,
    # where its own pass sets the tail. cli_session runs its README commands in process.
    setups = ([workloads.sim_setup(1, {5: 2, 9: 2}), workloads.sim_setup(1, {16: 1, 20: 2})]
              if name == "sim_state" else [workload.setup(1)])
    for inputs in setups:
        tasks = workload.tasks(inputs, True)
        assert tasks
        for task in tasks:
            task.check(workloads.complete(task.run()))
