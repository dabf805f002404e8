"""The benchmark's tracer looks ewlsim functions up by name; every one must resolve.

``perfbench/tracing.py`` is imported as it is, from its file, so a deletion or
rename in ``src/`` that would break ``perfbench/run.py --trace 1`` fails here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
