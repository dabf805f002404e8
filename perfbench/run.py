"""ewlsim benchmark runner.

One run:   python3 perfbench/run.py --workload sim_state --seed 1 --seconds 20 --trace 0
Sweep:     python3 perfbench/run.py --workload all --seed 1 --repeat 5 --save out.json
Compare:   python3 perfbench/run.py --compare old.json new.json

A run sets up the workload's inputs from the seed, then makes whole passes
over its task list, one task at a time, until ``--seconds`` have gone by
(and at least the workload's minimum number of passes are done).  Every
answer is checked.  The last line of standard output is the result JSON:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one task in flight, and at most two threads counting numpy's BLAS pool.
# The pool size changes the summation order, and with it where m=20 states
# trip ewlsim's absolute 1e-12 tolerances, so it is pinned, not inherited.
NPROC = len(os.sched_getaffinity(0))
THREADS = str(min(2, NPROC))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms",
              "peak_rss_mb": "MB"}
# printed and counted through attempted/failed, but not a bounded metric:
# it is 0 on three of the four workloads
FAILED_FRAC = ("failed_frac", "ratio")
BYTES_NOTE = ("qstate.bytes_computed is 16 * 2^m bytes per state a gate or entangler "
              "call produced, computed from m; it is not a measured bandwidth")


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _use_checkout_source() -> None:
    if not (SRC / "ewlsim" / "__init__.py").is_file():
        _fail(f"no ewlsim source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------------
# closed-loop passes


# The host this was built on switches each CPU between a fast and a ~1.8x
# slower state within seconds, with CPU time equal to wall time (see
# README).  A fixed reference kernel runs before every task, between the
# steps of a long task, and after the last task; each step's time is scaled
# by REFERENCE_NOMINAL_S over the geometric mean of the kernel times just
# before and just after it, which reports it in seconds of a host that runs
# the kernel in REFERENCE_NOMINAL_S (its fast-state time on the build host).
REFERENCE_NOMINAL_S = 6.0e-3

# 4 MiB of real (not zero-mapped) memory, twice the L2 of the build host
_BUFFER = bytes(range(256)) * (1 << 14)


def reference_kernel() -> float:
    """Time one run of fixed interpreter work: float math, a small dict, and
    scattered reads from a buffer larger than L2.  The mix follows the
    workloads' slow-down under host contention more closely than either part
    alone."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(20000):
        x = math.sin(i * 1e-3) * math.cos(i * 2e-3)
        table[i & 1023] = x
        acc += x * x
    mask = len(_BUFFER) - 1
    for i in range(0, 1 << 20, 97):
        acc += _BUFFER[(i * 40503) & mask]
    return time.perf_counter() - t0


def host_scale(kernel_before: float, kernel_after: float) -> float:
    return REFERENCE_NOMINAL_S / math.sqrt(kernel_before * kernel_after)


class StepClock:
    """Times one task step by step; the reference kernel runs between steps
    and its own time counts in neither total."""

    def __init__(self, kernel_times: list[float]):
        self.kernel_times = kernel_times
        self.raw = self.scaled = 0.0
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._t0
        before = self.kernel_times[-1]
        self.kernel_times.append(reference_kernel())
        self.raw += elapsed
        self.scaled += elapsed * host_scale(before, self.kernel_times[-1])
        self._t0 = time.perf_counter()


@dataclass
class PassStats:
    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)
    pass_of: list[int] = field(default_factory=list)
    failures: list[tuple[str, str, str, str]] = field(default_factory=list)
    wrong: int = 0
    labels: dict[int, str] = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return self.pass_of[-1] + 1 if self.pass_of else 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def walls(self, latencies: list[float]) -> list[float]:
        """Time of each pass: the sum of its task latencies."""
        sums = [0.0] * self.passes
        for p, lat in zip(self.pass_of, latencies):
            sums[p] += lat
        return sums


def run_passes(tasks, seconds: float, min_passes: int, tracer=None) -> PassStats:
    """Whole passes over ``tasks`` until ``seconds`` elapse and ``min_passes`` are done."""
    from workloads import WrongAnswer, complete

    stats = PassStats(kernel=[reference_kernel()])
    start = time.perf_counter()
    done = 0
    while done < min_passes or time.perf_counter() - start < seconds:
        for task in tasks:
            task_id = len(stats.latencies)
            stats.labels[task_id] = task.label
            stats.pass_of.append(done)
            if tracer is not None:
                tracer.task_id = task_id
                root = tracer.open(f"task.{task.label}")
            clock = StepClock(stats.kernel)
            try:
                task.check(complete(task.run(), clock.lap))
            except WrongAnswer as exc:
                stats.wrong += 1
                stats.failures.append((task.label, "WrongAnswer", str(exc), ""))
            except Exception as exc:  # a task that raises is a failed task, not a crash
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{Path(frame.filename).name}:{frame.lineno}"
                stats.failures.append((task.label, type(exc).__name__, str(exc), where))
            clock.lap()
            stats.latencies.append(clock.raw)
            stats.scaled.append(clock.scaled)
            if tracer is not None:
                tracer.close(root)
        done += 1
    return stats


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile with at least 10 tasks beyond it.

    Nearest rank: the value at rank ceil(p/100 * n) of the sorted latencies.
    A fixed ladder keeps the percentile the same when a run makes one pass
    more or less, as long as the task mix of a pass is fixed.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            chosen = p
    return chosen, ordered[max(math.ceil(chosen / 100.0 * n), 1) - 1]


# --------------------------------------------------------------------------
# set-up probes: each set-up sample is a fresh interpreter


def setup_samples(workload, seed: int) -> tuple[list[float], list[float]]:
    """(raw, scaled) set-up times, each from a fresh interpreter."""
    raw, scaled = [], []
    for _ in range(workload.setup_samples):
        if workload.setup_is_startup:
            before = reference_kernel()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import ewlsim"], env={**os.environ, "PYTHONPATH": str(SRC)},
                           check=True, timeout=120)
            elapsed = time.perf_counter() - t0
            after = reference_kernel()
        else:
            out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                                  "--workload", workload.name, "--seed", str(seed)],
                                 env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, capture_output=True, text=True,
                                 timeout=170)
            elapsed, before, after = map(float, out.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * host_scale(before, after))
    return raw, scaled


def probe_setup(name: str, seed: int) -> None:
    """Print the set-up time and the reference kernel times around it, in this process."""
    before = reference_kernel()
    t0 = time.perf_counter()
    import workloads  # imports ewlsim

    workloads.WORKLOADS[name].setup(seed)
    elapsed = time.perf_counter() - t0
    print(elapsed, before, reference_kernel())


# --------------------------------------------------------------------------
# metadata


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[f"L{level}{suffix}"] = size
    return sizes


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_meta() -> dict:
    import numpy

    import ewlsim

    return {
        "commit": _commit(),
        "ewlsim": ewlsim.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "run_on_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(THREADS),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
        "notes": [BYTES_NOTE],
    }


# --------------------------------------------------------------------------
# one run


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _print_failures(failures: list[tuple[str, str, str, str]], attempted: int) -> None:
    if not failures:
        return
    kinds = Counter((label, kind, where) for label, kind, _, where in failures)
    print(f"failures: {len(failures)} of {attempted} tasks")
    for (label, kind, where), count in sorted(kinds.items()):
        example = next(msg for lab, k, msg, w in failures if (lab, k, w) == (label, kind, where))
        print(f"  {count:4d} x {label}: {kind} at {where or '-'}: {example}")


def _print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans: str | None) -> int:
    started = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    if wl.single_cpu:
        # the reference kernel, the tasks and their subprocesses share one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "params": wl.params, **host_meta()}

    if not trace:
        raw_setups, setups = setup_samples(wl, seed)
        inputs = wl.setup(seed)
        stats = run_passes(wl.tasks(inputs, False), seconds, wl.min_passes)
        latencies = stats.scaled
        pct, tail = tail_latency(latencies)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(stats.walls(latencies)),
            "task_p50_ms": 1e3 * statistics.median(latencies),
            "task_tail_ms": 1e3 * tail,
            "peak_rss_mb": _peak_rss_mb(children=wl.setup_is_startup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        failed_frac = len(stats.failures) / stats.attempted
        by_label: dict[str, list[float]] = {}
        for task_id, latency in enumerate(latencies):
            by_label.setdefault(stats.labels[task_id], []).append(1e3 * latency)
        meta.update({
            "passes": stats.passes, "tasks": stats.attempted, "tail_percentile": pct,
            FAILED_FRAC[0]: failed_frac,
            "label_p50_ms": {k: statistics.median(v) for k, v in by_label.items()},
            "setup_samples_s": {"raw": raw_setups, "scaled": setups},
            "unscaled": {"setup_s": statistics.median(raw_setups),
                         "wall_s": statistics.median(stats.walls(stats.latencies)),
                         "task_p50_ms": 1e3 * statistics.median(stats.latencies),
                         "task_tail_ms": 1e3 * tail_latency(stats.latencies)[1]},
            "reference_kernel_s": {"nominal": REFERENCE_NOMINAL_S,
                                   "median": statistics.median(stats.kernel)},
            "record": inputs.get("record", {}),
        })
        print(f"workload {name}  seed {seed}  passes {stats.passes}  tasks {stats.attempted}  "
              f"tail = p{pct:.0f} over {stats.attempted} tasks  "
              f"setup = median of {len(setups)}  host speed "
              f"{REFERENCE_NOMINAL_S / statistics.median(stats.kernel):.3f}")
        _print_metrics({**metrics, FAILED_FRAC[0]: {"value": failed_frac, "unit": FAILED_FRAC[1]}})
        attempted, failed, wrong = stats.attempted, len(stats.failures), stats.wrong
    else:
        from tracing import LAYER_METRICS, Tracer

        startup = setup_samples(wl, seed)[0] if wl.setup_is_startup else []
        inputs = wl.setup(seed)
        plain = run_passes(wl.tasks(inputs, True), seconds / 2, 1)
        del inputs
        tracer = Tracer()
        tracer.install()
        try:
            root = tracer.open("setup")
            inputs = wl.setup(seed)
            tracer.close(root)
            stats = run_passes(wl.tasks(inputs, True), seconds / 2, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics(stats.passes, stats.labels)
        values["cli.startup_ms"] = 1e3 * statistics.median(startup) if startup else 0.0
        values["cli.output_bytes"] = float(sum(inputs.get("record", {}).get("output_bytes", {}).values()))
        traced_wall = statistics.median(stats.walls(stats.scaled))
        plain_wall = statistics.median(plain.walls(plain.scaled))
        values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
        if spans:
            tracer.write(spans)
        meta.update({"passes_untraced": plain.passes, "passes_traced": stats.passes,
                     "spans": len(tracer.start), "record": inputs.get("record", {}),
                     "wall_s_untraced": plain_wall, "wall_s_traced": traced_wall})
        print(f"workload {name}  seed {seed}  traced passes {stats.passes}  "
              f"untraced passes {plain.passes}  spans {len(tracer.start)}")
        _print_metrics(metrics)
        # both halves are checked and counted
        stats.failures += plain.failures
        attempted = stats.attempted + plain.attempted
        failed, wrong = len(stats.failures), stats.wrong + plain.wrong

    _print_failures(stats.failures, attempted)
    meta["run_s"] = time.perf_counter() - started
    print("meta " + json.dumps(meta, default=str))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# --------------------------------------------------------------------------
# sweeps and comparison


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sweep(names: list[str], seed: int, repeat: int, seconds: float, trace: bool,
          save: str | None) -> int:
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(repeat):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed + i), "--seconds", str(seconds), "--trace", str(int(trace))]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                _fail(f"{name} seed {seed + i} exited with {proc.returncode}")
            meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), {})
            runs[name].append({"seed": seed + i, "result": json.loads(lines[-1]), "meta": meta})
            print(f"  ran {name} seed {seed + i}", file=sys.stderr)
    doc = {"host": host_meta(), "seconds": seconds, "trace": int(trace), "runs": runs}
    print_summary(doc)
    if save:
        Path(save).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def _metric_values(doc: dict, workload: str) -> dict[str, tuple[list[float], str]]:
    out: dict[str, tuple[list[float], str]] = {}
    for run in doc["runs"][workload]:
        entries = dict(run["result"]["metrics"])
        if not doc["trace"]:
            r = run["result"]
            entries[FAILED_FRAC[0]] = {"value": r["failed"] / r["attempted"], "unit": FAILED_FRAC[1]}
        for name, entry in entries.items():
            out.setdefault(name, ([], entry["unit"]))[0].append(entry["value"])
    return out


def print_summary(doc: dict) -> None:
    print(f"{'workload':15s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} unit   (runs, trace={doc['trace']})")
    for workload, runs in doc["runs"].items():
        for name, (values, unit) in _metric_values(doc, workload).items():
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:15s} {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{unit}   ({len(values)})")
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload:15s} {'tasks':34s} attempted {attempted}, failed {failed}, "
              f"no wrong answer: {correct}")


def _bounds() -> dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    bounds = _bounds()
    print(f"{'workload':15s} {'metric':34s} {'old median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'new/old':>8s}  verdict")
    for workload in new["runs"]:
        if workload not in old["runs"]:
            print(f"{workload:15s} (not in {old_path})")
            continue
        old_vals, new_vals = _metric_values(old, workload), _metric_values(new, workload)
        for name, (values, unit) in new_vals.items():
            if name not in old_vals:
                continue
            oq1, omed, oq3 = _quartiles(old_vals[name][0])
            nq1, nmed, nq3 = _quartiles(values)
            ratio = nmed / omed if omed else float("nan")
            verdict = "no bound"
            if name in bounds and omed:
                change = (nmed - omed) / omed
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict = (f"WORSE by more than {bounds[name]['bound']:g}"
                           if worse > bounds[name]["bound"] else f"within {bounds[name]['bound']:g}")
            print(f"{workload:15s} {name:34s} {omed:12.6g} [{oq1:9.4g}, {oq3:9.4g}] "
                  f"{nmed:12.6g} [{nq1:9.4g}, {nq3:9.4g}] {ratio:8.4f}  {verdict} ({unit})")
    return 0


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="sim_state, opt_search, cli_session, tree_classical or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload in a sweep, with seeds seed..seed+repeat-1")
    parser.add_argument("--save", default=None, help="write the sweep's runs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two saved sweeps metric by metric")
    parser.add_argument("--spans", default=None, help="with --trace 1, write every span as CSV")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    _use_checkout_source()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        _fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0 or args.repeat < 1:
        _fail("--seconds must be positive and --repeat at least 1")
    if len(names) == 1 and args.repeat == 1 and args.save is None:
        return run_workload(names[0], args.seed, args.seconds, bool(args.trace), args.spans)
    return sweep(names, args.seed, args.repeat, args.seconds, bool(args.trace), args.save)


if __name__ == "__main__":
    sys.exit(main())
