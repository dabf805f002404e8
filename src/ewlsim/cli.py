"""Command-line front end: reproducible experiments with text/CSV/JSON output.

Subcommands: simulate | optimize | verify | landscape | reproduce.
Exit codes: 0 success, 1 failed check, 2 usage/validation error, 3 internal
cross-check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import analysis, decision, ewl, optimize
from .optimize import GRID_BUDGET, TWO_PI, wrap_phase
from .qstate import check_qubit_count

# verify prop2 simulates 101 states of 2^(n+1) amplitudes for every n up to --n,
# so each step up doubles its time: --n 16 took 1.3 s in process on a 2-vCPU
# host (one CPU, two BLAS threads) and --n 17 took 2.6 s
PROP2_MAX_N = 16

_ANGLE_RE = re.compile(r"^([+-]?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$")


def parse_angle(text: str) -> float:
    """Parse an angle given as a float or a pi-rational like '9pi/16'."""
    text = text.strip().lower().replace(" ", "")
    match = _ANGLE_RE.match(text)
    if match:
        coef_txt, div_txt = match.groups()
        coef = 1.0 if coef_txt in ("", "+") else -1.0 if coef_txt == "-" else float(coef_txt)
        value = coef * math.pi
        if div_txt is not None:
            div = float(div_txt)
            if div == 0.0:
                raise argparse.ArgumentTypeError(f"angle {text!r} divides by zero")
            value /= div
        return value
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


class ValidationError(Exception):
    pass


@dataclass
class RunConfig:
    """Validated numeric configuration shared by the subcommands."""

    command: str
    n: int | None
    lam: float
    theta: float | None
    alpha: float
    beta: float
    grid: int
    mode: str | None
    samples: int
    seed: int
    tol: float
    fmt: str
    output: str | None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls(
            command=args.command,
            n=args.n,
            lam=args.lam,
            theta=getattr(args, "theta", None),
            alpha=getattr(args, "alpha", 0.0) or 0.0,
            beta=getattr(args, "beta", 0.0) or 0.0,
            grid=args.grid,
            mode=getattr(args, "mode", None),
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
            fmt=args.format,
            output=args.output,
        )
        cfg.validate()
        return cfg

    def n_value(self, default: int = 1) -> int:
        return default if self.n is None else self.n

    def validate(self) -> None:
        if self.n is not None and self.n < 1:
            raise ValidationError(f"--n must be >= 1, got {self.n}")
        if not math.isfinite(self.lam):
            raise ValidationError("--lambda must be finite")
        if self.theta is not None and not 0.0 <= self.theta <= math.pi:
            raise ValidationError(f"--theta must lie in [0, pi], got {self.theta!r}")
        if self.grid < 2:
            raise ValidationError(f"--grid must be >= 2, got {self.grid}")
        scans_grid = self.command == "landscape" or (self.command == "optimize"
                                                     and self.mode != "classical")
        if scans_grid and self.grid ** 3 > GRID_BUDGET:
            raise ValidationError(f"--grid {self.grid} gives {self.grid ** 3:,} grid points, "
                                  f"over the budget of {GRID_BUDGET:,} (GRID_BUDGET)")
        if self.samples < 1:
            raise ValidationError(f"--samples must be >= 1, got {self.samples}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"--tol must be finite and positive, got {self.tol!r}")

    def unitary_params(self) -> ewl.UnitaryParams:
        return ewl.UnitaryParams(self.theta, wrap_phase(self.alpha), wrap_phase(self.beta))


# --------------------------------------------------------------------------
# output plumbing


def _emit(text: str, output: str | None) -> int:
    if output is None:
        print(text)
        return 0
    try:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return 2
    return 0


def _checks_text(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        note = f"  [{c['note']}]" if "note" in c else ""
        if "argmax" in c:
            argmax = ", ".join(f"{x:.9f}" for x in c["argmax"])
            note += f"  argmax=({argmax}) evals={c['evaluations']}"
        lines.append(f"{status}  {c['check']}  deviation={c['deviation']:.3e}{note}")
    lines.append(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return "\n".join(lines)


def _checks_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "inputs", "expected", "actual", "deviation", "pass"])
    for c in report["checks"]:
        writer.writerow([
            c["check"],
            json.dumps(c["inputs"]),
            json.dumps(c["expected"]),
            json.dumps(c["actual"]),
            f"{c['deviation']:.12g}",
            str(c["pass"]).lower(),
        ])
    return buf.getvalue().rstrip("\n")


def _emit_report(report: dict, cfg: RunConfig) -> int:
    if cfg.fmt == "json":
        text = json.dumps(report, indent=2)
    elif cfg.fmt == "csv":
        text = _checks_csv(report)
    else:
        text = _checks_text(report)
    return _emit(text, cfg.output)


# --------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.theta is None:
        print("error: simulate requires --theta", file=sys.stderr)
        return 2
    params = cfg.unitary_params()
    n = cfg.n_value()
    m = n + 1
    game = ewl.n_tuple_driver_game(n, cfg.lam)
    outcomes = ewl.n_tuple_outcome_game(n)
    gates = [ewl.build_gate(params)] * m
    probs = ewl.final_state(gates).probabilities  # only the basis table needs the 2^m amplitudes
    payoff = ewl.expected_payoff(game, gates)
    dist = ewl.outcome_distribution_ewl(outcomes, gates)

    basis = {format(y, f"0{m}b"): float(probs[y]) for y in range(1 << m)}
    doc = {
        "n": n,
        "lambda": cfg.lam,
        "theta": params.theta,
        "alpha": params.alpha,
        "beta": params.beta,
        "basis_probabilities": basis,
        "outcome_distribution": dict(sorted(dist.probs.items())),
        "expected_payoff": payoff,
    }
    if cfg.fmt == "json":
        return _emit(json.dumps(doc, indent=2), cfg.output)
    if cfg.fmt == "csv":
        rows = ["field,key,value"]
        rows += [f"basis,{k},{v:.12g}" for k, v in basis.items()]
        rows += [f"outcome,{k},{v:.12g}" for k, v in sorted(dist.probs.items())]
        rows.append(f"payoff,,{payoff:.12g}")
        return _emit("\n".join(rows), cfg.output)
    lines = [f"final state probabilities (n={n}, lambda={cfg.lam:g}, "
             f"theta={params.theta:.6f}, alpha={params.alpha:.6f}, beta={params.beta:.6f})"]
    lines += [f"  |{k}>  {v:.12f}" for k, v in basis.items()]
    lines.append("outcome distribution")
    lines += [f"  {k}  {v:.12f}" for k, v in sorted(dist.probs.items())]
    lines.append(f"expected payoff  {payoff:.12f}")
    return _emit("\n".join(lines), cfg.output)


def _search_fields(check: dict, res: optimize.OptResult) -> dict:
    """The check with the optimizer's argmax and evaluation count as fields."""
    return {**check, "argmax": list(res.argmax), "evaluations": res.evaluations}


def cmd_optimize(cfg: RunConfig, starts: int) -> int:
    report_checks = []
    classical_value = quantum_value = None
    n = cfg.n_value()
    if cfg.mode != "classical":
        check_qubit_count(n + 1)  # the quantum argmax is cross-checked by simulation

    if cfg.mode in ("classical", "both"):
        res = optimize.maximize_1d(
            lambda t: ewl.payoff_one_param(n, cfg.lam, t), 0.0, math.pi, tol=cfg.tol)
        p_star, closed = analysis.classical_max_closed_form(n, cfg.lam)
        dev = abs(res.value - closed)
        if dev > 1e-6 * max(1.0, abs(closed)):
            print(f"error: classical optimizer {res.value!r} disagrees with "
                  f"closed form {closed!r}", file=sys.stderr)
            return 3
        classical_value = res.value
        report_checks.append(_search_fields(analysis.make_check(
            "classical_optimum", {"n": n, "lambda": cfg.lam},
            closed, res.value, dev, True, note=f"p*={p_star:.9f}"), res))

    if cfg.mode in ("quantum", "both"):
        res = optimize.maximize_3d(
            ewl.payoff_three_param_fn(n, cfg.lam),
            grid_per_dim=cfg.grid, starts=starts, tol=cfg.tol)
        theta, alpha, beta = res.argmax
        params = ewl.UnitaryParams(min(max(theta, 0.0), math.pi),
                                   wrap_phase(alpha), wrap_phase(beta))
        gate = ewl.build_gate(params)
        sim = ewl.expected_payoff(ewl.n_tuple_driver_game(n, cfg.lam),
                                  [gate] * (n + 1))
        dev = abs(sim - res.value)
        if dev > 1e-9 * max(1.0, abs(sim)):
            print(f"error: quantum optimum {res.value!r} disagrees with "
                  f"simulation {sim!r} at the argmax", file=sys.stderr)
            return 3
        quantum_value = res.value
        report_checks.append(_search_fields(analysis.make_check(
            "quantum_optimum", {"n": n, "lambda": cfg.lam, "grid": cfg.grid},
            sim, res.value, dev, True), res))

    if classical_value is not None and quantum_value is not None:
        ratio = quantum_value / classical_value if classical_value else math.inf
        report_checks.append(analysis.make_check(
            "quantum_classical_ratio", {"n": n, "lambda": cfg.lam},
            None, ratio, 0.0, True))
    report = analysis.make_report(report_checks)
    code = _emit_report(report, cfg)
    return code


def cmd_verify(cfg: RunConfig, target: str, problem_path: str | None) -> int:
    if target == "prop1":
        report = analysis.prop1_verify(cfg.samples, cfg.seed)
    elif target == "prop2":
        n_max = cfg.n_value(5)
        if n_max > PROP2_MAX_N:
            raise ValidationError(f"verify prop2 simulates 101 states of 2^(n+1) amplitudes for "
                                  f"every n up to --n, so --n is capped at {PROP2_MAX_N}, "
                                  f"got {n_max}")
        report = analysis.prop2_verify(n_max=n_max, theta_grid=101)
    elif target == "prop3":
        n_values = tuple(range(2, max(cfg.n_value(6), 2) + 1))
        report = analysis.prop3_sweep(n_values=n_values)
    elif target == "recall":
        problem = None
        if problem_path is not None:
            try:
                with open(problem_path) as fh:
                    problem = decision.problem_from_json(fh.read())
            except (OSError, ValueError, KeyError) as exc:
                print(f"error: cannot load problem {problem_path}: {exc}", file=sys.stderr)
                return 2
        report = analysis.recall_verify(problem)
    elif target == "formulas":
        report = analysis.formulas_verify(n_max=cfg.n_value(5), samples=cfg.samples,
                                          seed=cfg.seed)
    else:
        print(f"error: unknown verify target {target!r}", file=sys.stderr)
        return 2
    code = _emit_report(report, cfg)
    if code != 0:
        return code
    return 0 if report["pass"] else 1


def cmd_landscape(cfg: RunConfig) -> int:
    index = np.arange(cfg.grid)
    thetas = index * math.pi / (cfg.grid - 1)
    phases = index * TWO_PI / (cfg.grid - 1)
    f = ewl.payoff_three_param_fn(cfg.n_value(), cfg.lam)
    values = f(thetas[:, None, None], phases[None, :, None], phases[None, None, :])
    rows = ["theta,alpha,beta,payoff"]
    rows += [f"{t:.12g},{a:.12g},{b:.12g},{v:.12g}" for (t, a, b), v in
             zip(product(thetas.tolist(), phases.tolist(), phases.tolist()), values.ravel().tolist())]
    return _emit("\n".join(rows), cfg.output)


def cmd_reproduce(cfg: RunConfig, lambda_sweep: str | None) -> int:
    try:
        lams = [float(x) for x in (lambda_sweep or "").split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse --lambda-sweep {lambda_sweep!r}") from None
    if not all(math.isfinite(lam) for lam in lams):
        raise ValidationError(f"--lambda-sweep entries must be finite, got {lambda_sweep!r}")
    checks = []

    res1 = optimize.maximize_1d(lambda t: ewl.payoff_one_param(1, 4.0, t), 0.0, math.pi,
                                tol=1e-10)
    checks.append(analysis.make_check(
        "driver_classical_optimum", {"n": 1, "lambda": 4.0}, 4.0 / 3.0, res1.value,
        abs(res1.value - 4.0 / 3.0), abs(res1.value - 4.0 / 3.0) <= 1e-6))
    closed_n1 = 16.0 / (4.0 * 3.0)
    _, value_n1 = analysis.classical_max_closed_form(1, 4.0)
    checks.append(analysis.make_check(
        "driver_classical_closed_form", {"n": 1, "lambda": 4.0,
                                         "formula": "lambda^2/(4(lambda-1))"},
        closed_n1, value_n1, abs(value_n1 - closed_n1), abs(value_n1 - closed_n1) <= 1e-12))

    gate = ewl.build_gate(ewl.UnitaryParams(math.pi / 2.0, math.pi / 4.0, 0.0))
    sim = ewl.expected_payoff(ewl.n_tuple_driver_game(1, 4.0), [gate] * 2)
    checks.append(analysis.make_check(
        "driver_quantum_payoff", {"n": 1, "lambda": 4.0,
                                  "params": ["pi/2", "pi/4", "0"]},
        2.0, sim, abs(sim - 2.0), abs(sim - 2.0) <= 1e-9))

    _, value_n3 = analysis.classical_max_closed_form(3, 20.0)
    expected_n3 = 16875.0 / 6859.0
    checks.append(analysis.make_check(
        "example_classical_optimum", {"n": 3, "lambda": 20.0},
        expected_n3, value_n3, abs(value_n3 - expected_n3),
        abs(value_n3 - expected_n3) <= 1e-6))

    gate3 = ewl.build_gate(ewl.UnitaryParams(math.pi / 2.0, 9.0 * math.pi / 16.0,
                                             3.0 * math.pi / 16.0))
    sim3 = ewl.expected_payoff(ewl.n_tuple_driver_game(3, 20.0), [gate3] * 4)
    checks.append(analysis.make_check(
        "example_quantum_payoff", {"n": 3, "lambda": 20.0,
                                   "params": ["pi/2", "9pi/16", "3pi/16"]},
        5.0, sim3, abs(sim3 - 5.0), abs(sim3 - 5.0) <= 1e-9))

    for lam in lams:
        res = optimize.maximize_3d(ewl.payoff_three_param_fn(1, lam),
                                   grid_per_dim=17, starts=6, tol=1e-9)
        expected = max(1.0, lam / 2.0)
        # 1e-6 up to |expected| ~ 7e7, then a few ulps of expected
        tol = max(1e-6, 64.0 * sys.float_info.epsilon * abs(expected))
        checks.append(_search_fields(analysis.make_check(
            f"driver_quantum_optimum_lambda{lam:g}", {"n": 1, "lambda": lam},
            expected, res.value, abs(res.value - expected),
            abs(res.value - expected) <= tol), res))

    report = analysis.make_report(checks)
    code = _emit_report(report, cfg)
    if code != 0:
        return code
    return 0 if report["pass"] else 1


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewlsim",
        description="Quantized decision problems with imperfect recall: "
                    "simulate, optimize and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theta=False):
        p.add_argument("--n", type=int, default=None,
                       help="number of treacherous intersections (command-specific default)")
        p.add_argument("--lambda", dest="lam", type=float, default=4.0,
                       help="payoff for exiting at the last intersection")
        if theta:
            p.add_argument("--theta", type=parse_angle, default=None,
                           help="polar angle in [0, pi]; accepts pi-literals like pi/2")
            p.add_argument("--alpha", type=parse_angle, default=0.0)
            p.add_argument("--beta", type=parse_angle, default=0.0)
        p.add_argument("--grid", type=int, default=33, help="grid points per dimension")
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--output", default=None, help="write output to this path")

    p_sim = sub.add_parser("simulate", help="final state, outcomes and payoff for fixed gates")
    common(p_sim, theta=True)

    p_opt = sub.add_parser("optimize", help="classical and quantum payoff maximization")
    common(p_opt)
    p_opt.add_argument("--mode", choices=("classical", "quantum", "both"), default="both")
    p_opt.add_argument("--starts", type=int, default=8)

    p_ver = sub.add_parser("verify", help="run a verification sweep")
    p_ver.add_argument("target", choices=("prop1", "prop2", "prop3", "recall", "formulas"))
    common(p_ver)
    p_ver.add_argument("--problem", default=None,
                       help="JSON decision problem for the recall target")

    p_land = sub.add_parser("landscape", help="CSV payoff surface over the parameter box")
    common(p_land)

    p_rep = sub.add_parser("reproduce", help="reference-value reproduction table")
    common(p_rep)
    p_rep.add_argument("--lambda-sweep", default=None,
                       help="comma-separated payoffs for the n=1 quantum optimum column")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.starts)
        if args.command == "verify":
            return cmd_verify(cfg, args.target, args.problem)
        if args.command == "landscape":
            return cmd_landscape(cfg)
        if args.command == "reproduce":
            return cmd_reproduce(cfg, args.lambda_sweep)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
