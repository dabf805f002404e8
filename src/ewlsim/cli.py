"""Command-line front end: reproducible experiments with text/CSV/JSON output.

Subcommands: simulate | optimize | verify {prop1,prop2,prop3,recall,formulas} |
landscape | reproduce.  Each one declares only the options it reads, so any
other option is a usage error; the verify options follow the target.  Every
command takes --format and --output; landscape always writes CSV.

Exit codes: 0 success, 1 failed check, 2 usage/validation error, 3 internal
cross-check failure (analysis.CrossCheckError).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from itertools import product

import numpy as np

from . import analysis, decision, ewl, optimize
from .optimize import GRID_BUDGET, TWO_PI, wrap_phase
from .qstate import MAX_QUBITS, check_qubit_count

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


def _attach_negative_values(argv: list[str] | None) -> list[str]:
    """argv (sys.argv[1:] if None) with '--alpha -pi/4' written '--alpha=-pi/4':
    argparse reads -pi/4, -1e-3 or -3,4 as an option, not as the value before it."""
    joined: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if (joined and re.fullmatch(r"--[^=]+", joined[-1])
                and re.match(r"-(\d|\.\d|pi)", arg, re.IGNORECASE)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def check_options(args: argparse.Namespace) -> None:
    """Refuse bad values of the options the command declares, before any work."""
    opts = vars(args)
    if opts.get("n", 1) < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if not math.isfinite(opts.get("lam", 0.0)):
        raise ValueError("--lambda must be finite")
    if "theta" in opts:
        if args.theta is None:
            raise ValueError("simulate requires --theta")
        if not 0.0 <= args.theta <= math.pi:
            raise ValueError(f"--theta must lie in [0, pi], got {args.theta!r}")
    if "grid" in opts:
        if args.grid < 2:
            raise ValueError(f"--grid must be >= 2, got {args.grid}")
        # landscape always scans the grid; optimize does unless it is classical only
        if opts.get("mode") != "classical" and args.grid ** 3 > GRID_BUDGET:
            raise ValueError(f"--grid {args.grid} gives {args.grid ** 3:,} grid points, "
                             f"over the budget of {GRID_BUDGET:,} (GRID_BUDGET)")
    if "samples" in opts:
        if args.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {args.samples}")
        if args.samples > GRID_BUDGET:
            raise ValueError(f"--samples {args.samples:,} is over the budget of "
                             f"{GRID_BUDGET:,} (GRID_BUDGET)")
    if opts.get("seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    # only the quantum search reads --starts
    if opts.get("mode") != "classical" and opts.get("starts", 1) < 1:
        raise ValueError(f"--starts must be >= 1, got {args.starts}")
    if "tol" in opts and not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol!r}")


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


def _report_text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2)
    if fmt == "csv":
        return _checks_csv(report)
    return _checks_text(report)


# --------------------------------------------------------------------------
# subcommands: each returns its output text, or a report of checks


def cmd_simulate(args: argparse.Namespace) -> str:
    params = ewl.UnitaryParams(args.theta, wrap_phase(args.alpha), wrap_phase(args.beta))
    n, m = args.n, args.n + 1
    check_qubit_count(m)
    if 1 << m > GRID_BUDGET:  # the table's dict and text cost far more than its state
        raise ValueError(f"--n {n} gives a basis table of {1 << m:,} rows, over the budget of "
                         f"{GRID_BUDGET:,} (GRID_BUDGET)")
    game = ewl.n_tuple_driver_game(n, args.lam)
    gates = [ewl.build_gate(params)] * m
    probs = ewl.final_state(gates).probabilities  # only the basis table needs the 2^m amplitudes
    masses = ewl.outcome_masses(game, np.array([[gate.matrix for gate in gates]]))
    # expected_payoffs' sum, on the row of label masses already computed
    payoff = float((masses * game.payoffs).sum(axis=1)[0])
    dist = decision.OutcomeDistribution(dict(zip(game.labels, masses[0].tolist())))

    basis = {format(y, f"0{m}b"): float(probs[y]) for y in range(1 << m)}
    doc = {
        "n": n,
        "lambda": args.lam,
        "theta": params.theta,
        "alpha": params.alpha,
        "beta": params.beta,
        "basis_probabilities": basis,
        "outcome_distribution": dict(sorted(dist.probs.items())),
        "expected_payoff": payoff,
    }
    if args.format == "json":
        return json.dumps(doc, indent=2)
    if args.format == "csv":
        rows = ["field,key,value"]
        rows += [f"basis,{k},{v:.12g}" for k, v in basis.items()]
        rows += [f"outcome,{k},{v:.12g}" for k, v in sorted(dist.probs.items())]
        rows.append(f"payoff,,{payoff:.12g}")
        return "\n".join(rows)
    lines = [f"final state probabilities (n={n}, lambda={args.lam:g}, "
             f"theta={params.theta:.6f}, alpha={params.alpha:.6f}, beta={params.beta:.6f})"]
    lines += [f"  |{k}>  {v:.12f}" for k, v in basis.items()]
    lines.append("outcome distribution")
    lines += [f"  {k}  {v:.12f}" for k, v in sorted(dist.probs.items())]
    lines.append(f"expected payoff  {payoff:.12f}")
    return "\n".join(lines)


def _search_fields(check: dict, res: optimize.OptResult) -> dict:
    """The check with the optimizer's argmax and evaluation count as fields."""
    return {**check, "argmax": list(res.argmax), "evaluations": res.evaluations}


def cmd_optimize(args: argparse.Namespace) -> dict:
    checks = []
    n, lam = args.n, args.lam
    if args.mode != "classical":
        check_qubit_count(n + 1)  # the quantum argmax is cross-checked by simulation

    if args.mode in ("classical", "both"):
        res, p_star, closed = analysis.classical_optimum(n, lam, args.tol)
        checks.append(_search_fields(analysis.make_check(
            "classical_optimum", {"n": n, "lambda": lam},
            closed, res.value, abs(res.value - closed), True, note=f"p*={p_star:.9f}"), res))

    if args.mode in ("quantum", "both"):
        res, sim = analysis.quantum_optimum(n, lam, args.grid, args.starts, args.tol)
        checks.append(_search_fields(analysis.make_check(
            "quantum_optimum", {"n": n, "lambda": lam, "grid": args.grid},
            sim, res.value, abs(sim - res.value), True), res))

    if args.mode == "both":
        classical, quantum = (c["actual"] for c in checks)
        checks.append(analysis.make_check(
            "quantum_classical_ratio", {"n": n, "lambda": lam},
            None, quantum / classical if classical else math.inf, 0.0, True))
    return analysis.make_report(checks)


def verify_prop1(args: argparse.Namespace) -> dict:
    return analysis.prop1_verify(args.samples, args.seed)


def verify_prop2(args: argparse.Namespace) -> dict:
    return analysis.prop2_verify(n_max=args.n, theta_grid=101)


def verify_prop3(args: argparse.Namespace) -> dict:
    if args.n < 2:  # the certificates start at n = 2
        raise ValueError(f"--n must be >= 2 for verify prop3, got {args.n}")
    return analysis.prop3_sweep(n_values=tuple(range(2, args.n + 1)))


def verify_recall(args: argparse.Namespace) -> dict:
    problem = None
    if args.problem is not None:
        try:
            with open(args.problem) as fh:
                problem = decision.problem_from_json(fh.read())
        except (OSError, ValueError, KeyError) as exc:
            raise ValueError(f"cannot load problem {args.problem}: {exc}") from None
    return analysis.recall_verify(problem)


def verify_formulas(args: argparse.Namespace) -> dict:
    return analysis.formulas_verify(n_max=args.n, samples=args.samples, seed=args.seed)


def cmd_landscape(args: argparse.Namespace) -> str:
    if args.n > MAX_QUBITS - 1:  # the n range optimize searches the same closed form in
        raise ValueError(f"--n must be at most {MAX_QUBITS - 1} (MAX_QUBITS - 1), got {args.n}")
    index = np.arange(args.grid)
    thetas = index * math.pi / (args.grid - 1)
    phases = index * TWO_PI / (args.grid - 1)
    f = ewl.payoff_three_param_fn(args.n, args.lam)
    values = f(thetas[:, None, None], phases[None, :, None], phases[None, None, :])
    rows = ["theta,alpha,beta,payoff"]
    rows += [f"{t:.12g},{a:.12g},{b:.12g},{v:.12g}" for (t, a, b), v in
             zip(product(thetas.tolist(), phases.tolist(), phases.tolist()), values.ravel().tolist())]
    return "\n".join(rows)


def cmd_reproduce(args: argparse.Namespace) -> dict:
    try:
        lams = [float(x) for x in (args.lambda_sweep or "").split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --lambda-sweep {args.lambda_sweep!r}") from None
    if not all(math.isfinite(lam) for lam in lams):
        raise ValueError(f"--lambda-sweep entries must be finite, got {args.lambda_sweep!r}")
    checks = []

    res1, _, value_n1 = analysis.classical_optimum(1, 4.0, 1e-10)
    checks.append(analysis.make_check(
        "driver_classical_optimum", {"n": 1, "lambda": 4.0}, 4.0 / 3.0, res1.value,
        abs(res1.value - 4.0 / 3.0), abs(res1.value - 4.0 / 3.0) <= 1e-6))
    closed_n1 = 16.0 / (4.0 * 3.0)
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
        res, _ = analysis.quantum_optimum(1, lam, 17, 6, 1e-9)
        expected = max(1.0, lam / 2.0)
        # 1e-6 up to |expected| ~ 7e7, then a few ulps of expected
        tol = max(1e-6, 64.0 * sys.float_info.epsilon * abs(expected))
        checks.append(_search_fields(analysis.make_check(
            f"driver_quantum_optimum_lambda{lam:g}", {"n": 1, "lambda": lam},
            expected, res.value, abs(res.value - expected),
            abs(res.value - expected) <= tol), res))

    return analysis.make_report(checks)


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewlsim",
        description="Quantized decision problems with imperfect recall: "
                    "simulate, optimize and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name, run, summary, fmt_help="report encoding"):
        p = parent.add_parser(name, help=summary)
        p.set_defaults(run=run)
        out = p.add_argument_group("output")
        out.add_argument("--format", choices=("text", "csv", "json"), default="text", help=fmt_help)
        out.add_argument("--output", default=None, help="write output to this path")
        return p

    def n_option(p, default):
        p.add_argument("--n", type=int, default=default,
                       help=f"number of treacherous intersections (default {default})")

    def lambda_option(p):
        p.add_argument("--lambda", dest="lam", type=float, default=4.0,
                       help="payoff for exiting at the last intersection")

    def sampling_options(p):
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--seed", type=int, default=7)

    p_sim = leaf(sub, "simulate", cmd_simulate,
                 "final state, outcomes and payoff for fixed gates")
    n_option(p_sim, 1)
    lambda_option(p_sim)
    p_sim.add_argument("--theta", type=parse_angle, default=None,
                       help="polar angle in [0, pi]; accepts pi-literals like pi/2")
    p_sim.add_argument("--alpha", type=parse_angle, default=0.0)
    p_sim.add_argument("--beta", type=parse_angle, default=0.0)

    p_opt = leaf(sub, "optimize", cmd_optimize, "classical and quantum payoff maximization")
    n_option(p_opt, 1)
    lambda_option(p_opt)
    p_opt.add_argument("--grid", type=int, default=33, help="grid points per dimension")
    p_opt.add_argument("--tol", type=float, default=1e-8)
    p_opt.add_argument("--mode", choices=("classical", "quantum", "both"), default="both")
    p_opt.add_argument("--starts", type=int, default=8)

    targets = sub.add_parser("verify", help="run a verification sweep").add_subparsers(
        dest="target", required=True)
    sampling_options(leaf(targets, "prop1", verify_prop1, "mixed-strategy reachability sweep"))
    n_option(leaf(targets, "prop2", verify_prop2, "closed-form amplitude and mass sweep"), 5)
    n_option(leaf(targets, "prop3", verify_prop3, "dominance certificates for n = 2..--n"), 6)
    leaf(targets, "recall", verify_recall, "imperfect-recall flags").add_argument(
        "--problem", default=None, help="JSON decision problem to check as well")
    p_form = leaf(targets, "formulas", verify_formulas, "closed forms against simulation")
    n_option(p_form, 5)
    sampling_options(p_form)

    p_land = leaf(sub, "landscape", cmd_landscape,
                  "CSV payoff surface over the parameter box",
                  fmt_help="ignored: landscape always writes CSV")
    n_option(p_land, 1)
    lambda_option(p_land)
    p_land.add_argument("--grid", type=int, default=33, help="grid points per dimension")

    leaf(sub, "reproduce", cmd_reproduce, "reference-value reproduction table").add_argument(
        "--lambda-sweep", default=None,
        help="comma-separated payoffs for the n=1 quantum optimum column")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        check_options(args)
        result = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except analysis.CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if isinstance(result, str):
        return _emit(result, args.output)
    return _emit(_report_text(result, args.format), args.output) or (0 if result["pass"] else 1)


if __name__ == "__main__":
    sys.exit(main())
