"""Constructive verification of the protocol's three structural claims.

prop1: every mixed strategy of the forgetful two-stage problem has an
outcome-equivalent pure unitary strategy (solved in closed form, checked by
simulation).  prop2: the one-parameter protocol implements the label-valued
n-tuple driver problem exactly.  prop3: above a threshold payoff there is a
unitary strategy strictly better than every classical one.

Every sweep returns a structured report: a list of checks with stable keys
(check, inputs, expected, actual, deviation, pass) suitable for JSON output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .decision import DecisionProblem, behavioral_masses, has_imperfect_recall
from .decision import checked_probabilities, n_tuple_driver, n_tuple_outcomes, two_stage_problem
from .ewl import (
    UnitaryParams,
    _half_angle,
    amplitudes_one_param,
    build_gate,
    check_stack_size,
    ewl_game,
    expected_payoff,
    expected_payoffs,
    final_states,
    gate_stack,
    n_tuple_driver_game,
    n_tuple_outcome_game,
    outcome_distribution_ewl,
    outcome_masses,
    payoff_one_param,
    payoff_three_param_fn,
    two_stage_game,
)
from .optimize import (TWO_PI, OptResult, check_budget, check_count, closed_grid, maximize_1d,
                       maximize_3d)
from .qstate import check_qubit_count

AMP_TOL = 1e-12  # closed-form amplitudes against simulation
SIM_TOL = 1e-9  # a closed form or tree model against simulation
EXACT_TOL = 0.0
STRICT_TOL = -math.ulp(0.0)  # the largest float below 0, which only a negative deviation meets


class CrossCheckError(ArithmeticError):
    """Two independent computations of one value disagree: an internal fault,
    not a failed check of a claim."""


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def make_check(check: str, inputs: dict, expected, actual, deviation: float,
               tol: float, note: str | None = None) -> dict:
    """One report row, which passes iff deviation <= tol (a nan deviation fails)."""
    entry = {
        "check": check,
        "inputs": _jsonable(inputs),
        "expected": _jsonable(expected),
        "actual": _jsonable(actual),
        "deviation": float(deviation),
        "pass": bool(deviation <= tol),
    }
    if note is not None:
        entry["note"] = note
    return entry


def make_report(checks: list[dict]) -> dict:
    """The report of a list of checks, which passes when every check does; a
    report of no checks would pass on nothing, so an empty list raises ValueError."""
    if not checks:
        raise ValueError("a report needs at least one check")
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}


# --------------------------------------------------------------------------
# claim 1: mixed strategies are reachable by pure unitary strategies


def _prop1_angles(p00, p01, p10, p11):
    """prop1_solve's (theta, alpha, beta) at floats or at numpy arrays that
    broadcast together, elementwise in numpy either way."""
    return (2.0 * np.arctan2(np.sqrt(p01 + p10), np.sqrt(p00 + p11)),
            np.arctan2(np.sqrt(p11), np.sqrt(p00)), np.arctan2(np.sqrt(p01), np.sqrt(p10)))


def prop1_solve(p00: float, p01: float, p10: float, p11: float) -> UnitaryParams:
    """Angles of the gate on qubit 1 (identity on qubit 2) whose outcome is the
    given mixture.

    tan^2(theta/2) = (p01+p10)/(p00+p11), tan^2 alpha = p11/p00 and
    tan^2 beta = p01/p10, that is theta = 2 atan2(sqrt(p01+p10), sqrt(p00+p11)),
    alpha = atan2(sqrt(p11), sqrt(p00)) and beta = atan2(sqrt(p01), sqrt(p10)).
    An atan2 of two square roots lies in [0, pi/2] and is 0 when both are 0, so
    a pair that sums to 0 needs no branch: its unused angle is 0.
    """
    probs = checked_probabilities((p00, p01, p10, p11), "probabilities")
    p00, p01, p10, p11 = (p + 0.0 for p in probs)  # -0.0 becomes 0.0: atan2(0, -0) is pi
    return UnitaryParams(*_prop1_angles(p00, p01, p10, p11))


_TWO_STAGE_GAME = two_stage_game()


def prop1_outcome(params: UnitaryParams):
    """Outcome distribution of prop1_solve's gate on qubit 1 and the identity
    on qubit 2, by simulation."""
    gates = [build_gate(params), build_gate(UnitaryParams(0.0))]
    return outcome_distribution_ewl(_TWO_STAGE_GAME, gates)


def _on_every_qubit(gates: np.ndarray, m: int) -> np.ndarray:
    """A (k, m, 2, 2) stack that applies row i of a (k, 2, 2) gate stack to all m qubits."""
    return np.broadcast_to(gates[:, None], (len(gates), m, 2, 2))


def _first_qubit_only(gates: np.ndarray) -> np.ndarray:
    """Runs of row i of a (k, 2, 2) gate stack on qubit 1, the identity on qubit 2."""
    return np.stack(np.broadcast_arrays(gates, gate_stack(0.0)), axis=1)


def _prop1_deviation(mixtures) -> float:
    """Largest outcome error of the gates that _prop1_angles, prop1_solve's kernel, gives
    at once for the rows of a (k, 4) array of mixtures, simulated in one stacked call."""
    mixtures = np.asarray(mixtures, dtype=float)
    gates = gate_stack(*_prop1_angles(*mixtures.T))
    masses = outcome_masses(_TWO_STAGE_GAME, _first_qubit_only(gates))
    order = [_TWO_STAGE_GAME.labels.index(lab) for lab in ("o00", "o01", "o10", "o11")]
    return float(np.abs(masses[:, order] - mixtures).max())


def prop1_verify(sample_count: int = 1000, seed: int = 7) -> dict:
    """Seeded sweep of random and boundary mixtures through prop1_solve's kernel, _prop1_angles."""
    sample_count = check_count(sample_count, "samples")
    check_budget(sample_count, f"{sample_count:,} samples")  # before any random draw
    seed = check_count(seed, "seed", low=0)
    rng = np.random.default_rng(seed)
    checks = []

    # one draw of k Dirichlet rows is the same stream as k draws of one row
    dev = _prop1_deviation(rng.dirichlet((1.0,) * 4, size=sample_count))
    checks.append(make_check(
        "prop1_random_mixtures", {"samples": sample_count, "seed": seed}, 0.0, dev, dev, SIM_TOL))

    dev = _prop1_deviation(np.eye(4))
    checks.append(make_check("prop1_unit_vectors", {}, 0.0, dev, dev, SIM_TOL))

    faces = rng.dirichlet((1.0,) * 3, size=(4, 5))
    boundary = [np.insert(faces[hole], hole, 0.0, axis=1) for hole in range(4)]
    for a in (0.3, 0.5, 0.9):
        boundary.append([(a, 0.0, 0.0, 1.0 - a), (0.0, a, 1.0 - a, 0.0)])
    boundary = np.concatenate(boundary)
    dev = _prop1_deviation(boundary)
    checks.append(make_check(
        "prop1_boundary_mixtures", {"cases": len(boundary), "seed": seed}, 0.0, dev, dev, SIM_TOL))
    return make_report(checks)


# --------------------------------------------------------------------------
# claim 2: one-parameter gates implement the label-valued n-tuple problem


def _one_param_sweep() -> tuple:
    """The 101 thetas of closed_grid(0, pi, 101), pi/2 among them, their
    U(theta, 0, 0) stack, and the behavioral rows of the one-set driver trees:
    exit with probability cos^2(theta/2) at every angle, one array per action."""
    thetas = closed_grid(0.0, math.pi, 101)
    c, s = _half_angle(np, thetas)
    return thetas, gate_stack(thetas), ((c * c, s * s),)


def prop2_verify(n_max: int = 5) -> dict:
    """Simulation vs the closed-form amplitudes and vs the tree model's outcome
    masses at exit probability cos^2(theta/2), over n <= n_max and 101 thetas in [0, pi]."""
    n_max = check_count(n_max, "n_max")
    thetas, gates, exits = _one_param_sweep()
    check_stack_size(len(thetas), n_max + 1)  # the largest stack, before n = 1 runs
    checks = []
    for n in range(1, n_max + 1):
        m = n + 1
        problem = n_tuple_outcomes(n)
        game = ewl_game(problem)
        stack = _on_every_qubit(gates, m)
        amps = final_states(stack)
        amps -= amplitudes_one_param(thetas, m)
        amp_dev = float(np.abs(amps).max())
        del amps  # the next n's states replace these, not add to them
        masses = outcome_masses(game, stack)
        tree = dict(behavioral_masses(problem, exits))
        mass_dev = float(np.abs(masses - np.stack([tree[lab] for lab in game.labels], 1)).max())
        inputs = {"n": n, "theta_grid": len(thetas)}
        checks += [make_check(f"prop2_amplitudes_n{n}", inputs, 0.0, amp_dev, amp_dev, AMP_TOL),
                   make_check(f"prop2_outcome_masses_n{n}", inputs, 0.0, mass_dev, mass_dev,
                              SIM_TOL)]
    return make_report(checks)


# --------------------------------------------------------------------------
# claim 3: strict quantum dominance above a threshold payoff


def classical_max_closed_form(n: int, lam: float) -> tuple[float, float]:
    """Maximizer and maximum of (1-p)^n ((lam-1)p + 1) over p in [0, 1]."""
    n = check_count(n, "n")
    lam = float(lam)
    if lam > 1.0:
        # divide before multiplying: (lam - 1) * (n + 1) overflows for lam near the largest float
        p_star = (lam - 1.0 - n) / (lam - 1.0) / (n + 1)
        p_star = min(max(p_star, 0.0), 1.0)
    else:
        p_star = 0.0
    value = (1.0 - p_star) ** n * ((lam - 1.0) * p_star + 1.0)
    return p_star, value


def prop3_params(n: int) -> tuple[float, float, float, float]:
    """Dominating gate angles and the payoff threshold for n >= 2:

    theta' = 2 arccos(1/sqrt(n+1)),
    alpha' = (pi + 2 pi chi(n)) n / (2 (n^2 - 1)),  beta' = alpha'/n,
    lambda0 = 1 / (cos^2n(theta'/2) sin^2(theta'/2)) = (n+1)^(n+1) / n,
    with chi(n) = 1 iff n = 3 (mod 4), which is when i^(n-1) = -1.

    lambda0 is the correctly rounded quotient of the two exact integers; from
    n = 143 on it exceeds the largest float, so a ValueError is raised before
    the power is built.
    """
    n = check_count(n, "n", low=2)
    if n > 142:
        raise ValueError(f"lambda0 = (n+1)^(n+1)/n at n={n} is beyond the largest float; "
                         "prop3_params needs n <= 142")
    theta = 2.0 * math.acos(1.0 / math.sqrt(n + 1.0))
    chi = 1 if n % 4 == 3 else 0
    alpha = (math.pi + 2.0 * math.pi * chi) * n / (2.0 * (n * n - 1))
    beta = (math.pi + 2.0 * math.pi * chi) / (2.0 * (n * n - 1))
    return theta, alpha, beta, (n + 1) ** (n + 1) / n


@dataclass(frozen=True)
class Prop3Certificate:
    """Prop. 3's gate against the classical optimum at payoff lam = delta * lambda0(n)."""

    lam: float
    quantum_payoff: float
    classical_max: float
    margin: float


def search_slack(reference: float, tol: float) -> float:
    """How far a search's value at tolerance ``tol`` may miss ``reference``:
    max(tol, SIM_TOL) * max(1, |reference|)."""
    return max(tol, SIM_TOL) * max(1.0, abs(reference))


def _cross_check(kind: str, value: float, other: float, against: str, tol: float) -> None:
    """Raise CrossCheckError unless a search's value lies within
    search_slack(other, tol) of ``other``, a second computation of it."""
    if not abs(value - other) <= search_slack(other, tol):
        raise CrossCheckError(f"{kind} optimum mismatch: search {value!r} vs {against} {other!r}")


def _driver_payoff(n: int, lam: float, theta: float, alpha: float, beta: float) -> float:
    """The driver game's expected payoff, simulated with U(theta, alpha, beta) on all n+1 qubits."""
    gate = build_gate(UnitaryParams(theta, alpha, beta))
    return expected_payoff(n_tuple_driver_game(n, lam), [gate] * (n + 1))


def classical_optimum(n: int, lam: float, tol: float) -> tuple[OptResult, float, float]:
    """maximize_1d of the one-parameter payoff over theta, searched to ``tol``
    and cross-checked against classical_max_closed_form: (result, p*, closed)."""
    p_star, closed = classical_max_closed_form(n, lam)
    res = maximize_1d(lambda t: payoff_one_param(n, lam, t), 0.0, math.pi, tol=tol)
    _cross_check("classical", res.value, closed, "closed form", tol)
    return res, p_star, closed


def quantum_optimum(n: int, lam: float, grid_per_dim: int, starts: int,
                    tol: float) -> tuple[OptResult, float]:
    """maximize_3d of the three-parameter payoff, cross-checked against the driver game
    simulated at the argmax: (result, simulated payoff)."""
    res = maximize_3d(payoff_three_param_fn(n, lam), grid_per_dim, starts, tol)
    sim = _driver_payoff(n, lam, *res.argmax)
    _cross_check("quantum", res.value, sim, "simulation at the argmax", 0.0)
    return res, sim


def prop3_verify(n: int, delta: float) -> Prop3Certificate:
    """Compare prop3_params(n)'s gate against the classical optimum at payoff
    lam = delta * lambda0(n).

    The quantum side simulates the driver game under the gate; the classical
    side is classical_max_closed_form, the exact maximizer evaluated once.
    Both are of size lam, so their difference would lose the O(1) margin
    from n = 16 on.  The margin comes from the exact structure instead: at
    Prop. 3's angles cos^2(theta/2) = 1/(n+1), so lam times the home mass is
    delta (1 + n^(n-1) + [n odd] 2 n^((n-1)/2)), and the classical maximum is
    delta n^(n-1) (lam/(lam-1))^n; the margin is their difference, with the
    n^(n-1) terms cancelled in closed form, plus the lodge payoff of the
    gate.  A simulation that misses the margin by more than (n+1) lam eps
    raises CrossCheckError.
    """
    n = check_count(n, "n", low=2)  # a Python int, so n ** (n - 1) below is exact
    theta, alpha, beta, lam0 = prop3_params(n)
    if not delta > 1.0:
        raise ValueError(f"delta must exceed 1, got {delta}")
    lam = delta * lam0
    quantum = _driver_payoff(n, lam, theta, alpha, beta)
    classical = classical_max_closed_form(n, lam)[1]
    odd_term = 2 * n ** ((n - 1) // 2) if n % 2 else 0
    margin = (delta * (1.0 + odd_term)
              - delta * n ** (n - 1) * math.expm1(n * math.log1p(1.0 / (lam - 1.0)))
              + payoff_three_param_fn(n, 0.0)(theta, alpha, beta))
    if abs(quantum - classical - margin) > (n + 1) * lam * sys.float_info.epsilon:
        raise CrossCheckError(f"prop3 margin mismatch at n={n}, delta={delta}: simulation "
                              f"{quantum - classical!r} vs exact structure {margin!r}")
    return Prop3Certificate(lam, quantum, classical, margin)


# the payoff multiples of lambda0 that prop3_sweep certifies at every n
PROP3_DELTAS = (1.1, 1.5, 3.0)


def prop3_sweep(n_values=(2, 3, 4, 5, 6)) -> dict:
    """Dominance certificates over n_values x PROP3_DELTAS; all must be strict."""
    n_values = [check_count(n, "n", low=2) for n in n_values]
    check_qubit_count(max(n_values, default=1) + 1)  # before the sweep's first run
    checks = []
    for n in n_values:
        for delta in PROP3_DELTAS:
            cert = prop3_verify(n, delta)
            checks.append(make_check(
                f"prop3_dominance_n{n}_delta{delta}",
                {"n": n, "delta": delta, "lam": cert.lam},
                "quantum > classical",
                {"quantum": cert.quantum_payoff, "classical": cert.classical_max,
                 "margin": cert.margin},
                -cert.margin, STRICT_TOL))
    return make_report(checks)


# --------------------------------------------------------------------------
# printed-formula cross-check ledger


def _two_param_sine_variant(lam: float, theta, alpha):
    # Linear-sine variant of the two-parameter payoff; deviates from
    # simulation and is kept only so the ledger can document the deviation.
    return (0.25 * lam * (np.sin(2.0 * alpha) + 1.0) * np.sin(theta)
            + (np.sin(2.0 * alpha) * np.cos(theta / 2.0) ** 2
               - np.sin(theta / 2.0) ** 2) ** 2)


def _max_dev(a, b) -> float:
    return float(np.abs(np.subtract(a, b)).max())


def formulas_verify(n_max: int = 5, samples: int = 500, seed: int = 11) -> dict:
    """Cross-check every closed-form payoff against direct simulation.

    Each section simulates its runs in one stacked call per qubit count:
    payoffs and masses through block_masses, the eta symmetry through the
    amplitudes of final_states.
    """
    n_max = check_count(n_max, "n_max")
    samples = check_count(samples, "samples")
    check_budget(samples, f"{samples:,} samples")  # before any random draw
    seed = check_count(seed, "seed", low=0)
    check_qubit_count(n_max + 1)
    rng = np.random.default_rng(seed)
    checks = []

    # one draw per column: every n, every lambda, then the (theta, alpha, beta) rows
    ns = rng.integers(1, n_max + 1, size=samples)
    lams = rng.uniform(0.0, 20.0, size=samples)
    angles = rng.uniform(0.0, (math.pi, TWO_PI, TWO_PI), size=(samples, 3))
    gates = gate_stack(*angles.T)
    dev = 0.0
    for n in sorted(set(ns.tolist())):
        rows = ns == n
        # driver payoffs are affine in lambda: lambda P(o{n+1}) + P(o{n+2}), with
        # o{n+1} the exit at the last intersection and o{n+2} the motorway
        game = n_tuple_outcome_game(n)
        masses = outcome_masses(game, _on_every_qubit(gates[rows], n + 1))
        home, lodge = (game.labels.index(f"o{t}") for t in (n + 1, n + 2))
        sim = lams[rows] * masses[:, home] + masses[:, lodge]
        dev = max(dev, _max_dev(sim, payoff_three_param_fn(n, lams[rows])(*angles[rows].T)))
    checks.append(make_check(
        "three_param_closed_form_vs_simulation",
        {"samples": samples, "seed": seed, "n_max": n_max},
        0.0, dev, dev, SIM_TOL))

    dev_sim = 0.0
    dev_tree = 0.0
    lam = 4.0
    thetas, gates, exits = _one_param_sweep()
    for n in range(1, max(n_max, 6) + 1):
        problem = n_tuple_driver(n, lam)
        closed = payoff_one_param(n, lam, thetas)
        sim = expected_payoffs(ewl_game(problem), _on_every_qubit(gates, n + 1))
        tree = sum(problem.payoffs[lab] * mass for lab, mass in behavioral_masses(problem, exits))
        dev_sim = max(dev_sim, _max_dev(closed, sim))
        dev_tree = max(dev_tree, _max_dev(closed, tree))
    checks.append(make_check(
        "one_param_closed_form_vs_simulation", {"n_max": max(n_max, 6), "lam": lam},
        0.0, dev_sim, dev_sim, SIM_TOL))
    checks.append(make_check(
        "one_param_closed_form_vs_tree_model", {"n_max": max(n_max, 6), "lam": lam},
        0.0, dev_tree, dev_tree, SIM_TOL))

    payoffs = (3.0, -1.0, 2.0, 0.5)
    problem = two_stage_problem()
    two_qubit_game = ewl_game(replace(problem, payoffs=dict(zip(problem.labels, payoffs))))
    axis = closed_grid(0.0, math.pi, 21)
    theta1, theta2 = (t.ravel() for t in np.meshgrid(axis, axis, indexing="ij"))
    sim = expected_payoffs(two_qubit_game, np.stack((gate_stack(theta1), gate_stack(theta2)),
                                                    axis=1))
    form = sum(payoffs[2 * k + l]
               * np.cos((theta1 - k * math.pi) / 2.0) ** 2
               * np.cos((theta2 - l * math.pi) / 2.0) ** 2
               for k in (0, 1) for l in (0, 1))
    dev = _max_dev(sim, form)
    checks.append(make_check(
        "two_qubit_product_form_vs_simulation", {"grid": 21, "payoffs": list(payoffs)},
        0.0, dev, dev, SIM_TOL))

    # one draw of (100, 3) uniforms is the same stream as 100 draws of three
    theta1, alpha1, beta1 = rng.uniform(0.0, (math.pi, TWO_PI, TWO_PI), size=(100, 3)).T
    c2 = np.cos(theta1 / 2.0) ** 2
    s2 = np.sin(theta1 / 2.0) ** 2
    form = ((payoffs[0] * np.cos(alpha1) ** 2 + payoffs[3] * np.sin(alpha1) ** 2) * c2
            + (payoffs[1] * np.sin(beta1) ** 2 + payoffs[2] * np.cos(beta1) ** 2) * s2)
    sim = expected_payoffs(two_qubit_game, _first_qubit_only(gate_stack(theta1, alpha1, beta1)))
    dev = _max_dev(sim, form)
    checks.append(make_check(
        "first_qubit_only_form_vs_simulation", {"samples": 100, "seed": seed},
        0.0, dev, dev, SIM_TOL))

    # <01|psi_f> = <10|psi_f> for the same gate on both qubits
    same = gate_stack(*rng.uniform(0.0, (math.pi, TWO_PI, TWO_PI), size=(100, 3)).T)
    amps = final_states(_on_every_qubit(same, 2))
    dev = float(np.abs(amps[:, 1] - amps[:, 2]).max())
    checks.append(make_check(
        "eta_symmetry", {"samples": 100, "seed": seed}, 0.0, dev, dev, AMP_TOL))

    lam = 4.0
    theta, alpha = (t.ravel() for t in np.meshgrid(closed_grid(0.0, math.pi, 41),
                                                   closed_grid(0.0, TWO_PI, 41), indexing="ij"))
    sim = expected_payoffs(n_tuple_driver_game(1, lam),
                           _on_every_qubit(gate_stack(theta, alpha, 0.0), 2))
    dev_linear = _max_dev(sim, _two_param_sine_variant(lam, theta, alpha))
    dev_beta0 = _max_dev(sim, payoff_three_param_fn(1, lam)(theta, alpha, np.zeros_like(theta)))
    checks.append(make_check(
        "two_param_form_known_discrepancy", {"lam": lam, "grid": 41},
        {"beta0_reduction_deviation": 0.0, "sine_linear_variant": "documented deviation"},
        {"beta0_reduction_deviation": dev_beta0, "sine_linear_deviation": dev_linear},
        dev_beta0, SIM_TOL,
        note=("known discrepancy: the sine-linear two-parameter variant deviates from "
              f"simulation by up to {dev_linear:.6f}; the beta=0 reduction of the "
              "three-parameter form matches simulation and is the form this package uses")))
    return make_report(checks)


# --------------------------------------------------------------------------
# recall structure report


def perfect_recall_control() -> DecisionProblem:
    """Two-stage tree whose second move sits in singleton information sets."""
    return replace(two_stage_problem(), info_partition=(((),), ((0,),), ((1,),)))


def recall_verify(problem: DecisionProblem | None = None) -> dict:
    """Flag the imperfect-recall structure of the built-in problems."""
    cases = [
        ("two_stage_imperfect_recall", two_stage_problem(), True),
        ("driver_imperfect_recall", n_tuple_driver(1, 4.0), True),
        ("n_tuple_imperfect_recall", n_tuple_driver(3, 4.0), True),
        ("perfect_recall_control", perfect_recall_control(), False),
    ]
    checks = []
    for name, prob, expected in cases:
        actual = has_imperfect_recall(prob)
        checks.append(make_check(
            name, {"information_sets": len(prob.info_partition)},
            expected, actual, float(actual != expected), EXACT_TOL))
    if problem is not None:
        actual = has_imperfect_recall(problem)
        checks.append(make_check(
            "user_problem_imperfect_recall", {"information_sets": len(problem.info_partition)},
            None, actual, 0.0, EXACT_TOL,
            note="informational: no expected value for user-supplied problems"))
    return make_report(checks)
