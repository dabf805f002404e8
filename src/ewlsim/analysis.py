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
from dataclasses import dataclass, replace

import numpy as np

from .decision import DecisionProblem, behavioral_masses, has_imperfect_recall
from .decision import checked_probabilities, n_tuple_driver, n_tuple_outcomes, two_stage_problem
from .ewl import (
    IDENTITY_PARAMS,
    UnitaryParams,
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
from .optimize import TWO_PI, OptResult, maximize_1d, maximize_3d, wrap_phase
from .qstate import check_qubit_count

AMP_TOL = 1e-12
MASS_TOL = 1e-9
PROB1_TOL = 1e-9


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
               passed: bool, note: str | None = None) -> dict:
    entry = {
        "check": check,
        "inputs": _jsonable(inputs),
        "expected": _jsonable(expected),
        "actual": _jsonable(actual),
        "deviation": float(deviation),
        "pass": bool(passed),
    }
    if note is not None:
        entry["note"] = note
    return entry


def make_report(checks: list[dict]) -> dict:
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}


# --------------------------------------------------------------------------
# claim 1: mixed strategies are reachable by pure unitary strategies


@dataclass(frozen=True)
class Prop1Solution:
    """First-qubit gate parameters reproducing a mixed-strategy outcome."""

    params1: UnitaryParams
    branch: str  # general | diagonal_segment | antidiagonal_segment
    gate2_is_identity: bool = True


def _prop1_angles(p00, p01, p10, p11):
    """prop1_solve's (theta, alpha, beta) at floats or at numpy arrays that
    broadcast together, elementwise in numpy either way."""
    return (2.0 * np.arctan2(np.sqrt(p01 + p10), np.sqrt(p00 + p11)),
            np.arctan2(np.sqrt(p11), np.sqrt(p00)), np.arctan2(np.sqrt(p01), np.sqrt(p10)))


def prop1_solve(p00: float, p01: float, p10: float, p11: float) -> Prop1Solution:
    """Gate on qubit 1 (identity on qubit 2) whose outcome is the given mixture.

    tan^2(theta/2) = (p01+p10)/(p00+p11), tan^2 alpha = p11/p00 and
    tan^2 beta = p01/p10, that is theta = 2 atan2(sqrt(p01+p10), sqrt(p00+p11)),
    alpha = atan2(sqrt(p11), sqrt(p00)) and beta = atan2(sqrt(p01), sqrt(p10)).
    An atan2 of two square roots lies in [0, pi/2] and is 0 when both are 0, so
    a pair that sums to 0 needs no branch: its unused angle is 0.  ``branch``
    only names that pair (diagonal_segment: p01+p10 = 0, antidiagonal_segment:
    p00+p11 = 0).
    """
    probs = checked_probabilities((p00, p01, p10, p11), "probabilities")
    p00, p01, p10, p11 = (p + 0.0 for p in probs)  # -0.0 becomes 0.0: atan2(0, -0) is pi
    branch = ("diagonal_segment" if p01 + p10 == 0.0 else
              "antidiagonal_segment" if p00 + p11 == 0.0 else "general")
    return Prop1Solution(UnitaryParams(*_prop1_angles(p00, p01, p10, p11)), branch)


_TWO_STAGE_GAME = two_stage_game()


def prop1_outcome(solution: Prop1Solution):
    """Outcome distribution of the solved unitary strategy, by simulation."""
    gates = [build_gate(solution.params1), build_gate(IDENTITY_PARAMS)]
    return outcome_distribution_ewl(_TWO_STAGE_GAME, gates)


def _on_every_qubit(gates: np.ndarray, m: int) -> np.ndarray:
    """A (k, m, 2, 2) stack that applies row i of a (k, 2, 2) gate stack to all m qubits."""
    return np.broadcast_to(gates[:, None], (len(gates), m, 2, 2))


def _identity_gates(k: int) -> np.ndarray:
    identity = gate_stack(IDENTITY_PARAMS.theta, IDENTITY_PARAMS.alpha, IDENTITY_PARAMS.beta)
    return np.broadcast_to(identity, (k, 2, 2))


def _prop1_deviation(mixtures) -> float:
    """Largest outcome error of the gates that _prop1_angles, prop1_solve's kernel, gives
    at once for the rows of a (k, 4) array of mixtures, simulated in one stacked call."""
    mixtures = np.asarray(mixtures, dtype=float)
    first = gate_stack(*_prop1_angles(*mixtures.T))
    masses = outcome_masses(_TWO_STAGE_GAME,
                            np.stack((first, _identity_gates(len(first))), axis=1))
    order = [_TWO_STAGE_GAME.labels.index(lab) for lab in ("o00", "o01", "o10", "o11")]
    return float(np.abs(masses[:, order] - mixtures).max())


def prop1_verify(sample_count: int = 1000, seed: int = 7) -> dict:
    """Seeded sweep of random and boundary mixtures through prop1_solve's kernel, _prop1_angles."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    checks = []

    # one draw of k Dirichlet rows is the same stream as k draws of one row
    dev = _prop1_deviation(rng.dirichlet((1.0,) * 4, size=sample_count))
    checks.append(make_check(
        "prop1_random_mixtures", {"samples": sample_count, "seed": seed},
        0.0, dev, dev, dev <= PROB1_TOL))

    dev = _prop1_deviation(np.eye(4))
    checks.append(make_check(
        "prop1_unit_vectors", {}, 0.0, dev, dev, dev <= PROB1_TOL))

    faces = rng.dirichlet((1.0,) * 3, size=(4, 5))
    boundary = [np.insert(faces[hole], hole, 0.0, axis=1) for hole in range(4)]
    for a in (0.3, 0.5, 0.9):
        boundary.append([(a, 0.0, 0.0, 1.0 - a), (0.0, a, 1.0 - a, 0.0)])
    boundary = np.concatenate(boundary)
    dev = _prop1_deviation(boundary)
    checks.append(make_check(
        "prop1_boundary_mixtures", {"cases": len(boundary), "seed": seed},
        0.0, dev, dev, dev <= PROB1_TOL))
    return make_report(checks)


# --------------------------------------------------------------------------
# claim 2: one-parameter gates implement the label-valued n-tuple problem


def _exit_rows(thetas: np.ndarray) -> tuple:
    """Behavioral rows of the one-set driver trees: exit with probability
    cos^2(theta/2) at every angle, as one array per action."""
    p = np.cos(thetas / 2.0) ** 2
    return ((p, 1.0 - p),)


def prop2_verify(n_max: int = 5, theta_grid: int = 101) -> dict:
    """Simulation vs the closed-form amplitudes and vs the tree model's outcome
    masses at exit probability cos^2(theta/2), over n <= n_max and a theta grid."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    check_stack_size(theta_grid, n_max + 1)  # the largest stack, before n = 1 runs
    thetas = np.linspace(0.0, math.pi, theta_grid)
    gates = gate_stack(thetas)
    exits = _exit_rows(thetas)
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
        checks.append(make_check(
            f"prop2_amplitudes_n{n}", {"n": n, "theta_grid": theta_grid},
            0.0, amp_dev, amp_dev, amp_dev <= AMP_TOL))
        checks.append(make_check(
            f"prop2_outcome_masses_n{n}", {"n": n, "theta_grid": theta_grid},
            0.0, mass_dev, mass_dev, mass_dev <= MASS_TOL))
    return make_report(checks)


# --------------------------------------------------------------------------
# claim 3: strict quantum dominance above a threshold payoff


def classical_max_closed_form(n: int, lam: float) -> tuple[float, float]:
    """Maximizer and maximum of (1-p)^n ((lam-1)p + 1) over p in [0, 1]."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
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
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
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
    n: int
    theta: float
    alpha: float
    beta: float
    lam0: float
    delta: float
    lam: float
    quantum_payoff: float
    classical_max: float
    margin: float
    dominates: bool


def _cross_check(kind: str, value: float, other: float, against: str, tol: float) -> None:
    """Raise CrossCheckError unless a search's value lies within
    max(tol, 1e-9) * max(1, |other|) of ``other``, a second computation of it."""
    if not abs(value - other) <= max(tol, 1e-9) * max(1.0, abs(other)):
        raise CrossCheckError(f"{kind} optimum mismatch: search {value!r} vs {against} {other!r}")


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
    simulated at the argmax (theta clamped, phases wrapped): (result, simulated payoff)."""
    res = maximize_3d(payoff_three_param_fn(n, lam), grid_per_dim, starts, tol)
    theta, alpha, beta = res.argmax
    gate = build_gate(UnitaryParams(min(max(theta, 0.0), math.pi),
                                    wrap_phase(alpha), wrap_phase(beta)))
    sim = expected_payoff(n_tuple_driver_game(n, lam), [gate] * (n + 1))
    _cross_check("quantum", res.value, sim, "simulation at the argmax", 0.0)
    return res, sim


def prop3_verify(n: int, delta: float = 1.5, lam: float | None = None) -> Prop3Certificate:
    """Compare the fixed dominating unitary strategy against the classical optimum.

    The payoff is lam if given, else delta * lambda0(n).  The quantum side is
    a direct simulation; the classical side is classical_optimum at tol 1e-10.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if lam is None and delta <= 1.0:
        raise ValueError("delta must exceed 1 when lam is not given")
    if n == 1:
        theta, alpha, beta, lam0 = math.pi / 2.0, math.pi / 4.0, 0.0, 2.0
    else:
        theta, alpha, beta, lam0 = prop3_params(n)
    lam_eff = float(lam) if lam is not None else delta * lam0

    gate = build_gate(UnitaryParams(theta, alpha, beta))
    quantum = expected_payoff(n_tuple_driver_game(n, lam_eff), [gate] * (n + 1))

    classical = classical_optimum(n, lam_eff, 1e-10)[0].value
    margin = quantum - classical
    return Prop3Certificate(n, theta, alpha, beta, lam0, delta, lam_eff,
                            quantum, classical, margin, margin > 0.0)


def prop3_sweep(n_values=(2, 3, 4, 5, 6), deltas=(1.1, 1.5, 3.0)) -> dict:
    """Dominance certificates over a grid of (n, delta); all must be strict."""
    check_qubit_count(max(n_values, default=1) + 1)  # before the sweep's first run
    checks = []
    for n in n_values:
        for delta in deltas:
            cert = prop3_verify(n, delta)
            checks.append(make_check(
                f"prop3_dominance_n{n}_delta{delta}",
                {"n": n, "delta": delta, "lam": cert.lam},
                "quantum > classical",
                {"quantum": cert.quantum_payoff, "classical": cert.classical_max,
                 "margin": cert.margin},
                -cert.margin, cert.dominates))
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
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
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
        0.0, dev, dev, dev <= 1e-9))

    dev_sim = 0.0
    dev_tree = 0.0
    lam = 4.0
    thetas = np.linspace(0.0, math.pi, 101)
    exits = _exit_rows(thetas)
    for n in range(1, max(n_max, 6) + 1):
        problem = n_tuple_driver(n, lam)
        closed = payoff_one_param(n, lam, thetas)
        sim = expected_payoffs(ewl_game(problem), _on_every_qubit(gate_stack(thetas), n + 1))
        tree = sum(problem.payoffs[lab] * mass for lab, mass in behavioral_masses(problem, exits))
        dev_sim = max(dev_sim, _max_dev(closed, sim))
        dev_tree = max(dev_tree, _max_dev(closed, tree))
    checks.append(make_check(
        "one_param_closed_form_vs_simulation", {"n_max": max(n_max, 6), "lam": lam},
        0.0, dev_sim, dev_sim, dev_sim <= 1e-9))
    checks.append(make_check(
        "one_param_closed_form_vs_tree_model", {"n_max": max(n_max, 6), "lam": lam},
        0.0, dev_tree, dev_tree, dev_tree <= 1e-9))

    payoffs = (3.0, -1.0, 2.0, 0.5)
    problem = two_stage_problem()
    two_qubit_game = ewl_game(replace(problem, payoffs=dict(zip(problem.labels, payoffs))))
    theta1, theta2 = (t.ravel() for t in np.meshgrid(np.linspace(0.0, math.pi, 21),
                                                     np.linspace(0.0, math.pi, 21),
                                                     indexing="ij"))
    sim = expected_payoffs(two_qubit_game, np.stack((gate_stack(theta1), gate_stack(theta2)),
                                                    axis=1))
    form = sum(payoffs[2 * k + l]
               * np.cos((theta1 - k * math.pi) / 2.0) ** 2
               * np.cos((theta2 - l * math.pi) / 2.0) ** 2
               for k in (0, 1) for l in (0, 1))
    dev = _max_dev(sim, form)
    checks.append(make_check(
        "two_qubit_product_form_vs_simulation", {"grid": 21, "payoffs": list(payoffs)},
        0.0, dev, dev, dev <= 1e-9))

    # one draw of (100, 3) uniforms is the same stream as 100 draws of three
    theta1, alpha1, beta1 = rng.uniform(0.0, (math.pi, TWO_PI, TWO_PI), size=(100, 3)).T
    c2 = np.cos(theta1 / 2.0) ** 2
    s2 = np.sin(theta1 / 2.0) ** 2
    form = ((payoffs[0] * np.cos(alpha1) ** 2 + payoffs[3] * np.sin(alpha1) ** 2) * c2
            + (payoffs[1] * np.sin(beta1) ** 2 + payoffs[2] * np.cos(beta1) ** 2) * s2)
    first = gate_stack(theta1, alpha1, beta1)
    sim = expected_payoffs(two_qubit_game,
                           np.stack((first, _identity_gates(len(first))), axis=1))
    dev = _max_dev(sim, form)
    checks.append(make_check(
        "first_qubit_only_form_vs_simulation", {"samples": 100, "seed": seed},
        0.0, dev, dev, dev <= 1e-9))

    # <01|psi_f> = <10|psi_f> for the same gate on both qubits
    same = gate_stack(*rng.uniform(0.0, (math.pi, TWO_PI, TWO_PI), size=(100, 3)).T)
    amps = final_states(_on_every_qubit(same, 2))
    dev = float(np.abs(amps[:, 1] - amps[:, 2]).max())
    checks.append(make_check(
        "eta_symmetry", {"samples": 100, "seed": seed}, 0.0, dev, dev, dev <= 1e-12))

    lam = 4.0
    theta, alpha = (t.ravel() for t in np.meshgrid(np.linspace(0.0, math.pi, 41),
                                                   np.linspace(0.0, TWO_PI, 41), indexing="ij"))
    wrapped = wrap_phase(alpha)
    sim = expected_payoffs(n_tuple_driver_game(1, lam),
                           _on_every_qubit(gate_stack(theta, wrapped, 0.0), 2))
    dev_linear = _max_dev(sim, _two_param_sine_variant(lam, theta, alpha))
    dev_beta0 = _max_dev(sim, payoff_three_param_fn(1, lam)(theta, wrapped, np.zeros_like(theta)))
    checks.append(make_check(
        "two_param_form_known_discrepancy", {"lam": lam, "grid": 41},
        {"beta0_reduction_deviation": 0.0, "sine_linear_variant": "documented deviation"},
        {"beta0_reduction_deviation": dev_beta0, "sine_linear_deviation": dev_linear},
        dev_beta0, dev_beta0 <= 1e-9,
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
            expected, actual, 0.0 if actual == expected else 1.0, actual == expected))
    if problem is not None:
        actual = has_imperfect_recall(problem)
        checks.append(make_check(
            "user_problem_imperfect_recall",
            {"information_sets": len(problem.info_partition)},
            None, actual, 0.0, True,
            note="informational: no expected value for user-supplied problems"))
    return make_report(checks)
