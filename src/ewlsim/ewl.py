"""The quantization protocol: entangle, apply local SU(2) gates, disentangle.

All payoff formulas printed here are re-derived closed forms; the direct
state-vector simulation in ``final_state``/``expected_payoff`` is the ground
truth they are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .decision import (
    DecisionProblem,
    OutcomeDistribution,
    n_tuple_driver,
    n_tuple_outcomes,
    two_stage_problem,
)
from .optimize import TWO_PI
from .qstate import (
    Gate,
    StateVector,
    check_qubit_count,
    eq_by_value,
    fresh_state,
    hamming_weight,
)

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # i**k for k mod 4


@dataclass(frozen=True)
class UnitaryParams:
    """Angles (theta, alpha, beta) of a single-qubit SU(2) action."""

    theta: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        theta, alpha, beta = float(self.theta), float(self.alpha), float(self.beta)
        if not all(math.isfinite(x) for x in (theta, alpha, beta)):
            raise ValueError("angles must be finite")
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta={theta!r} outside [0, pi]")
        if not 0.0 <= alpha < TWO_PI:
            raise ValueError(f"alpha={alpha!r} outside [0, 2pi)")
        if not 0.0 <= beta < TWO_PI:
            raise ValueError(f"beta={beta!r} outside [0, 2pi)")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def build_gate(params: UnitaryParams) -> Gate:
    """The SU(2) gate with columns

    U|0> = cos(theta/2) e^{i alpha} |0> + sin(theta/2) e^{i(pi/2 - beta)} |1>
    U|1> = sin(theta/2) e^{i(pi/2 + beta)} |0> + cos(theta/2) e^{-i alpha} |1>
    """
    c = math.cos(params.theta / 2.0)
    s = math.sin(params.theta / 2.0)
    ea = complex(math.cos(params.alpha), math.sin(params.alpha))
    eb = complex(math.cos(params.beta), math.sin(params.beta))
    return Gate(np.array([
        [c * ea, 1j * s * eb],
        [1j * s * eb.conjugate(), c * ea.conjugate()],
    ]))


IDENTITY_PARAMS = UnitaryParams(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EwlGame:
    """Basis-indexed payoffs (or outcome labels) for an m-qubit protocol run,
    given as a full-length number or str array and stored as one read-only
    numpy vector."""

    m: int
    payoff_map: np.ndarray

    def __post_init__(self):
        check_qubit_count(self.m)
        dim = 1 << self.m
        table = self.payoff_map
        if not (isinstance(table, np.ndarray) and table.dtype.kind in "iufU"
                and table.shape == (dim,)):
            raise ValueError(f"payoffs must be a number or str array of length {dim}")
        table = table.astype(str if table.dtype.kind == "U" else float)
        if table.dtype.kind == "f" and not np.all(np.isfinite(table)):
            raise ValueError("payoffs must be finite")
        table.flags.writeable = False
        object.__setattr__(self, "payoff_map", table)

    __eq__ = eq_by_value

    @property
    def has_labels(self) -> bool:
        return self.payoff_map.dtype.kind == "U"

    @cached_property
    def _label_runs(self) -> tuple[list[str], np.ndarray]:
        """The label and the start index of each run of equal labels, in basis order."""
        labels = self.payoff_map
        starts = np.flatnonzero(np.concatenate(([True], labels[1:] != labels[:-1])))
        return labels[starts].tolist(), starts


def ewl_game(problem: DecisionProblem) -> EwlGame:
    """The EWL game of a decision problem with binary actions and one
    information set per depth.

    Qubit d carries the action taken at depth d (action 0 is bit 0), so the
    gate of qubit d is the gate of depth d's information set, and a basis state
    is the path its leading bits spell.  The terminal z ending that path covers
    the 2^(m-|z|) basis states with prefix z, a contiguous block, so the game
    is one repeat over the terminals in lexicographic order: of their labels,
    or of their labels' payoffs when the problem has payoffs.
    """
    terminals = sorted(problem.terminal_labels)
    m = max(map(len, terminals))
    check_qubit_count(m)
    depth_sets: dict[int, int] = {}
    for h, acts in problem._children.items():
        if acts != (0, 1):
            raise ValueError(f"the protocol needs the actions (0, 1) at every nonterminal; "
                             f"history {h} has {acts}")
        if depth_sets.setdefault(len(h), problem._set_index[h]) != problem._set_index[h]:
            raise ValueError(f"the protocol needs one information set per depth; "
                             f"depth {len(h)} holds several")
    labels = [problem.terminal_labels[z] for z in terminals]
    values = labels if problem.payoffs is None else [problem.payoffs[lab] for lab in labels]
    return EwlGame(m, np.repeat(values, [1 << (m - len(z)) for z in terminals]))


def n_tuple_driver_game(n: int, lam: float) -> EwlGame:
    """Driver payoffs on n+1 qubits: lam on |1..10>, 1 on |1..11>, 0 elsewhere."""
    return ewl_game(n_tuple_driver(n, lam))


def driver_game(lam: float) -> EwlGame:
    return n_tuple_driver_game(1, lam)


def two_stage_game(labels: Sequence[str] = ("o00", "o01", "o10", "o11")) -> EwlGame:
    """Two-qubit game whose four basis states carry the four outcome labels."""
    if len(labels) != 4:
        raise ValueError(f"need four labels, got {len(labels)}")
    return ewl_game(two_stage_problem(*labels))


def n_tuple_outcome_game(n: int) -> EwlGame:
    """Label-valued driver game: basis states starting with t ones and a zero
    carry label o{t+1} (the driver exits at intersection t+1), and the all-ones
    state carries o{n+2}."""
    return ewl_game(n_tuple_outcomes(n))


# --------------------------------------------------------------------------
# protocol simulation


# weights of P_0, P_1, rev(P_0), rev(P_1) in the final state (see final_state)
_FINAL_WEIGHTS = np.array([[0.5], [0.5j], [-0.5j], [0.5]])


def _column_products(gates: Sequence[Gate]) -> np.ndarray:
    """Rows: the Kronecker products of column 0 and of column 1 of every gate, in
    order, then the same two reversed."""
    cols = np.ones((2, 1), dtype=complex)
    for gate in gates:
        cols = (cols[:, :, None] * gate.matrix.T[:, None, :]).reshape(2, -1)
    return np.concatenate((cols, cols[:, ::-1]))


def final_state(gates: Sequence[Gate]) -> StateVector:
    """J^dag (U_1 x ... x U_m) J |0...0> on m = len(gates) qubits, built in closed form.

    J|0...0> = (|0...0> + i|1...1>)/sqrt2, so with P_j the Kronecker product of
    column j of every gate, psi = (P_0 + i P_1 - i rev(P_0) + rev(P_1)) / 2,
    because J^dag = (I - i X^m)/sqrt2 and X^m reverses the basis.  Split at
    qubit h = m // 2, P_j = A_j x B_j and rev(P_j) = rev(A_j) x rev(B_j), so
    the 2^h x 2^(m-h) amplitude matrix is one rank-4 product.
    """
    m = len(gates)
    check_qubit_count(m)
    h = m // 2
    amps = _column_products(gates[:h]).T @ (_column_products(gates[h:]) * _FINAL_WEIGHTS)
    return fresh_state(m, amps.reshape(-1))


def _probabilities(game: EwlGame, gates: Sequence[Gate]) -> np.ndarray:
    if len(gates) != game.m:
        raise ValueError(f"need exactly {game.m} gates, got {len(gates)}")
    return final_state(gates).probabilities


def expected_payoff(game: EwlGame, gates: Sequence[Gate]) -> float:
    """Sum of payoff(y) * |<psi_f|y>|^2 over the basis."""
    if game.has_labels:
        raise TypeError("label-valued game: use outcome_distribution_ewl")
    return float(game.payoff_map @ _probabilities(game, gates))


def outcome_distribution_ewl(game: EwlGame, gates: Sequence[Gate]) -> OutcomeDistribution:
    """Distribution over outcome labels induced by measuring the final state."""
    if not game.has_labels:
        raise TypeError("numeric game: use expected_payoff")
    probs = _probabilities(game, gates)
    labels, starts = game._label_runs
    # reduceat sums each run pairwise; a sequential sum misses the 1e-12 check at m=20
    acc: dict[str, float] = {}
    for lab, mass in zip(labels, np.add.reduceat(probs, starts).tolist()):
        acc[lab] = acc.get(lab, 0.0) + mass
    return OutcomeDistribution(acc)


# --------------------------------------------------------------------------
# closed forms (validated against the simulation above)


def amplitude_one_param(y: int, theta: float, m: int) -> complex:
    """<y|psi_f> when the same U(theta, 0, 0) acts on all m qubits:

    i^r(y) * cos^r(ybar)(theta/2) * sin^r(y)(theta/2),
    with r the Hamming weight and ybar the bit complement.
    """
    r = hamming_weight(y, m)
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return _I_POW[r % 4] * (c ** (m - r)) * (s ** r)


def payoff_one_param(n: int, lam: float, theta: float) -> float:
    """Driver payoff under U(theta,0,0) on all n+1 qubits:

    lam * cos^2(theta/2) sin^2n(theta/2) + sin^(2n+2)(theta/2).

    Equals the classical behavioral payoff at exit probability
    p = cos^2(theta/2).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    c2 = math.cos(theta / 2.0) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    return lam * c2 * s2 ** n + s2 ** (n + 1)


def _three_param_value(n: int, lam: float, theta, alpha, beta):
    """The payoff of ``payoff_three_param`` in real arithmetic, on Python floats
    (through ``math``) or on numpy arrays that broadcast together (through numpy).

    With x = c^n s sin(n a - b), y = c s^n cos(a - n b), p = c^(n+1) sin((n+1) a)
    and q = s^(n+1) cos((n+1) b), the two amplitudes are i x + i^n y and
    p + i^(n+1) q, so by n mod 4 their squared moduli are x^2 + y^2 and
    p^2 + q^2 (n even), (x + y)^2 and (p - q)^2 (n = 1 mod 4), or (x - y)^2
    and (p + q)^2 (n = 3 mod 4).  Powers are repeated products, not pow, so a
    float call and an array call run the same operations; they give equal
    values wherever numpy's sin and cos round as math's do (the tests check it).
    """
    xp = math if type(theta) is type(alpha) is type(beta) is float else np
    half = theta / 2.0
    c, s = xp.cos(half), xp.sin(half)
    cn, sn = c, s
    for _ in range(n - 1):
        cn = cn * c
        sn = sn * s
    x = cn * s * xp.sin(n * alpha - beta)
    y = c * sn * xp.cos(alpha - n * beta)
    p = cn * c * xp.sin((n + 1) * alpha)
    q = sn * s * xp.cos((n + 1) * beta)
    if n % 2 == 0:
        return lam * (x * x + y * y) + (p * p + q * q)
    home, lodge = (x + y, p - q) if n % 4 == 1 else (x - y, p + q)
    return lam * (home * home) + lodge * lodge


def payoff_three_param(n: int, lam: float, params: UnitaryParams) -> float:
    """Driver payoff under U(theta, alpha, beta) on all n+1 qubits:

    lam * |i cos^n(t/2) sin(t/2) sin(n a - b) + i^n cos(t/2) sin^n(t/2) cos(a - n b)|^2
        + |cos^(n+1)(t/2) sin((n+1) a)      + i^(n+1) sin^(n+1)(t/2) cos((n+1) b)|^2
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return _three_param_value(n, lam, params.theta, params.alpha, params.beta)


def payoff_three_param_fn(n: int, lam: float) -> Callable:
    """Raw-angle objective f(theta, alpha, beta) for the optimizers (periodic in
    alpha and beta): a float for float angles, an array for angle arrays that
    broadcast together, with the same value at every point either way."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return partial(_three_param_value, n, lam)


def payoff_two_qubit_general(outcome_payoffs: Sequence[float], p1: UnitaryParams,
                             p2: UnitaryParams) -> float:
    """Two-qubit expected payoff with independent gates, by direct simulation.

    ``outcome_payoffs`` orders the basis as (o00, o01, o10, o11).
    """
    game = EwlGame(2, np.asarray(outcome_payoffs, dtype=float))
    return expected_payoff(game, [build_gate(p1), build_gate(p2)])


def eta_symmetry_check(params: UnitaryParams) -> float:
    """|<01|psi_f> - <10|psi_f>| for the same gate on both qubits."""
    gate = build_gate(params)
    psi = final_state([gate, gate])
    return float(abs(psi.amps[1] - psi.amps[2]))
