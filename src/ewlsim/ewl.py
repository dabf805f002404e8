"""The quantization protocol: entangle, apply local SU(2) gates, disentangle.

Every game is a decision tree compiled by ``ewl_game``: each terminal's path
is an aligned block of basis states carrying its label or payoff, and payoffs
and outcome masses come from ``block_masses``, which sums each block's mass
from the four product states of the final state with no 2^m array.  Only
``final_states``/``final_state`` build the 2^m amplitudes, for callers whose
output is amplitudes: ``simulate``'s basis table, ``verify prop2``'s amplitude
check, the eta symmetry, and the tests, where they (and the dense oracle) are
the ground truth that ``block_masses`` is checked against.  All payoff
formulas printed here are re-derived closed forms, tested against both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    MAX_QUBITS,
    Gate,
    StateVector,
    _unchecked_state,
    check_norms,
    check_qubit_count,
    check_state_rows,
    eq_by_value,
    hamming_weight,
)

_I_POW = np.array([1, 1j, -1, -1j])  # i**k for k mod 4
# no array of a stack of protocol runs holds more complex entries than this,
# which is what one state at the qubit limit holds; larger stacks run in chunks
STACK_BUDGET = 1 << MAX_QUBITS
# block_masses works on chunks whose widest array holds at most this many
# entries (128 KiB): on a 2-vCPU host, prop1's 1000 two-qubit runs took
# 0.59 ms in chunks of 2^13 entries and 1.2 ms in chunks of 2^14 or 2^15
# when other work ran between the calls, as it does in the sweeps
MASS_CHUNK = 1 << 13


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


def gate_stack(theta, alpha=0.0, beta=0.0) -> np.ndarray:
    """The SU(2) gates of angle arrays that broadcast together, as one complex
    array of shape (broadcast shape, 2, 2).  Each gate has the columns

    U|0> = cos(theta/2) e^{i alpha} |0> + sin(theta/2) e^{i(pi/2 - beta)} |1>
    U|1> = sin(theta/2) e^{i(pi/2 + beta)} |0> + cos(theta/2) e^{-i alpha} |1>

    UnitaryParams' range checks run once over the stack; an angle out of range
    raises UnitaryParams' own error for the first gate that has one.  Finite
    angles give unitary matrices by construction, so the stack gets no
    unitarity check of its own: Gate checks each matrix it wraps, and
    block_masses and final_states check every run's norm.
    """
    theta, alpha, beta = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                               for x in (theta, alpha, beta)))
    in_range = ((0.0 <= theta) & (theta <= math.pi) & (0.0 <= alpha) & (alpha < TWO_PI)
                & (0.0 <= beta) & (beta < TWO_PI))  # False for nan and inf too
    if not in_range.all():
        first = np.unravel_index(np.argmin(in_range), in_range.shape)
        UnitaryParams(*(float(x[first]) for x in (theta, alpha, beta)))  # raises
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ca, sa, cb, sb = np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta)
    mats = np.empty(theta.shape + (2, 2), dtype=complex)
    parts = mats.view(np.float64).reshape(theta.shape + (2, 2, 2))  # last axis: re, im
    parts[..., 0, 0, 0], parts[..., 0, 0, 1] = c * ca, c * sa
    parts[..., 0, 1, 0], parts[..., 0, 1, 1] = -(s * sb), s * cb
    parts[..., 1, 0, 0], parts[..., 1, 0, 1] = s * sb, s * cb
    parts[..., 1, 1, 0], parts[..., 1, 1, 1] = c * ca, -(c * sa)
    return mats


def build_gate(params: UnitaryParams) -> Gate:
    """The SU(2) gate of gate_stack at one setting of the angles."""
    return Gate(gate_stack(params.theta, params.alpha, params.beta))


IDENTITY_PARAMS = UnitaryParams(0.0, 0.0, 0.0)


@dataclass(frozen=True, init=False)
class EwlGame:
    """Payoffs (or outcome labels) of an m-qubit protocol run, one per block of
    the basis, as ``ewl_game`` compiles them from a decision tree; it is the
    only way to build one.

    Block i is the i-th terminal z of the tree in lexicographic order: the
    2^(m-|z|) basis states whose leading bits spell z, carrying values[i].
    Column i of ``rows`` spells z for block_masses: 3q + z[q] for each qubit
    q on the path and 3q + 2 for each qubit past it.  Games compare by value,
    field by field.
    """

    m: int
    rows: np.ndarray
    values: np.ndarray

    __eq__ = eq_by_value

    @property
    def has_labels(self) -> bool:
        return self.values.dtype.kind == "U"

    @cached_property
    def _label_blocks(self) -> tuple[tuple[str, ...], np.ndarray | None]:
        """The distinct labels in order of first appearance and the index of
        each block's label, or None when every block has its own label."""
        block_labels = self.values.tolist()
        index = {label: i for i, label in enumerate(dict.fromkeys(block_labels))}
        if len(index) == len(block_labels):
            return tuple(index), None
        return tuple(index), np.array([index[x] for x in block_labels])

    @property
    def labels(self) -> tuple[str, ...]:
        """The outcome labels of a label-valued game, in order of first appearance."""
        self._require(labels=True)
        return self._label_blocks[0]

    def _require(self, labels: bool) -> None:
        if labels and not self.has_labels:
            raise TypeError("numeric game: use expected_payoff")
        if not labels and self.has_labels:
            raise TypeError("label-valued game: use outcome_distribution_ewl")


def ewl_game(problem: DecisionProblem) -> EwlGame:
    """The EWL game of a decision problem with binary actions and one
    information set per depth.

    Qubit d carries the action taken at depth d (action 0 is bit 0), so the
    gate of qubit d is the gate of depth d's information set, and a basis state
    is the path its leading bits spell.  The terminal z ending that path covers
    the 2^(m-|z|) basis states with prefix z, an aligned block, so the
    terminals in lexicographic order are the game's blocks, with their labels,
    or their labels' payoffs when the problem has payoffs, as values.
    """
    terminals = sorted(problem.terminal_labels)
    m = max(map(len, terminals))
    check_qubit_count(m)
    depth_sets: dict[int, int] = {}
    for h, s in zip(problem.histories, problem._set):
        if s is None:
            continue
        if problem._set_actions[s] != (0, 1):
            raise ValueError(f"the protocol needs the actions (0, 1) at every nonterminal; "
                             f"history {h} has {problem._set_actions[s]}")
        if depth_sets.setdefault(len(h), s) != s:
            raise ValueError(f"the protocol needs one information set per depth; "
                             f"depth {len(h)} holds several")
    labels = [problem.terminal_labels[z] for z in terminals]
    if problem.payoffs is None:
        values = np.array(labels)
    else:
        values = np.array([problem.payoffs[lab] for lab in labels])
    paths = np.array([z + (2,) * (m - len(z)) for z in terminals]).T  # 2 past the path
    rows = (3 * np.arange(m)[:, None] + paths).astype(np.min_scalar_type(3 * m))  # m bytes per block
    rows.flags.writeable = values.flags.writeable = False
    game = object.__new__(EwlGame)
    game.__dict__.update(m=m, rows=rows, values=values)
    return game


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


# weights of P_0, P_1, rev(P_0), rev(P_1) in the final state (see final_states)
_FINAL_WEIGHTS = np.array([[0.5], [0.5j], [-0.5j], [0.5]])


def _column_products(mats: np.ndarray) -> np.ndarray:
    """For a (k, q, 2, 2) stack of gate matrices, a (k, 4, 2^q) array whose rows
    are the Kronecker products of column 0 and of column 1 of each row's gates,
    in order, then the same two reversed."""
    k = len(mats)
    columns = mats.swapaxes(2, 3)[:, :, :, None, :]  # [:, q, j] is column j of gate q
    cols = np.ones((k, 2, 1, 1), dtype=complex)
    for q in range(mats.shape[1]):
        cols = (cols * columns[:, q]).reshape(k, 2, -1, 1)
    cols = cols.reshape(k, 2, -1)
    return np.concatenate((cols, cols[:, :, ::-1]), axis=1)


def _final_amplitudes(mats: np.ndarray) -> np.ndarray:
    """The (k, 2^m) final amplitudes of a (k, m, 2, 2) gate stack, every row
    checked like a StateVector (finite, norm 1 within NORM_TOL)."""
    h = mats.shape[1] // 2
    amps = (_column_products(mats[:, :h]).swapaxes(1, 2)
            @ (_column_products(mats[:, h:]) * _FINAL_WEIGHTS)).reshape(len(mats), -1)
    check_state_rows(amps)
    return amps


def final_states(mats: np.ndarray, reduce: Callable[[np.ndarray, slice], np.ndarray]) -> np.ndarray:
    """Run the protocol once per row of a (k, m, 2, 2) stack of gate matrices
    (row i holds the gates of qubits 1..m of run i, as gate_stack makes them)
    and reduce the final states: ``reduce(amps, rows)`` gets the checked (r, 2^m)
    amplitudes of the runs ``rows`` of the stack, which it may overwrite, and
    returns r results; the results of every chunk are concatenated.

    Each state is J^dag (U_1 x ... x U_m) J |0...0>, built in closed form.
    J|0...0> = (|0...0> + i|1...1>)/sqrt2, so with P_j the Kronecker product of
    column j of every gate, psi = (P_0 + i P_1 - i rev(P_0) + rev(P_1)) / 2,
    because J^dag = (I - i X^m)/sqrt2 and X^m reverses the basis.  Split at
    qubit h = m // 2, P_j = A_j x B_j and rev(P_j) = rev(A_j) x rev(B_j), so
    the 2^h x 2^(m-h) amplitude matrices of a chunk are one batched rank-4
    product.  A chunk holds as many runs as keep its widest array, the 2^m
    amplitudes or the 4 * 2^(m-h) column products of each run, within
    STACK_BUDGET entries; every row is checked like a StateVector (finite,
    norm 1 within NORM_TOL) before ``reduce`` sees it.  final_state is the
    one-row case.

    Payoffs and masses do not come from here but from block_masses; this
    kernel serves the callers that need the amplitudes themselves (simulate's
    basis table, prop2's amplitude check, the eta symmetry) and the tests,
    which check block_masses against it.
    """
    if mats.ndim != 4 or mats.shape[2:] != (2, 2):
        raise ValueError(f"need a (k, m, 2, 2) stack of gate matrices, got shape {mats.shape}")
    m = mats.shape[1]
    check_qubit_count(m)
    step = max(1, STACK_BUDGET // max(1 << m, 4 << (m - m // 2)))
    results = []
    for start in range(0, max(len(mats), 1), step):
        rows = slice(start, start + step)
        amps = _final_amplitudes(mats[rows])
        results.append(reduce(amps, rows))
        del amps  # the next chunk's amplitudes replace this chunk's, not add to them
    return results[0] if len(results) == 1 else np.concatenate(results)


def final_state(gates: Sequence[Gate]) -> StateVector:
    """J^dag (U_1 x ... x U_m) J |0...0> on m = len(gates) qubits: the one-row
    case of final_states."""
    m = len(gates)
    check_qubit_count(m)
    amps = _final_amplitudes(np.array([[gate.matrix for gate in gates]]))
    return _unchecked_state(m, amps.reshape(-1))


# the pairs (j, l), j <= l, of the terms of the final state (see block_masses),
# and the weight of pair (j, l) in a mass: |w_j|^2, or 2 conj(w_j) w_l for j < l
_LEFT = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
_RIGHT = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
_FIRST_PAIR = tuple(_LEFT.tolist().index(j) for j in range(4))  # where the pairs (j, ...) start
_PAIR_WEIGHTS = (np.where(_LEFT == _RIGHT, 1.0, 2.0) * _FINAL_WEIGHTS[_LEFT, 0].conj()
                 * _FINAL_WEIGHTS[_RIGHT, 0])[:, None]


def block_masses(game: EwlGame, mats: np.ndarray) -> np.ndarray:
    """The mass of each block of ``game`` in the final state of every row of a
    (k, m, 2, 2) gate stack, as a (k, blocks) array, with no array of 2^m
    amplitudes.

    The final state is sum_j w_j F_j with w = (1/2, i/2, -i/2, 1/2) and F_j the
    product state of f_j^q over the qubits q, where f_0, f_1 are the columns of
    gate q and f_2, f_3 the same columns flipped by X (see final_states).  So
    a block with prefix z of depth d has the mass

        sum_jl conj(w_j) w_l prod_{q<d} conj(f_j^q[z_q]) f_l^q[z_q]
                             prod_{q>=d} <f_j^q, f_l^q>,

    a product over the qubits of one factor per qubit and pair (j, l): the
    qubit's bit term, or its Gram entry (the sum of its two bit terms) past
    the prefix.  The pairs with j > l are the conjugates of those with j < l,
    so ten pairs give the mass: one gather of factors and one product over
    the qubits, O(10 m) per block and run.  The Gram is computed, not assumed
    to be the identity, so the masses are exact for any finite gates; every
    run's masses must add up to a norm of 1 within NORM_TOL, which refuses a
    run whose gates are not unitary or not finite.  A chunk holds as many
    runs and blocks as keep its widest array, 10m entries per block and run
    (at least 30m per run, the factors), within MASS_CHUNK entries; the
    factors of a chunk of runs serve all its chunks of blocks.
    """
    _check_stack(game, mats)
    flat = game.rows
    k, m = mats.shape[:2]
    blocks = flat.shape[1]
    cap = max(1, MASS_CHUNK // (10 * m))  # blocks times runs per chunk
    width = min(blocks, cap)
    step = max(1, cap // max(width, 3))
    masses = np.empty((k, blocks))
    for start in range(0, k, step):
        rows = slice(start, start + step)
        factors = _pair_factors(mats[rows])
        for first in range(0, blocks, width):
            cols = slice(first, first + width)
            masses[rows, cols] = _summed_terms(factors, flat[:, cols]).T
    check_norms(np.sqrt(masses.sum(axis=1)), mats, "gate entries")
    return masses


def _pair_factors(mats: np.ndarray) -> np.ndarray:
    """The (3m, 10, k) factors of a (k, m, 2, 2) chunk, with the runs on the
    last axis: row 3q + b holds qubit q's bit term on bit b for each pair,
    row 3q + 2 its Gram entry; qubit 0's rows carry the pair weights."""
    k, m = mats.shape[:2]
    amps = np.empty((m, 2, 4, k), dtype=complex)  # amps[q, z, j] = f_j^q[z]
    amps[:, :, :2] = mats.transpose(1, 2, 3, 0)
    amps[:, :, 2:] = amps[:, ::-1, :2]
    factors = np.empty((m, 3, 10, k), dtype=complex)
    conj = amps.conj()
    for j, first in enumerate(_FIRST_PAIR):  # the pairs (j, j), ..., (j, 3) for each j
        np.multiply(conj[:, :, j:j + 1], amps[:, :, j:], out=factors[:, :2, first:first + 4 - j])
    np.add(factors[:, 0], factors[:, 1], out=factors[:, 2])  # the qubit's Gram entries
    factors[0] *= _PAIR_WEIGHTS  # every block takes one factor of qubit 0
    return factors.reshape(3 * m, 10, k)


def _summed_terms(factors: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The (blocks, k) masses of the blocks whose factor rows are ``flat``.
    The products run over the first axis and the ten pair terms are added
    with cumsum, so every run's masses take the same steps in a chunk of any
    size: numpy reduces a contiguous axis in another order."""
    terms = np.take(factors, flat, axis=0).prod(axis=0)
    return np.cumsum(terms.real, axis=1)[:, -1]


def expected_payoffs(game: EwlGame, mats: np.ndarray) -> np.ndarray:
    """expected_payoff of every row of a (k, m, 2, 2) gate stack, as k floats."""
    game._require(labels=False)
    return (block_masses(game, mats) * game.values).sum(axis=1)


def outcome_masses(game: EwlGame, mats: np.ndarray) -> np.ndarray:
    """The masses of ``game.labels`` for every row of a (k, m, 2, 2) gate stack,
    as a (k, len(labels)) array."""
    game._require(labels=True)
    masses = block_masses(game, mats)
    labels, owner = game._label_blocks
    if owner is None:
        return masses
    by_label = np.zeros((len(masses), len(labels)))
    np.add.at(by_label.T, owner, masses.T)  # adds a label's blocks in basis order
    return by_label


def _check_stack(game: EwlGame, mats: np.ndarray) -> None:
    if mats.ndim != 4 or mats.shape[1:] != (game.m, 2, 2):
        raise ValueError(f"need a stack of {game.m} gates per run, got shape {mats.shape}")


def _one_run(game: EwlGame, gates: Sequence[Gate]) -> np.ndarray:
    if len(gates) != game.m:
        raise ValueError(f"need exactly {game.m} gates, got {len(gates)}")
    return np.array([[gate.matrix for gate in gates]])


def expected_payoff(game: EwlGame, gates: Sequence[Gate]) -> float:
    """Sum of payoff(y) * |<psi_f|y>|^2 over the basis: the one-row case of
    expected_payoffs."""
    return float(expected_payoffs(game, _one_run(game, gates))[0])


def outcome_distribution_ewl(game: EwlGame, gates: Sequence[Gate]) -> OutcomeDistribution:
    """Distribution over outcome labels induced by measuring the final state:
    the one-row case of outcome_masses."""
    masses = outcome_masses(game, _one_run(game, gates))[0]
    return OutcomeDistribution(dict(zip(game.labels, masses.tolist())))


# --------------------------------------------------------------------------
# closed forms (validated against the simulation above)


def _amplitude_by_weight(r, theta, m: int):
    """i^r cos^(m-r)(theta/2) sin^r(theta/2) for Hamming weights and angles that
    broadcast together."""
    return _I_POW[r % 4] * np.cos(theta / 2.0) ** (m - r) * np.sin(theta / 2.0) ** r


def amplitude_one_param(y: int, theta: float, m: int) -> complex:
    """<y|psi_f> when the same U(theta, 0, 0) acts on all m qubits:

    i^r(y) * cos^r(ybar)(theta/2) * sin^r(y)(theta/2),
    with r the Hamming weight and ybar the bit complement.
    """
    return complex(_amplitude_by_weight(hamming_weight(y, m), theta, m))


def amplitudes_one_param(thetas: np.ndarray, m: int) -> np.ndarray:
    """amplitude_one_param for every basis state and every angle of a 1-D array:
    a (len(thetas), 2^m) array, one value per Hamming weight and angle indexed by
    each basis state's popcount."""
    check_qubit_count(m)
    weights = np.zeros(1, dtype=np.intp)
    for _ in range(m):  # basis states 2^j..2^(j+1)-1 add a leading 1 to 0..2^j-1
        weights = np.concatenate((weights, weights + 1))
    by_weight = _amplitude_by_weight(np.arange(m + 1), np.asarray(thetas, dtype=float)[:, None], m)
    return by_weight[:, weights]


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
    broadcast together, with the same value at every point either way.  lam may
    also be an array that broadcasts with the angles."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return partial(_three_param_value, n, lam)


def payoff_two_qubit_general(outcome_payoffs: Sequence[float], p1: UnitaryParams,
                             p2: UnitaryParams) -> float:
    """Two-qubit expected payoff with independent gates, by direct simulation.

    ``outcome_payoffs`` orders the basis as (o00, o01, o10, o11).
    """
    if len(outcome_payoffs) != 4:
        raise ValueError(f"need four payoffs, got {len(outcome_payoffs)}")
    problem = two_stage_problem()
    game = ewl_game(replace(problem, payoffs=dict(zip(problem.labels, outcome_payoffs))))
    return expected_payoff(game, [build_gate(p1), build_gate(p2)])


def eta_symmetry_check(params: UnitaryParams) -> float:
    """|<01|psi_f> - <10|psi_f>| for the same gate on both qubits."""
    gate = build_gate(params)
    psi = final_state([gate, gate])
    return float(abs(psi.amps[1] - psi.amps[2]))
