"""The quantization protocol: entangle, apply local SU(2) gates, disentangle.

Every game is a decision tree compiled by ``ewl_game``: each terminal's path
is an aligned block of basis states carrying its label, and the game keeps the
tree's payoffs of its labels when it has any.  Payoffs and outcome masses come
from ``block_masses``, which sums each block's mass from the four product
states of the final state with no 2^m array.  Only ``final_states``/
``final_state`` build the 2^m amplitudes, for callers whose output is
amplitudes: ``simulate``'s basis table, ``verify prop2``'s amplitude check,
the eta symmetry, and the tests, where they (and the dense oracle) are the
ground truth that ``block_masses`` is checked against; a stack whose arrays
would exceed STACK_BUDGET entries is refused before any work.  All payoff
formulas printed here are re-derived closed forms, tested against both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .decision import (
    DecisionProblem,
    OutcomeDistribution,
    _check_n,
    n_tuple_driver,
    n_tuple_outcomes,
    two_stage_problem,
)
from .optimize import wrap_phase
from .qstate import (
    MAX_QUBITS,
    Gate,
    StateVector,
    _unchecked_state,
    check_norms,
    check_qubit_count,
    check_state_rows,
    eq_by_value,
)

_I_POW = np.array([1, 1j, -1, -1j])  # i**k for k mod 4
_HALF_PI = math.pi / 2.0
# final_states refuses a stack whose widest array would hold more complex
# entries than this, which is what one state at the qubit limit holds
STACK_BUDGET = 1 << MAX_QUBITS
# block_masses works on chunks whose widest array holds at most this many
# entries (128 KiB): on a 2-vCPU host, prop1's 1000 two-qubit runs took
# 0.59 ms in chunks of 2^13 entries and 1.2 ms in chunks of 2^14 or 2^15
# when other work ran between the calls, as it does in the sweeps
MASS_CHUNK = 1 << 13


@dataclass(frozen=True)
class UnitaryParams:
    """Finite angles (theta, alpha, beta) of a single-qubit SU(2) action, theta
    in [0, pi]; each phase is stored reduced to [0, 2pi) by wrap_phase."""

    theta: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        theta, alpha, beta = float(self.theta), float(self.alpha), float(self.beta)
        if not all(math.isfinite(x) for x in (theta, alpha, beta)):
            raise ValueError("angles must be finite")
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta={theta!r} outside [0, pi]")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", wrap_phase(alpha))
        object.__setattr__(self, "beta", wrap_phase(beta))


def _half_angle(xp, theta):
    """cos(theta/2) and sin(theta/2) through xp (math or numpy), the cosine as
    sin(pi/2 - theta/2): near theta = pi that difference is exact (Sterbenz),
    so the cosine is 0 at the float pi, where cos(pi/2) is 6e-17.  The gates
    and every closed form take their half angles from here."""
    half = theta / 2.0
    return xp.sin(_HALF_PI - half), xp.sin(half)


def gate_stack(theta, alpha=0.0, beta=0.0) -> np.ndarray:
    """The SU(2) gates of angle arrays that broadcast together, as one complex
    array of shape (broadcast shape, 2, 2).  Each gate has the columns

    U|0> = cos(theta/2) e^{i alpha} |0> + sin(theta/2) e^{i(pi/2 - beta)} |1>
    U|1> = sin(theta/2) e^{i(pi/2 + beta)} |0> + cos(theta/2) e^{-i alpha} |1>

    A non-finite angle or theta outside [0, pi] raises UnitaryParams' own error
    for the first gate that has one; a finite phase is taken as given, since
    cos and sin are periodic.  Finite angles give unitary matrices by
    construction, so the stack gets no unitarity check: Gate checks each
    matrix it wraps, and block_masses and final_states check every run's norm.
    """
    theta, alpha, beta = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                               for x in (theta, alpha, beta)))
    in_range = (0.0 <= theta) & (theta <= math.pi) & np.isfinite(alpha) & np.isfinite(beta)
    if not in_range.all():
        first = np.unravel_index(np.argmin(in_range), in_range.shape)
        UnitaryParams(*(float(x[first]) for x in (theta, alpha, beta)))  # raises
    c, s = _half_angle(np, theta)
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


@dataclass(frozen=True, init=False)
class EwlGame:
    """A decision tree compiled by ``ewl_game`` for an m-qubit protocol run: its
    outcome labels, and its payoffs when the tree has them, with the blocks of
    the basis that carry each label.  ``ewl_game`` is the only way to build one.

    Block i is the i-th terminal z of the tree in lexicographic order: the
    2^(m-|z|) basis states whose leading bits spell z, labelled
    labels[label_index[i]].  ``labels`` lists the distinct labels in order of
    first appearance over the blocks, and ``payoffs`` holds each label's
    payoff, or is None for a tree with outcome labels only.  Column i of
    ``rows`` spells z for block_masses: 3q + z[q] for each qubit q on the path
    and 3q + 2 for each qubit past it.  Games compare by value, field by field.
    """

    m: int
    rows: np.ndarray
    labels: tuple[str, ...]
    label_index: np.ndarray
    payoffs: np.ndarray | None

    __eq__ = eq_by_value


def ewl_game(problem: DecisionProblem) -> EwlGame:
    """The EWL game of a decision problem with binary actions and one
    information set per depth.

    Qubit d carries the action taken at depth d (action 0 is bit 0), so the
    gate of qubit d is the gate of depth d's information set, and a basis state
    is the path its leading bits spell.  The terminal z ending that path covers
    the 2^(m-|z|) basis states with prefix z, an aligned block, so the
    terminals in lexicographic order are the game's blocks, each carrying its
    label; the game keeps the problem's payoffs of those labels too, when it
    has any.
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
    block_labels = [problem.terminal_labels[z] for z in terminals]
    index = {label: i for i, label in enumerate(dict.fromkeys(block_labels))}
    label_index = np.array([index[label] for label in block_labels])
    payoffs = None
    if problem.payoffs is not None:
        payoffs = np.array([problem.payoffs[label] for label in index])
        payoffs.flags.writeable = False
    paths = np.array([z + (2,) * (m - len(z)) for z in terminals]).T  # 2 past the path
    rows = (3 * np.arange(m)[:, None] + paths).astype(np.min_scalar_type(3 * m))  # m bytes per block
    rows.flags.writeable = label_index.flags.writeable = False
    game = object.__new__(EwlGame)
    game.__dict__.update(m=m, rows=rows, labels=tuple(index), label_index=label_index,
                         payoffs=payoffs)
    return game


def n_tuple_driver_game(n: int, lam: float) -> EwlGame:
    """n_tuple_outcome_game with payoffs lam on o{n+1} (|1..10>), 1 on o{n+2}."""
    return ewl_game(n_tuple_driver(n, lam))


def driver_game(lam: float) -> EwlGame:
    return n_tuple_driver_game(1, lam)


def two_stage_game() -> EwlGame:
    """Two-qubit game whose basis states |kl> carry the outcome labels o{k}{l}."""
    return ewl_game(two_stage_problem())


def n_tuple_outcome_game(n: int) -> EwlGame:
    """n_tuple_driver_game without payoffs: basis states starting with t ones
    and a zero carry label o{t+1} (the driver exits at intersection t+1), and
    the all-ones state carries o{n+2}."""
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


def check_stack_size(k: int, m: int) -> None:
    """Refuse k protocol runs on m qubits before any of their arrays exist:
    k must be at least 1, m must pass check_qubit_count, and the widest array
    of final_states on such a stack, the 2^m amplitudes or the
    4 * 2^(m - m//2) column products of each run, must hold at most
    STACK_BUDGET entries."""
    if k < 1:
        raise ValueError(f"need at least one run, got {k}")
    check_qubit_count(m)
    entries = k * max(1 << m, 4 << (m - m // 2))
    if entries > STACK_BUDGET:
        raise ValueError(f"{k} runs on {m} qubits need an array of {entries:,} complex entries, "
                         f"over the budget of {STACK_BUDGET:,} (STACK_BUDGET)")


def final_states(mats: np.ndarray) -> np.ndarray:
    """The final states of the protocol run once per row of a (k, m, 2, 2)
    stack of gate matrices (row i holds the gates of qubits 1..m of run i, as
    gate_stack makes them), as a new, writeable (k, 2^m) array of amplitudes,
    every row checked like a StateVector (finite, norm 1 within NORM_TOL).  A
    stack check_stack_size refuses raises its ValueError before any work.

    Each state is J^dag (U_1 x ... x U_m) J |0...0>, built in closed form.
    J|0...0> = (|0...0> + i|1...1>)/sqrt2, so with P_j the Kronecker product of
    column j of every gate, psi = (P_0 + i P_1 - i rev(P_0) + rev(P_1)) / 2,
    because J^dag = (I - i X^m)/sqrt2 and X^m reverses the basis.  Split at
    qubit h = m // 2, P_j = A_j x B_j and rev(P_j) = rev(A_j) x rev(B_j), so
    the 2^h x 2^(m-h) amplitude matrices of the stack are one batched rank-4
    product.  final_state is the one-row case.

    Payoffs and masses do not come from here but from block_masses; this
    kernel serves the callers that need the amplitudes themselves (simulate's
    basis table, prop2's amplitude check, the eta symmetry) and the tests,
    which check block_masses against it.
    """
    if mats.ndim != 4 or mats.shape[2:] != (2, 2):
        raise ValueError(f"need a (k, m, 2, 2) stack of gate matrices, got shape {mats.shape}")
    k, m = mats.shape[:2]
    check_stack_size(k, m)
    h = m // 2
    amps = (_column_products(mats[:, :h]).swapaxes(1, 2)
            @ (_column_products(mats[:, h:]) * _FINAL_WEIGHTS)).reshape(k, 1 << m)
    check_state_rows(amps)
    return amps


def final_state(gates: Sequence[Gate]) -> StateVector:
    """J^dag (U_1 x ... x U_m) J |0...0> on m = len(gates) qubits: the one-row
    case of final_states."""
    m = len(gates)
    return _unchecked_state(m, final_states(_one_run(gates, m)).reshape(-1))


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
    """expected_payoff of every row of a (k, m, 2, 2) gate stack, as k floats,
    from its outcome_masses; a game without payoffs raises ValueError."""
    if game.payoffs is None:
        raise ValueError("game has outcome labels only, no payoffs")
    return (outcome_masses(game, mats) * game.payoffs).sum(axis=1)


def outcome_masses(game: EwlGame, mats: np.ndarray) -> np.ndarray:
    """The masses of ``game.labels`` for every row of a (k, m, 2, 2) gate stack,
    as a (k, len(labels)) array."""
    masses = block_masses(game, mats)
    if len(game.labels) == masses.shape[1]:  # one block per label, in label order
        return masses
    by_label = np.zeros((len(masses), len(game.labels)))
    np.add.at(by_label.T, game.label_index, masses.T)  # adds a label's blocks in basis order
    return by_label


def _check_stack(game: EwlGame, mats: np.ndarray) -> None:
    if mats.ndim != 4 or mats.shape[1:] != (game.m, 2, 2):
        raise ValueError(f"need a stack of {game.m} gates per run, got shape {mats.shape}")


def _one_run(gates: Sequence[Gate], m: int) -> np.ndarray:
    """The (1, m, 2, 2) stack of one run's gates, which must be m."""
    if len(gates) != m:
        raise ValueError(f"need exactly {m} gates, got {len(gates)}")
    return np.array([[gate.matrix for gate in gates]])


def expected_payoff(game: EwlGame, gates: Sequence[Gate]) -> float:
    """Sum of payoff(y) * |<psi_f|y>|^2 over the basis: the one-row case of
    expected_payoffs."""
    return float(expected_payoffs(game, _one_run(gates, game.m))[0])


def outcome_distribution_ewl(game: EwlGame, gates: Sequence[Gate]) -> OutcomeDistribution:
    """Distribution over outcome labels induced by measuring the final state:
    the one-row case of outcome_masses, keyed in sorted label order."""
    masses = outcome_masses(game, _one_run(gates, game.m))[0]
    return OutcomeDistribution(dict(sorted(zip(game.labels, masses.tolist()))))


# --------------------------------------------------------------------------
# closed forms (validated against the simulation above)


def _amplitude_by_weight(r, theta, m: int):
    """i^r cos^(m-r)(theta/2) sin^r(theta/2) for Hamming weights and angles that
    broadcast together."""
    c, s = _half_angle(np, theta)
    return _I_POW[r % 4] * c ** (m - r) * s ** r


def _check_basis_index(y: int, m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"qubit count must be an integer >= 1, got {m}")
    if not isinstance(y, int) or not 0 <= y < (1 << m):
        raise ValueError(f"basis index {y} out of range for {m} qubits")


def amplitude_one_param(y: int, theta: float, m: int) -> complex:
    """<y|psi_f> when the same U(theta, 0, 0) acts on all m qubits:

    i^r(y) * cos^r(ybar)(theta/2) * sin^r(y)(theta/2),
    with r the Hamming weight and ybar the bit complement.
    """
    _check_basis_index(y, m)
    return complex(_amplitude_by_weight(y.bit_count(), theta, m))


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


def payoff_one_param(n: int, lam, theta):
    """Driver payoff under U(theta,0,0) on all n+1 qubits:

    lam * cos^2(theta/2) sin^2n(theta/2) + sin^(2n+2)(theta/2).

    Equals the classical behavioral payoff at exit probability
    p = cos^2(theta/2).  A float theta runs through math, an array (lam may be
    one too) through numpy, bit for bit alike: both take libm's pow.
    """
    _check_n(n)
    xp, power = (math, math.pow) if type(theta) is float else (np, np.float_power)
    c, s = _half_angle(xp, theta)
    s2 = s * s
    return lam * (c * c) * power(s2, n) + power(s2, n + 1)


def _half_angle_powers(xp, n: int, theta):
    """cos(theta/2), sin(theta/2) and their n-th powers, as repeated products."""
    c, s = _half_angle(xp, theta)
    cn, sn = c, s
    for _ in range(n - 1):
        cn = cn * c
        sn = sn * s
    return c, s, cn, sn


def _combine(n: int, lam, x, y, p, q):
    """lam * |i x + i^n y|^2 + |p + i^(n+1) q|^2 in real arithmetic: by n mod 4,
    lam (x^2 + y^2) + (p^2 + q^2) (n even), lam (x + y)^2 + (p - q)^2
    (n = 1 mod 4), or lam (x - y)^2 + (p + q)^2 (n = 3 mod 4)."""
    if n % 2 == 0:
        return lam * (x * x + y * y) + (p * p + q * q)
    home, lodge = (x + y, p - q) if n % 4 == 1 else (x - y, p + q)
    return lam * (home * home) + lodge * lodge


def payoff_three_param_fn(n: int, lam) -> Callable:
    """The driver payoff under U(theta, alpha, beta) on all n+1 qubits as
    f(theta, alpha, beta), the optimizers' objective (periodic in alpha and
    beta): a float for float angles, an array for angle arrays that broadcast
    together (lam may be one too), with the same value at every point either way.

    With c = cos(theta/2), s = sin(theta/2), x = c^n s sin(n a - b),
    y = c s^n cos(a - n b), p = c^(n+1) sin((n+1) a) and
    q = s^(n+1) cos((n+1) b), the two amplitudes are i x + i^n y and
    p + i^(n+1) q, and ``_combine`` takes their squared moduli.  Powers are
    repeated products, not pow, so a float call (through ``math``) and an
    array call (through numpy) run the same operations; they give equal
    values wherever numpy's sin and cos round as math's do (the tests check it).

    ``f.line(coord, point)`` is h(t), f along coordinate ``coord`` (0 theta,
    1 alpha, 2 beta) with the other two held at the floats of ``point``;
    ``optimize.maximize_box`` takes each line search's Brent steps on it (its
    65 samples are one call of f for every live start).  The factors that do
    not depend on t are computed once: on a theta line the four phase terms, on
    a phase line the powers of c and s and the phase term of the held phase.  h
    meets maximize_box's objective contract, and on a phase line it is
    2pi-periodic, so t is never wrapped.  h(t) equals f at that t bit for bit:
    it runs the same products in the same order.
    """
    _check_n(n)

    def payoff(theta, alpha, beta):
        xp = math if type(theta) is type(alpha) is type(beta) is float else np
        c, s, cn, sn = _half_angle_powers(xp, n, theta)
        return _combine(n, lam, cn * s * xp.sin(n * alpha - beta),
                        c * sn * xp.cos(alpha - n * beta), cn * c * xp.sin((n + 1) * alpha),
                        sn * s * xp.cos((n + 1) * beta))

    def line(coord: int, point: Sequence[float]) -> Callable:
        theta, alpha, beta = point
        if coord == 0:
            sin_x, cos_y = math.sin(n * alpha - beta), math.cos(alpha - n * beta)
            sin_p, cos_q = math.sin((n + 1) * alpha), math.cos((n + 1) * beta)

            def theta_line(t):
                c, s, cn, sn = _half_angle_powers(math if type(t) is float else np, n, t)
                return _combine(n, lam, cn * s * sin_x, c * sn * cos_y, cn * c * sin_p,
                                sn * s * cos_q)

            return theta_line
        c, s, cn, sn = _half_angle_powers(math, n, theta)
        cns, csn, cn1, sn1 = cn * s, c * sn, cn * c, sn * s
        if coord == 1:
            n_beta, q = n * beta, sn1 * math.cos((n + 1) * beta)

            def alpha_line(t):
                xp = math if type(t) is float else np
                return _combine(n, lam, cns * xp.sin(n * t - beta), csn * xp.cos(t - n_beta),
                                cn1 * xp.sin((n + 1) * t), q)

            return alpha_line
        if coord == 2:
            n_alpha, p = n * alpha, cn1 * math.sin((n + 1) * alpha)

            def beta_line(t):
                xp = math if type(t) is float else np
                return _combine(n, lam, cns * xp.sin(n_alpha - t), csn * xp.cos(alpha - n * t),
                                p, sn1 * xp.cos((n + 1) * t))

            return beta_line
        raise ValueError(f"coord must be 0, 1 or 2, got {coord!r}")

    payoff.line = line
    return payoff


def payoff_three_param(n: int, lam: float, params: UnitaryParams) -> float:
    """Driver payoff under U(theta, alpha, beta) on all n+1 qubits:

    lam * |i cos^n(t/2) sin(t/2) sin(n a - b) + i^n cos(t/2) sin^n(t/2) cos(a - n b)|^2
        + |cos^(n+1)(t/2) sin((n+1) a)      + i^(n+1) sin^(n+1)(t/2) cos((n+1) b)|^2

    the one-point call of payoff_three_param_fn.
    """
    return payoff_three_param_fn(n, lam)(params.theta, params.alpha, params.beta)


def eta_symmetry_check(params: UnitaryParams) -> float:
    """|<01|psi_f> - <10|psi_f>| for the same gate on both qubits."""
    gate = build_gate(params)
    psi = final_state([gate, gate])
    return float(abs(psi.amps[1] - psi.amps[2]))
