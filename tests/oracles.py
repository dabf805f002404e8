"""Independent dense-matrix reference implementations for the tests.

Everything here builds explicit 2^m x 2^m operators with np.kron, on purpose:
the package applies gates and the entangler structurally and builds the final
protocol state in closed form, so agreement with these oracles checks the fast
paths against a genuinely different one.  ``three_param_payoff`` is the
driver payoff's closed form in complex arithmetic, the reference for the
package's real-arithmetic kernel.  ``tuple_walk_masses`` and
``tuple_walk_recall`` walk decision trees on history tuples through the public
lookups, the references for the package's walks over integer history ids.
``tree_walk_values`` walks a tree once per basis state, the reference for the
blocks that ``ewl_game`` compiles.  ``per_call_mixed_from_behavioral``,
``per_call_outcome`` and ``per_call_behavioral_from_mixed`` redo every step on
each call (enumerate with ``product``, index actions with ``acts.index``, walk
history tuples), the references for the package's cached pure-strategy plan and
path memo.  ``json_dumps_problem`` hands the whole document, every history as a
list, to ``json.dumps``: the reference for ``problem_to_json``, which writes
each history from its parent's text.
"""

import json
import math
from itertools import product

from ewlsim.decision import BehavioralStrategy, MixedStrategy, PureStrategy

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_entangler(m):
    return (kron_all([I2] * m) + 1j * kron_all([PAULI_X] * m)) / np.sqrt(2.0)


def dense_gate(theta, alpha, beta):
    # built from the basis action of the two generator operators, not from
    # the package's matrix layout
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    a_col0 = np.array([np.exp(1j * alpha), 0.0])
    a_col1 = np.array([0.0, np.exp(-1j * alpha)])
    b_col0 = np.array([0.0, np.exp(1j * (np.pi / 2 - beta))])
    b_col1 = np.array([np.exp(1j * (np.pi / 2 + beta)), 0.0])
    return np.column_stack([c * a_col0 + s * b_col0, c * a_col1 + s * b_col1])


def dense_lift(gate2x2, qubit_index, m):
    mats = [I2] * m
    mats[qubit_index - 1] = gate2x2
    return kron_all(mats)


def basis_vector(m, y=0):
    """The amplitudes e_y of the computational basis state |y> on m qubits."""
    e = np.zeros(2 ** m, dtype=complex)
    e[y] = 1.0
    return e


def dense_final_state(gate_matrices):
    m = len(gate_matrices)
    J = dense_entangler(m)
    return J.conj().T @ kron_all(gate_matrices) @ J @ basis_vector(m)


def random_state(m, rng):
    amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
    return amps / np.linalg.norm(amps)


def three_param_payoff(n, lam, theta, alpha, beta):
    """lam |<1..10|psi_f>|^2 + |<1..11|psi_f>|^2 under U(theta, alpha, beta) on
    all n+1 qubits, from the complex amplitudes."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    i_pow = (1 + 0j, 1j, -1 + 0j, -1j)
    amp_home = (1j * (c ** n) * s * math.sin(n * alpha - beta)
                + i_pow[n % 4] * c * (s ** n) * math.cos(alpha - n * beta))
    amp_lodge = ((c ** (n + 1)) * math.sin((n + 1) * alpha)
                 + i_pow[(n + 1) % 4] * (s ** (n + 1)) * math.cos((n + 1) * beta))
    return lam * abs(amp_home) ** 2 + abs(amp_lodge) ** 2


def tuple_walk_masses(problem, local):
    """(label, mass) pairs of a behavioral strategy, in the order the package
    yields them: one top-down pass over the nonterminal history tuples that
    multiplies each reach into its children, yielding a label at its last
    terminal."""
    labels = problem.terminal_labels
    closers = frozenset({labels[z]: z for z in problem.terminals}.values())
    if () in labels:
        yield labels[()], 1.0
    partial = {}
    reach = {(): 1.0}
    for h in problem.histories:
        if h in labels:
            continue
        here = reach.pop(h)
        for a, p in zip(problem.actions(h), local[problem.info_set_index(h)]):
            child = h + (a,)
            label = labels.get(child)
            if label is None:
                reach[child] = here * p
                continue
            mass = here * p
            if label in partial:
                mass = partial.pop(label) + mass
            if child in closers:
                yield label, mass
            else:
                partial[label] = mass


def experience(problem, h):
    """Alternating information sets and actions along h, ending at h's own set."""
    seq = []
    for depth, a in enumerate(h):
        seq.append(problem.info_set_index(h[:depth]))
        seq.append(a)
    seq.append(problem.info_set_index(h))
    return tuple(seq)


def tuple_walk_recall(problem):
    """True iff some information set holds histories with different experiences."""
    return any(len({experience(problem, h) for h in cell}) > 1
               for cell in problem.info_partition)


def tree_walk_values(problem):
    """The label, or the payoff when the problem has payoffs, of every basis
    state of the problem's protocol game, in basis order: basis state y takes
    bit q of y (qubit 1 the most significant) as the action at depth q, from
    the root until its history is a key of ``problem.terminal_labels``."""
    labels = problem.terminal_labels
    m = max(map(len, labels))
    walked = []
    for y in range(1 << m):
        h = ()
        while h not in labels:
            h += ((y >> (m - 1 - len(h))) & 1,)
        walked.append(labels[h])
    if problem.payoffs is None:
        return np.array(walked)
    return np.array([problem.payoffs[label] for label in walked])


def per_call_mixed_from_behavioral(problem, strategy):
    """Product-weight mixed strategy: every pure strategy rebuilt, and each
    factor found with acts.index, in partition order."""
    set_actions = [problem.actions(cell[0]) for cell in problem.info_partition]
    weights = {}
    for choices in product(*set_actions):
        pure = PureStrategy(choices)
        w = 1.0
        for row, acts, a in zip(strategy.local, set_actions, pure.choices):
            w *= row[acts.index(a)]
        if w > 0.0:
            weights[pure] = w
    return MixedStrategy(weights)


def tuple_walk_path(problem, pure):
    """The nonterminal history tuples a pure strategy passes, from the root,
    and the terminal it ends in."""
    path, h = [], ()
    while h not in problem.terminal_labels:
        path.append(h)
        h += (pure.choices[problem.info_set_index(h)],)
    return path, h


def per_call_outcome(problem, strategy):
    """Outcome probabilities of a pure or mixed strategy, in sorted label
    order, one tuple walk per pure strategy."""
    weights = {strategy: 1.0} if isinstance(strategy, PureStrategy) else strategy.weights
    probs = dict.fromkeys(problem.labels, 0.0)
    for pure, w in weights.items():
        probs[problem.terminal_labels[tuple_walk_path(problem, pure)[1]]] += w
    return probs


def per_call_behavioral_from_mixed(problem, strategy):
    """Conditional choice probabilities given reach, one tuple walk per pure
    strategy."""
    set_actions = [problem.actions(cell[0]) for cell in problem.info_partition]
    masses = [dict.fromkeys(acts, 0.0) for acts in set_actions]
    reach_totals = [0.0] * len(masses)
    for pure, w in strategy.weights.items():
        for h in tuple_walk_path(problem, pure)[0]:
            s = problem.info_set_index(h)
            reach_totals[s] += w
            masses[s][pure.choices[s]] += w
    return BehavioralStrategy(tuple(
        tuple(m / total for m in mass.values()) if total > 0.0
        else tuple(1.0 / len(mass) for _ in mass)
        for mass, total in zip(masses, reach_totals)))


def json_dumps_problem(problem, indent=None):
    """The problem's JSON document in one json.dumps call: every history as a
    list of its actions, each information set as the positions of its members
    in ``histories``, the labels keyed by position in that order."""
    position = {h: i for i, h in enumerate(problem.histories)}
    return json.dumps({
        "histories": [list(h) for h in problem.histories],
        "partition": [[position[h] for h in cell] for cell in problem.info_partition],
        "labels": {str(i): problem.terminal_labels[h] for i, h in enumerate(problem.histories)
                   if h in problem.terminal_labels},
        "payoffs": dict(problem.payoffs) if problem.payoffs is not None else None,
    }, indent=indent)
