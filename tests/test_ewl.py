import math
import tracemalloc
from dataclasses import replace
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsim.analysis import classical_max_closed_form, perfect_recall_control, search_slack
from ewlsim.decision import (
    BehavioralStrategy,
    DecisionProblem,
    expected_payoff_classical,
    n_tuple_driver,
    n_tuple_outcomes,
    outcome_of,
    two_stage_problem,
)
from ewlsim import ewl
from ewlsim.ewl import (
    EwlGame,
    UnitaryParams,
    amplitude_one_param,
    amplitudes_one_param,
    block_masses,
    build_gate,
    driver_game,
    eta_symmetry_check,
    ewl_game,
    expected_payoff,
    expected_payoffs,
    final_state,
    final_states,
    gate_stack,
    n_tuple_driver_game,
    n_tuple_outcome_game,
    outcome_distribution_ewl,
    outcome_masses,
    payoff_one_param,
    payoff_three_param,
    payoff_three_param_fn,
    two_stage_game,
)
from ewlsim.optimize import maximize_3d, wrap_phase
from ewlsim.qstate import Gate, StateVector, apply_entangler, apply_single_qubit_gate
from oracles import (basis_vector, dense_final_state, dense_gate, three_param_payoff,
                     tree_walk_values)

TWO_PI = 2.0 * math.pi

angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, TWO_PI, exclude_max=True),
                   st.floats(0.0, TWO_PI, exclude_max=True))


# ------------------------------------------------------------------- gates


def test_gate_identity_and_isx():
    np.testing.assert_allclose(build_gate(UnitaryParams(0.0)).matrix, np.eye(2), atol=1e-15)
    isx = np.array([[0.0, 1j], [1j, 0.0]])
    np.testing.assert_allclose(build_gate(UnitaryParams(math.pi)).matrix, isx, atol=1e-15)


def test_gate_quarter_turn_matrix():
    got = build_gate(UnitaryParams(math.pi / 2, math.pi / 4, 0.0)).matrix
    r = 1.0 / math.sqrt(2.0)
    expected = np.array([[r * np.exp(1j * math.pi / 4), 1j * r],
                         [1j * r, r * np.exp(-1j * math.pi / 4)]])
    np.testing.assert_allclose(got, expected, atol=1e-12)


@given(angles)
@settings(max_examples=60, deadline=None)
def test_gate_is_special_unitary(params):
    mat = build_gate(UnitaryParams(*params)).matrix
    assert abs(np.linalg.det(mat) - 1.0) <= 1e-12


def test_gate_matches_generator_construction():
    rng = np.random.default_rng(2)
    for _ in range(25):
        theta = rng.uniform(0, math.pi)
        alpha, beta = rng.uniform(0, TWO_PI, size=2)
        np.testing.assert_allclose(build_gate(UnitaryParams(theta, alpha, beta)).matrix,
                                   dense_gate(theta, alpha, beta), atol=1e-12)


def test_params_range_validation():
    for bad in ((-0.1, 0, 0), (math.pi + 0.1, 0, 0)):
        with pytest.raises(ValueError):
            UnitaryParams(*bad)


def test_params_store_phases_reduced():
    params = UnitaryParams(1.0, -1.0, TWO_PI)
    assert (params.alpha, params.beta) == (TWO_PI - 1.0, 0.0)
    assert UnitaryParams(1.0, -1e-300, -0.0).alpha == 0.0
    for phase in (-1e-3, 7.0, 3 * TWO_PI + 0.2, -1e300, 1e300):
        params = UnitaryParams(0.5, phase, phase)
        assert params.alpha == params.beta == wrap_phase(phase)
        assert 0.0 <= params.alpha < TWO_PI


@pytest.mark.parametrize("k", [-3, -1, 1, 4])
def test_build_gate_is_periodic_in_its_phases(k):
    rng = np.random.default_rng(35)
    for theta, alpha, beta in rng.uniform(0.0, (math.pi, TWO_PI, TWO_PI), size=(20, 3)).tolist():
        shifted = build_gate(UnitaryParams(theta, alpha + k * TWO_PI, beta - k * TWO_PI))
        reduced = build_gate(UnitaryParams(theta, wrap_phase(alpha + k * TWO_PI),
                                           wrap_phase(beta - k * TWO_PI)))
        assert np.array_equal(shifted.matrix, reduced.matrix)


def test_gate_stack_takes_off_range_phases_as_given():
    phases = np.array([-1e-3, -1e-300, -1.0, TWO_PI, TWO_PI + 0.7, 2 * TWO_PI + 0.2, -20.0])
    theta = np.linspace(0.0, math.pi, 5)[:, None]
    off = gate_stack(theta, phases, phases[::-1])
    in_range = gate_stack(theta, wrap_phase(phases), wrap_phase(phases[::-1]))
    assert np.abs(off - in_range).max() <= 1e-15
    # gate_stack does not wrap: at 2pi the sine is the float sin(2pi), not 0
    assert gate_stack(0.0, TWO_PI)[0, 0] == complex(1.0, math.sin(TWO_PI))


def test_maximize_3d_searches_a_simulated_objective():
    # the search probes phases off [0, 2pi), which the gates take as given
    lam = 4.0
    game = driver_game(lam)

    def simulated(theta, alpha, beta):
        mats = gate_stack(theta, alpha, beta)
        runs = np.repeat(mats.reshape(-1, 1, 2, 2), 2, axis=1)
        values = expected_payoffs(game, runs).reshape(mats.shape[:-2])
        return values if values.ndim else float(values)

    res = maximize_3d(simulated)
    assert abs(res.value - lam / 2.0) <= search_slack(lam / 2.0, 1e-8)
    assert res.value == simulated(*res.argmax)


@pytest.mark.parametrize("build", [lambda n: n_tuple_driver(n, 4.0),
                                   lambda n: payoff_one_param(n, 4.0, 1.0),
                                   lambda n: payoff_three_param_fn(n, 4.0),
                                   lambda n: classical_max_closed_form(n, 4.0)])
def test_driver_size_rule_is_one_refusal(build):
    for bad in (0, -3, 2.0):
        with pytest.raises(ValueError, match=rf"^n must be an integer >= 1, got {bad}$"):
            build(bad)


@pytest.mark.parametrize("bad", [(-0.1, 0.0, 0.0), (math.pi + 0.1, 0.0, 0.0), (-math.inf, 0.0, 0.0),
                                 (math.inf, 0.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0, math.nan),
                                 (math.nan, 0.0, 0.0), (1.0, math.inf, 0.0), (1.0, 0.0, -math.inf)])
def test_gate_stack_refuses_angles_as_unitary_params_does(bad):
    with pytest.raises(ValueError) as expected:
        UnitaryParams(*bad)
    # the bad angles sit in the middle of a stack of good ones
    angles = np.full((3, 4, 3), 0.5)
    angles[1, 2] = bad
    with pytest.raises(ValueError) as got:
        gate_stack(*np.moveaxis(angles, -1, 0))
    assert str(got.value) == str(expected.value)


def test_gate_stack_matches_build_gate_and_broadcasts():
    rng = np.random.default_rng(12)
    theta = rng.uniform(0, math.pi, size=(4, 1))
    alpha = rng.uniform(0, TWO_PI, size=(1, 3))
    mats = gate_stack(theta, alpha, 0.25)
    assert mats.shape == (4, 3, 2, 2)
    for i in range(4):
        for j in range(3):
            gate = build_gate(UnitaryParams(float(theta[i, 0]), float(alpha[0, j]), 0.25))
            assert np.array_equal(mats[i, j], gate.matrix)
    assert gate_stack(1.0).shape == (2, 2)


# -------------------------------------------------------------- final state


def test_identity_gates_give_initial_state():
    psi = final_state([build_gate(UnitaryParams(0.0))] * 3)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_allclose(psi.amps, expected, atol=1e-12)


def test_double_isx_concentrates_on_last_basis_state():
    gate = build_gate(UnitaryParams(math.pi))
    psi = final_state([gate, gate])
    assert psi.probabilities[3] == pytest.approx(1.0, abs=1e-12)


def test_cos4_amplitude_on_00():
    for theta in np.linspace(0.0, math.pi, 17):
        gate = build_gate(UnitaryParams(float(theta)))
        psi = final_state([gate, gate])
        assert psi.probabilities[0] == pytest.approx(math.cos(theta / 2.0) ** 4, abs=1e-12)


def test_final_state_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 4):
        mats = [dense_gate(*rng.uniform(0, 3, size=3)) for _ in range(m)]
        from ewlsim.qstate import Gate

        psi = final_state([Gate(mat) for mat in mats])
        np.testing.assert_allclose(psi.amps, dense_final_state(mats), atol=1e-12)


def _random_gate(rng):
    return build_gate(UnitaryParams(rng.uniform(0, math.pi), *rng.uniform(0, TWO_PI, 2)))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 14])
def test_final_state_matches_gate_by_gate_reference(m):
    # m = 1 leaves the first half empty, odd m splits unevenly
    rng = np.random.default_rng(100 + m)
    gates = [_random_gate(rng) for _ in range(m)]
    state = apply_entangler(StateVector(m, basis_vector(m)))
    for qubit, gate in enumerate(gates, start=1):
        state = apply_single_qubit_gate(state, qubit, gate)
    # J^2 = i X^m, so J^4 = -1 and the closing J^-1 is -J^3 (a dense J^-1 at
    # m = 14 would hold 2^28 entries)
    for _ in range(3):
        state = apply_entangler(state)
    np.testing.assert_allclose(final_state(gates).amps, -state.amps, atol=1e-12)


def test_final_state_peak_allocation():
    # the 2^m output plus one squared-magnitude array for the norm check
    m = 18
    gates = [_random_gate(np.random.default_rng(m))] * m
    final_state(gates)
    tracemalloc.start()
    try:
        final_state(gates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * 2 ** m) < 2.05


def _random_stack(rng, k, m):
    """A (k, m, 2, 2) stack of distinct random gates, one per run and qubit."""
    return gate_stack(rng.uniform(0, math.pi, size=(k, m)), rng.uniform(0, TWO_PI, size=(k, m)),
                      rng.uniform(0, TWO_PI, size=(k, m)))


@pytest.mark.parametrize("m", range(1, 9))
def test_final_states_rows_match_dense_oracle(m):
    rng = np.random.default_rng(40 + m)
    for k in range(1, 6):
        mats = _random_stack(rng, k, m)
        amps = final_states(mats)
        assert amps.shape == (k, 2 ** m)
        for row, gates in zip(amps, mats):
            np.testing.assert_allclose(row, dense_final_state(list(gates)), rtol=0, atol=1e-12)


def test_final_state_is_row_zero_of_the_one_row_stack():
    rng = np.random.default_rng(9)
    for m in (1, 2, 5, 12):
        mats = _random_stack(rng, 1, m)
        row = final_states(mats)[0]
        assert np.array_equal(final_state([Gate(mat) for mat in mats[0]]).amps, row)


def test_mass_chunks_give_the_unchunked_results(monkeypatch):
    rng = np.random.default_rng(10)
    mats = _random_stack(rng, 11, 6)
    game = n_tuple_outcome_game(5)
    whole_masses = outcome_masses(game, mats)
    blocks = len(game.label_index)
    monkeypatch.setattr(ewl, "MASS_CHUNK", 4 * 10 * 6 * blocks)  # four runs per mass chunk
    assert np.array_equal(outcome_masses(game, mats), whole_masses)


def test_final_states_checks_every_row():
    mats = _random_stack(np.random.default_rng(11), 3, 2).copy()
    mats[2, 1] *= 1.001  # no longer unitary: the last run's norm is off
    with pytest.raises(ValueError, match="state norm .* is not 1"):
        final_states(mats)
    mats[1, 0, 0, 0] = math.nan
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        final_states(mats)


def test_stacked_payoffs_and_masses_match_per_run_calls():
    rng = np.random.default_rng(13)
    # parity labels recur in separate blocks, so masses add blocks
    parity = _parity_tree(4)
    paid_parity = replace(parity, payoffs={"even": 2.0, "odd": -1.0})
    for problem in (n_tuple_driver(3, 7.0), n_tuple_outcomes(3), parity, paid_parity):
        game = ewl_game(problem)
        mats = _random_stack(rng, 6, 4)
        runs = [[Gate(mat) for mat in row] for row in mats]
        got = outcome_masses(game, mats)
        expected = [[outcome_distribution_ewl(game, gates)[lab] for lab in game.labels]
                    for gates in runs]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
        if game.payoffs is not None:
            got = expected_payoffs(game, mats)
            expected = [expected_payoff(game, gates) for gates in runs]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="stack of 4 gates per run"):
        expected_payoffs(n_tuple_driver_game(3, 7.0), _random_stack(rng, 2, 3))


def test_final_states_peak_allocation():
    # the (k, 2^m) result plus one squared-magnitude array for the norm check
    m, k = 12, 13
    mats = _random_stack(np.random.default_rng(14), k, m)
    final_states(mats)
    tracemalloc.start()
    try:
        amps = final_states(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amps.shape == (k, 2 ** m) and amps.flags.writeable
    assert peak / (16 * k * 2 ** m) < 2.05


def test_final_states_refuses_stacks_over_budget_before_any_work(monkeypatch):
    m = 16
    mats = _random_stack(np.random.default_rng(15), 4, m)
    monkeypatch.setattr(ewl, "STACK_BUDGET", 3 * 2 ** m)
    final_states(mats[:3])  # three runs fit
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"4 runs on 16 qubits need an array of 262,144 "
                                             r"complex entries, over the budget of 196,608 "
                                             r"\(STACK_BUDGET\)"):
            final_states(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** m  # one state is 16 * 2^m bytes


def test_final_states_refuses_empty_stacks_by_name():
    with pytest.raises(ValueError, match="need at least one run, got 0"):
        final_states(_random_stack(np.random.default_rng(15), 0, 3))


def test_stacked_block_masses_peak_within_one_chunk(monkeypatch):
    # a chunk's widest array holds 10m entries per block and run; an unchunked
    # call on this stack would peak above 3x the patched chunk size
    m, per_chunk = 12, 4
    game = n_tuple_driver_game(m - 1, 3.0)
    chunk = per_chunk * 10 * m * len(game.label_index)
    monkeypatch.setattr(ewl, "MASS_CHUNK", chunk)
    mats = _random_stack(np.random.default_rng(14), 3 * per_chunk + 1, m)
    expected_payoffs(game, mats)
    tracemalloc.start()
    try:
        expected_payoffs(game, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * chunk) < 2.05


def test_one_run_with_many_blocks_is_chunked_by_blocks(monkeypatch):
    # parity on 10 qubits has 1024 blocks, 100 entries each per run; the patched
    # chunk holds 40 of them, and an unsplit run would peak at ~25x the chunk
    game = ewl_game(_parity_tree(10))
    mats = _random_stack(np.random.default_rng(18), 1, 10)
    whole = block_masses(game, mats)
    chunk = 40 * 10 * 10
    monkeypatch.setattr(ewl, "MASS_CHUNK", chunk)
    tracemalloc.start()
    try:
        chunked = block_masses(game, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(chunked, whole)
    assert peak / (16 * chunk) < 2.05


def _oracle_probs(mats):
    """The basis-state probabilities of the dense oracle's final state of every run."""
    return np.abs([dense_final_state(list(gates)) for gates in mats]) ** 2


def _oracle_masses(problem, labels, probs):
    """Each label's mass in every row of ``probs``, over the basis states that
    the tree walk of a label-valued problem gives that label."""
    walked = tree_walk_values(problem)
    return np.array([[row[walked == label].sum() for label in labels] for row in probs])


@pytest.mark.parametrize("depth", range(1, 9))
def test_block_masses_match_dense_oracle(depth):
    rng = np.random.default_rng(60 + depth)
    for k in range(1, 6):
        # each terminal labelled by its own path, so the labels are the blocks
        tree = _random_binary_tree(rng, max_depth=depth)
        tree = replace(tree, terminal_labels={z: str(z) for z in tree.terminal_labels})
        paid = replace(tree, payoffs={label: rng.normal() for label in tree.labels})
        game = ewl_game(tree)
        mats = _random_stack(rng, k, game.m)
        probs = _oracle_probs(mats)
        np.testing.assert_allclose(block_masses(game, mats),
                                   _oracle_masses(tree, game.labels, probs), rtol=0, atol=1e-12)
        np.testing.assert_allclose(expected_payoffs(ewl_game(paid), mats),
                                   probs @ tree_walk_values(paid), rtol=0, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_compiled_game_masses_match_dense_oracle(seed):
    # distinct three-parameter gates on every qubit: no closed form, only the oracle
    rng = np.random.default_rng(seed)
    problem = _random_binary_tree(rng)
    game = ewl_game(problem)
    assert np.array_equal(_basis_values(game, game.labels), tree_walk_values(problem))
    mats = _random_stack(rng, 2, game.m)
    probs = _oracle_probs(mats)
    expected = _oracle_masses(problem, game.labels, probs)
    np.testing.assert_allclose(outcome_masses(game, mats), expected, rtol=0, atol=1e-12)
    # the same tree with payoffs keeps its labels and masses
    paid = replace(problem, payoffs={label: rng.normal() for label in problem.labels})
    paid_game = ewl_game(paid)
    assert paid_game.labels == game.labels
    np.testing.assert_allclose(outcome_masses(paid_game, mats), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(expected_payoffs(paid_game, mats), probs @ tree_walk_values(paid),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("depth", [2, 4, 7])
def test_parity_games_with_payoffs_match_dense_oracle(depth):
    # each parity label owns half the blocks, scattered over the basis
    rng = np.random.default_rng(90 + depth)
    labelled = _parity_tree(depth)
    paid = replace(labelled, payoffs={"even": rng.normal(), "odd": rng.normal()})
    game = ewl_game(paid)
    mats = _random_stack(rng, 3, depth)
    probs = _oracle_probs(mats)
    np.testing.assert_allclose(expected_payoffs(game, mats), probs @ tree_walk_values(paid),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(outcome_masses(game, mats),
                               _oracle_masses(labelled, game.labels, probs), rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [12, 16, 20])
def test_block_masses_agree_with_final_states(m):
    rng = np.random.default_rng(70 + m)
    mats = _random_stack(rng, 1, m)
    gates = [Gate(mat) for mat in mats[0]]
    probs = final_state(gates).probabilities
    outcomes = n_tuple_outcome_game(m - 1)
    walked = tree_walk_values(n_tuple_outcomes(m - 1))
    np.testing.assert_allclose(block_masses(outcomes, mats)[0],
                               [probs[walked == label].sum() for label in outcomes.labels],
                               rtol=0, atol=1e-12)
    driver = n_tuple_driver_game(m - 1, 20.0)
    payoffs = tree_walk_values(n_tuple_driver(m - 1, 20.0))
    assert abs(expected_payoff(driver, gates) - probs @ payoffs) <= 20.0 * 1e-12


def test_block_masses_refuse_rows_that_are_not_finite_or_unitary():
    game = n_tuple_outcome_game(3)
    mats = _random_stack(np.random.default_rng(16), 3, 4).copy()
    mats[2, 1] *= 1.001  # no longer unitary: the last run's norm is off
    with pytest.raises(ValueError, match="state norm .* is not 1"):
        outcome_masses(game, mats)
    mats[1, 0, 0, 0] = math.nan
    for masses in (block_masses, outcome_masses):
        with pytest.raises(ValueError, match="gate entries must be finite"):
            masses(game, mats)


def test_payoffs_and_masses_allocate_no_state():
    # one 20-qubit state is 16 MiB; the games, payoff and masses stay under 1 MiB
    gates = [_random_gate(np.random.default_rng(17))] * 20
    expected_payoff(n_tuple_driver_game(3, 2.0), gates[:4])  # warm the caches of the kernel path
    tracemalloc.start()
    try:
        payoff = expected_payoff(ewl_game(n_tuple_driver(19, 20.0)), gates)
        dist = outcome_distribution_ewl(ewl_game(n_tuple_outcomes(19)), gates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert abs(payoff - (20.0 * dist["o20"] + dist["o21"])) <= 1e-12


def test_gate_count_mismatch():
    gates = [build_gate(UnitaryParams(0.0))]
    with pytest.raises(ValueError, match="need exactly 2 gates"):
        expected_payoff(driver_game(4.0), gates)
    with pytest.raises(ValueError, match="need exactly 2 gates"):
        outcome_distribution_ewl(two_stage_game(), gates)
    with pytest.raises(ValueError, match="MAX_QUBITS = 24"):
        final_state(gates * 40)


# ------------------------------------------------------------------ payoffs


def test_driver_reference_payoffs():
    game = driver_game(4.0)
    quarter = build_gate(UnitaryParams(math.pi / 2, math.pi / 4, 0.0))
    assert expected_payoff(game, [quarter] * 2) == pytest.approx(2.0, abs=1e-9)
    ident = build_gate(UnitaryParams(0.0))
    assert expected_payoff(game, [ident] * 2) == pytest.approx(0.0, abs=1e-12)
    isx = build_gate(UnitaryParams(math.pi))
    for lam in (1.0, 4.0, 17.0):
        assert expected_payoff(driver_game(lam), [isx] * 2) == pytest.approx(1.0, abs=1e-12)


def test_expected_payoff_rejects_label_games():
    gates = [build_gate(UnitaryParams(0.0))] * 2
    for game in (two_stage_game(), n_tuple_outcome_game(1)):
        with pytest.raises(ValueError, match="game has outcome labels only, no payoffs"):
            expected_payoff(game, gates)
        with pytest.raises(ValueError, match="game has outcome labels only, no payoffs"):
            expected_payoffs(game, _random_stack(np.random.default_rng(3), 2, 2))


def test_games_with_payoffs_keep_their_labels():
    quarter = build_gate(UnitaryParams(math.pi / 2, math.pi / 4, 0.0))
    dist = outcome_distribution_ewl(driver_game(4.0), [quarter] * 2)
    assert set(dist.probs) == {"o1", "o2", "o3"}
    assert 4.0 * dist["o2"] + dist["o3"] == pytest.approx(2.0, abs=1e-12)


def test_outcome_distribution_keys_labels_in_sorted_order_as_outcome_of_does():
    # o10 and o11 sort before o2, where the basis blocks put them last
    p = 0.3
    dist = outcome_distribution_ewl(n_tuple_driver_game(9, 5.0),
                                    [build_gate(UnitaryParams(2.0 * math.acos(math.sqrt(p))))] * 10)
    tree = outcome_of(n_tuple_driver(9, 5.0), BehavioralStrategy(((p, 1.0 - p),)))
    assert list(dist.probs) == list(tree.probs) == sorted(tree.probs)
    assert max(abs(dist[label] - tree[label]) for label in tree.probs) <= 1e-12


@pytest.mark.parametrize("n", range(1, 6))
def test_driver_and_outcome_games_have_the_same_masses(n):
    driver, outcomes = n_tuple_driver_game(n, 20.0), n_tuple_outcome_game(n)
    assert driver.labels == outcomes.labels == tuple(f"o{t}" for t in range(1, n + 3))
    mats = _random_stack(np.random.default_rng(80 + n), 7, n + 1)
    assert np.array_equal(outcome_masses(driver, mats), outcome_masses(outcomes, mats))


@pytest.mark.parametrize("angles", [(2.0, 1.0, 0.5),
                                    # BLAS nrm2 put this state's norm 1.2e-12 below 1
                                    (2.7666568448552162, 1.4539806430436621, 0.30498698258117435)])
def test_twenty_qubit_runs_pass_their_sum_checks(angles):
    params = UnitaryParams(*angles)
    gates = [build_gate(params)] * 20
    dist = outcome_distribution_ewl(n_tuple_outcome_game(19), gates)
    assert abs(sum(dist.probs.values()) - 1.0) <= 1e-12
    closed = payoff_three_param(19, 20.0, params)
    assert abs(20.0 * dist["o20"] + dist["o21"] - closed) <= 1e-9
    assert abs(expected_payoff(n_tuple_driver_game(19, 20.0), gates) - closed) <= 1e-9


def test_outcome_distribution_matches_per_basis_sum_for_scattered_labels():
    # parity labels recur in many separate blocks of the basis
    rng = np.random.default_rng(5)
    problem = _parity_tree(4)
    game = ewl_game(problem)
    walked = tree_walk_values(problem)
    gates = [build_gate(UnitaryParams(rng.uniform(0, math.pi), *rng.uniform(0, TWO_PI, 2)))
             for _ in range(4)]
    probs = final_state(gates).probabilities
    dist = outcome_distribution_ewl(game, gates)
    for label in ("even", "odd"):
        expected = sum(probs[y] for y in range(16) if walked[y] == label)
        assert dist[label] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", range(1, 10))
def test_outcome_game_labels_are_first_exits(n):
    m = n + 1
    game = n_tuple_outcome_game(n)
    labels = _basis_values(game, game.labels)
    assert np.array_equal(labels, tree_walk_values(n_tuple_outcomes(n)))
    for y in range(1 << m):
        bits = format(y, f"0{m}b")
        t = len(bits) - len(bits.lstrip("1"))
        assert labels[y] == (f"o{t + 1}" if t < m else f"o{n + 2}")


def test_two_stage_identity_point_mass():
    dist = outcome_distribution_ewl(two_stage_game(), [build_gate(UnitaryParams(0.0))] * 2)
    assert dist["o00"] == pytest.approx(1.0, abs=1e-12)


def test_outcome_grouping_prefix_masses():
    n = 2
    game = n_tuple_outcome_game(n)
    for theta in np.linspace(0.0, math.pi, 9):
        gate = build_gate(UnitaryParams(float(theta)))
        dist = outcome_distribution_ewl(game, [gate] * (n + 1))
        p = math.cos(theta / 2.0) ** 2
        for t in range(1, n + 1):
            assert dist[f"o{t}"] == pytest.approx((1 - p) ** (t - 1) * p, abs=1e-9)
        assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- closed forms


def test_amplitude_one_param_extremes():
    m = 4
    theta = 1.234
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert amplitude_one_param(0, theta, m) == pytest.approx(c ** m, abs=1e-15)
    assert amplitude_one_param(2 ** m - 1, theta, m) == pytest.approx((1j ** m) * s ** m,
                                                                      abs=1e-15)


@pytest.mark.parametrize("m", [1, 3])
def test_amplitude_one_param_takes_indices_below_2_to_the_m(m):
    assert isinstance(amplitude_one_param(2 ** m - 1, 0.7, m), complex)
    with pytest.raises(ValueError, match=f"basis index {2 ** m} out of range for {m} qubits"):
        amplitude_one_param(2 ** m, 0.7, m)


def test_amplitude_one_param_matches_simulation():
    for m in (2, 3, 4, 5):
        for theta in np.linspace(0.0, math.pi, 21):
            theta = float(theta)
            gate = build_gate(UnitaryParams(theta))
            psi = final_state([gate] * m)
            p = math.cos(theta / 2.0) ** 2
            for y in range(1 << m):
                assert abs(psi.amps[y] - amplitude_one_param(y, theta, m)) <= 1e-12
                r = y.bit_count()
                assert psi.probabilities[y] == pytest.approx(p ** (m - r) * (1 - p) ** r,
                                                             abs=1e-12)


def test_amplitudes_one_param_index_the_closed_form_by_popcount():
    thetas = np.linspace(0.0, math.pi, 7)
    for m in (1, 2, 3, 4, 5, 8):
        table = amplitudes_one_param(thetas, m)
        assert table.shape == (7, 2 ** m)
        for i, theta in enumerate(thetas.tolist()):
            expected = [amplitude_one_param(y, theta, m) for y in range(2 ** m)]
            np.testing.assert_allclose(table[i], expected, rtol=1e-14, atol=0)
        # at theta = pi the closed form takes the gates' cos(pi/2) = 0, not 6e-17
        at_pi = final_states(np.broadcast_to(gate_stack(math.pi), (1, m, 2, 2)))[0]
        assert np.array_equal(table[-1], at_pi)


def test_amplitude_m2_y2_is_i_cos_sin():
    theta = 0.9
    got = amplitude_one_param(2, theta, 2)
    assert got == pytest.approx(1j * math.cos(theta / 2) * math.sin(theta / 2), abs=1e-15)


def test_payoff_one_param_reference_points():
    theta_star = 2.0 * math.acos(1.0 / math.sqrt(3.0))
    assert payoff_one_param(1, 4.0, theta_star) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert payoff_one_param(2, 5.0, 0.0) == 0.0
    assert payoff_one_param(2, 5.0, math.pi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_one_param_float_calls_equal_one_array_call(n):
    thetas = np.arange(17) * math.pi / 16  # 0 and pi included
    values = payoff_one_param(n, 7.0, thetas)
    assert values.shape == (17,)
    assert values.tolist() == [payoff_one_param(n, 7.0, t) for t in thetas.tolist()]


def test_classical_embedding_three_way():
    lam = 4.0
    for n in (1, 2, 3):
        problem = n_tuple_driver(n, lam)
        game = n_tuple_driver_game(n, lam)
        for theta in np.linspace(0.0, math.pi, 21):
            theta = float(theta)
            closed = payoff_one_param(n, lam, theta)
            gate = build_gate(UnitaryParams(theta))
            sim = expected_payoff(game, [gate] * (n + 1))
            p = math.cos(theta / 2.0) ** 2
            tree = expected_payoff_classical(problem, BehavioralStrategy(((p, 1 - p),)))
            assert closed == pytest.approx(sim, abs=1e-12)
            assert closed == pytest.approx(tree, abs=1e-9)


def test_payoff_three_param_reference_points():
    assert payoff_three_param(
        3, 20.0, UnitaryParams(math.pi / 2, 9 * math.pi / 16, 3 * math.pi / 16)) == \
        pytest.approx(5.0, abs=1e-12)
    assert payoff_three_param(1, 4.0, UnitaryParams(math.pi / 2, math.pi / 4, 0.0)) == \
        pytest.approx(2.0, abs=1e-12)


def test_payoff_three_param_reduces_to_one_param():
    for n in (1, 2, 4):
        for theta in np.linspace(0.0, math.pi, 11):
            theta = float(theta)
            assert payoff_three_param(n, 3.0, UnitaryParams(theta)) == \
                pytest.approx(payoff_one_param(n, 3.0, theta), abs=1e-12)


@given(st.integers(1, 5), angles)
@settings(max_examples=60, deadline=None)
def test_payoff_three_param_agrees_with_simulation(n, params):
    lam = 6.0
    up = UnitaryParams(*params)
    sim = expected_payoff(n_tuple_driver_game(n, lam), [build_gate(up)] * (n + 1))
    assert abs(sim - payoff_three_param(n, lam, up)) <= 1e-9


def test_three_param_fn_matches_method():
    f = payoff_three_param_fn(2, 9.0)
    assert f(1.0, 2.0, 3.0) == payoff_three_param(2, 9.0, UnitaryParams(1.0, 2.0, 3.0))


@given(st.integers(1, 23), st.floats(0.0, 1e3), angles)
@settings(max_examples=300, deadline=None)
def test_three_param_kernel_matches_complex_reference(n, lam, params):
    ref = three_param_payoff(n, lam, *params)
    assert abs(payoff_three_param(n, lam, UnitaryParams(*params)) - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("n", range(1, 9))
def test_three_param_scalar_calls_equal_one_array_call(n):
    f = payoff_three_param_fn(n, 7.0)
    thetas = np.arange(17) * math.pi / 16
    phases = np.arange(17) * TWO_PI / 17
    values = f(thetas[:, None, None], phases[None, :, None], phases[None, None, :])
    assert values.shape == (17, 17, 17)
    scalar = [f(t, a, b) for t in thetas.tolist() for a in phases.tolist() for b in phases.tolist()]
    assert values.ravel().tolist() == scalar


LINE_THETAS = [0.0, 1e-9, 0.3, math.pi / 2, 2.5, math.pi]
LINE_PHASES = [0.0, 1.1, 3.5, TWO_PI - 1e-9, math.nextafter(TWO_PI, 0.0)]
# phases off [0, 2pi) that a periodic line search probes: h takes them as
# given, as the full call does, since the payoff is 2pi-periodic in each phase
OFF_RANGE_PHASES = [-1e-3, -1e-300, TWO_PI, TWO_PI + 0.7]


@pytest.mark.parametrize("n", range(1, 9))
def test_three_param_lines_equal_the_full_call(n):
    f = payoff_three_param_fn(n, 7.0)
    for point in product(LINE_THETAS, LINE_PHASES, LINE_PHASES):
        for coord, ts in ((0, LINE_THETAS), (1, LINE_PHASES + OFF_RANGE_PHASES),
                          (2, LINE_PHASES + OFF_RANGE_PHASES)):
            h = f.line(coord, point)
            full = []
            for t in ts:
                probe = list(point)
                probe[coord] = t
                full.append(f(*probe))
            assert [h(t) for t in ts] == full
            assert h(np.array(ts)).tolist() == full


def test_three_param_line_refuses_other_coordinates():
    with pytest.raises(ValueError, match="coord"):
        payoff_three_param_fn(2, 7.0).line(3, (1.0, 2.0, 3.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_three_param_array_lambda_equals_float_calls(n):
    lams = np.array([0.0, 0.5, 7.0, 20.0, 1e300])
    angles = np.array([[0.3, 1.1, 5.0], [math.pi, 0.0, 2.0], [1.5, 6.0, 0.2],
                       [0.0, 3.5, 3.5], [2.5, 0.7, 4.4]])
    values = payoff_three_param_fn(n, lams)(*angles.T)
    assert values.tolist() == [payoff_three_param_fn(n, lam)(*a)
                               for lam, a in zip(lams.tolist(), angles.tolist())]


@pytest.mark.parametrize("n", [1, 2, 6, 7])
def test_cosine_is_zero_at_theta_pi(n):
    # cos(pi/2) is 6e-17 in floats; at lambda = -1e300 it made the payoff at
    # U(pi, 0, 0) about -1e267, not the exit payoff 1 that the gate pays
    lam = -1e300
    f = payoff_three_param_fn(n, lam)
    assert f(math.pi, 0.0, 0.0) == 1.0
    assert f(np.array([math.pi]), np.array([0.0]), np.array([0.0])).tolist() == [1.0]
    assert f.line(0, (0.3, 0.0, 0.0))(math.pi) == 1.0
    assert gate_stack(math.pi)[0, 0] == 0.0 and gate_stack(math.pi)[1, 1] == 0.0
    gate = build_gate(UnitaryParams(math.pi, 0.0, 0.0))
    assert expected_payoff(n_tuple_driver_game(n, lam), [gate] * (n + 1)) == 1.0


def _two_qubit_payoff(payoffs, p1, p2):
    """Two-qubit expected payoff with independent gates: the two-stage tree
    with per-basis payoffs in the order (o00, o01, o10, o11), compiled by
    ewl_game."""
    problem = two_stage_problem()
    game = ewl_game(replace(problem, payoffs=dict(zip(problem.labels, payoffs))))
    return expected_payoff(game, [build_gate(p1), build_gate(p2)])


def test_two_qubit_product_form():
    payoffs = (1.0, 2.0, 3.0, 4.0)
    for theta1 in np.linspace(0.0, math.pi, 7):
        for theta2 in np.linspace(0.0, math.pi, 7):
            theta1, theta2 = float(theta1), float(theta2)
            sim = _two_qubit_payoff(payoffs, UnitaryParams(theta1), UnitaryParams(theta2))
            form = sum(payoffs[2 * k + l]
                       * math.cos((theta1 - k * math.pi) / 2.0) ** 2
                       * math.cos((theta2 - l * math.pi) / 2.0) ** 2
                       for k in (0, 1) for l in (0, 1))
            assert sim == pytest.approx(form, abs=1e-9)


def test_two_qubit_identity_gives_first_payoff():
    assert _two_qubit_payoff((7.0, 1.0, 2.0, 3.0), UnitaryParams(0.0),
                             UnitaryParams(0.0)) == pytest.approx(7.0, abs=1e-12)


def test_first_qubit_phase_walks_diagonal_segment():
    payoffs = (2.0, 0.0, 0.0, 5.0)
    for alpha in np.linspace(0.0, TWO_PI, 9, endpoint=False):
        alpha = float(alpha)
        got = _two_qubit_payoff(payoffs, UnitaryParams(0.0, alpha, 0.0), UnitaryParams(0.0))
        expected = 2.0 * math.cos(alpha) ** 2 + 5.0 * math.sin(alpha) ** 2
        assert got == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------- driver bounds


@given(angles)
@settings(max_examples=120, deadline=None)
def test_driver_payoff_capped_by_half_lambda(params):
    for lam in (1.5, 4.0):
        value = payoff_three_param(1, lam, UnitaryParams(*params))
        assert value <= max(1.0, lam / 2.0) + 1e-9


@given(angles)
@settings(max_examples=100, deadline=None)
def test_eta_symmetry_everywhere(params):
    assert eta_symmetry_check(UnitaryParams(*params)) <= 1e-12


# --------------------------------------------------------------------- games


def test_game_validation():
    with pytest.raises(TypeError):
        EwlGame(2, np.zeros(4), ("a",), np.zeros(4), None)  # ewl_game is the only constructor
    with pytest.raises(ValueError):
        n_tuple_driver_game(0, 4.0)


def test_oversized_games_are_refused_before_allocating():
    # far past the limit, so a missing check fails fast instead of allocating
    for build in (lambda: n_tuple_driver_game(39, 4.0), lambda: n_tuple_outcome_game(39)):
        with pytest.raises(ValueError, match="MAX_QUBITS = 24"):
            build()


def test_game_rejects_non_finite_payoffs():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="payoffs must be finite"):
            ewl_game(n_tuple_driver(1, bad))


def test_games_are_read_only_and_compare_by_value():
    game = n_tuple_driver_game(1, 2.0)
    assert not any(a.flags.writeable for a in (game.rows, game.label_index, game.payoffs))
    assert not n_tuple_outcome_game(1).label_index.flags.writeable
    assert game == n_tuple_driver_game(1, 2.0) != n_tuple_driver_game(1, 3.0)
    assert game != ewl_game(replace(n_tuple_driver(1, 2.0), payoffs=None))
    assert game != n_tuple_driver_game(2, 2.0)
    assert two_stage_game() == two_stage_game() != n_tuple_outcome_game(1)


def test_driver_game_payoff_layout():
    game = n_tuple_driver_game(2, 7.0)
    values = _basis_values(game, game.payoffs)
    assert values[6] == 7.0  # |110>
    assert values[7] == 1.0  # |111>
    assert all(values[y] == 0.0 for y in range(6))


# ---------------------------------------------------------- game compiler


def _basis_values(game, per_label):
    """The value of ``per_label`` (game.labels or game.payoffs) on every basis
    state, read off the game's blocks: column i of game.rows spells block i's
    path, a prefix of bits and then 2s, and the blocks, each covering the
    2^(m - depth) states of its prefix, must tile the basis in order."""
    m = game.m
    bits = game.rows - 3 * np.arange(m)[:, None]
    depths = np.count_nonzero(bits != 2, axis=0)
    assert np.array_equal(bits != 2, np.arange(m)[:, None] < depths)
    starts = (np.where(bits == 1, 1, 0) << (m - 1 - np.arange(m))[:, None]).sum(axis=0)
    sizes = 1 << (m - depths)
    assert np.array_equal(starts, np.cumsum(sizes) - sizes) and sizes.sum() == 1 << m
    return np.repeat(np.asarray(per_label)[game.label_index], sizes)


def _parity_tree(depth):
    """The complete binary tree of the given depth with one information set per
    depth, whose terminals carry the parity of their paths' ones: both labels
    recur all over the basis."""
    levels = [[()]]
    for _ in range(depth):
        levels.append([h + (a,) for h in levels[-1] for a in (0, 1)])
    return DecisionProblem(histories=tuple(chain.from_iterable(levels)),
                           terminal_labels={z: ("even", "odd")[sum(z) % 2] for z in levels[-1]},
                           info_partition=tuple(map(tuple, levels[:-1])))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 19])
def test_compiled_games_equal_the_hand_layouts(n):
    dim = 1 << (n + 1)
    for lam in (0.0, 4.0, 20.0):
        layout = np.zeros(dim)
        layout[dim - 2:] = lam, 1.0  # o{n+1} is |1..10>, o{n+2} is |1..11>
        game = n_tuple_driver_game(n, lam)
        assert np.array_equal(_basis_values(game, game.payoffs), layout)
    assert np.array_equal(layout, tree_walk_values(n_tuple_driver(n, 20.0)))
    # label o{t+1} on [2^m - 2^(m-t), 2^m - 2^(m-t-1)), o{n+2} on the all-ones state
    exits = [f"o{t + 1}" for t in range(n + 1) for _ in range(1 << (n - t))] + [f"o{n + 2}"]
    outcomes = n_tuple_outcome_game(n)
    assert _basis_values(outcomes, outcomes.labels).tolist() == exits
    assert tree_walk_values(n_tuple_outcomes(n)).tolist() == exits


def test_compiled_two_stage_games_keep_the_label_order():
    labels = ("o00", "o01", "o10", "o11")
    game = two_stage_game()
    assert game.labels == labels and _basis_values(game, labels).tolist() == list(labels)
    assert tree_walk_values(two_stage_problem()).tolist() == list(labels)


def test_parity_trees_compile_to_one_block_per_state():
    for depth in (4, 10):
        problem = _parity_tree(depth)
        game = ewl_game(problem)
        assert len(game.label_index) == 1 << depth and game.labels == ("even", "odd")
        assert np.array_equal(_basis_values(game, game.labels), tree_walk_values(problem))


def _random_binary_tree(rng, max_depth=5):
    """Random tree with actions (0, 1) everywhere and one information set per
    depth; some depths share a set, and labels recur across terminals."""
    depth_set = rng.integers(0, 3, size=max_depth).tolist()
    histories, frontier, cells = [()], [()], {}
    for depth in range(max_depth):
        nxt = []
        for h in frontier:
            if depth > 0 and rng.uniform() < 0.35:
                continue  # leave h terminal
            cells.setdefault(depth_set[depth], []).append(h)
            nxt += [h + (0,), h + (1,)]
        histories += nxt
        frontier = nxt
    terminals = set(histories) - {h for cell in cells.values() for h in cell}
    labels = {z: f"z{rng.integers(0, 4)}" for z in terminals}
    return DecisionProblem(histories=tuple(histories), terminal_labels=labels,
                           info_partition=tuple(tuple(cell) for cell in cells.values()))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_compiled_game_reproduces_behavioral_outcomes(seed):
    # J commutes with every U(theta, 0, 0), so the final state is the product of
    # U|0> over the qubits: qubit d takes action 0 with p = cos^2(theta/2) of its set
    rng = np.random.default_rng(seed)
    problem = _random_binary_tree(rng)
    thetas = rng.uniform(0.0, math.pi, size=len(problem.info_partition))
    depth_set = {len(h): i for i, cell in enumerate(problem.info_partition) for h in cell}
    gates = [build_gate(UnitaryParams(float(thetas[depth_set[d]]))) for d in range(len(depth_set))]
    dist = outcome_distribution_ewl(ewl_game(problem), gates)
    p = np.cos(thetas / 2.0) ** 2
    tree = outcome_of(problem, BehavioralStrategy(tuple((q, 1.0 - q) for q in p.tolist())))
    assert dist.probs.keys() == tree.probs.keys()
    assert max(abs(dist[lab] - tree[lab]) for lab in tree.probs) <= 1e-12


def test_compiler_refuses_problems_the_protocol_cannot_encode():
    ternary = DecisionProblem(histories=((), (0,), (1,), (2,)),
                              terminal_labels={(0,): "a", (1,): "b", (2,): "c"},
                              info_partition=(((),),))
    with pytest.raises(ValueError, match=r"actions \(0, 1\)"):
        ewl_game(ternary)
    with pytest.raises(ValueError, match="one information set per depth"):
        ewl_game(perfect_recall_control())  # two sets at depth 1
    # 40 qubits: refused before a 2^40 array is requested
    with pytest.raises(ValueError, match="MAX_QUBITS = 24"):
        ewl_game(n_tuple_driver(39, 4.0))
