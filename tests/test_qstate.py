import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsim.qstate import (
    MAX_QUBITS,
    Gate,
    StateVector,
    apply_entangler,
    apply_single_qubit_gate,
    check_qubit_count,
    check_unitary,
)
from ewlsim.ewl import amplitude_one_param
from oracles import PAULI_X, basis_vector, dense_entangler, dense_gate, dense_lift, random_state

SQRT2_INV = 1.0 / math.sqrt(2.0)
ISX = Gate(1j * PAULI_X)


def test_identity_gate_leaves_state_alone():
    rng = np.random.default_rng(3)
    state = StateVector(3, random_state(3, rng))
    out = apply_single_qubit_gate(state, 2, Gate(np.eye(2)))
    np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)


def test_isx_on_qubit_one_permutes_with_global_i():
    out = apply_single_qubit_gate(StateVector(2, basis_vector(2, 0)), 1, ISX)
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1j  # |00> -> i|10>, qubit 1 is the most significant bit
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


def test_gate_formula_column_on_zero_ket():
    # U(pi/2, pi/4, 0)|0> = (e^{i pi/4}|0> + i|1>)/sqrt(2), evaluated by hand
    gate = Gate(dense_gate(math.pi / 2, math.pi / 4, 0.0))
    out = apply_single_qubit_gate(StateVector(1, basis_vector(1, 0)), 1, gate)
    expected = np.array([np.exp(1j * math.pi / 4), 1j]) * SQRT2_INV
    np.testing.assert_allclose(out.amps, expected, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gate_application_matches_dense_lift(m):
    rng = np.random.default_rng(11 + m)
    state = StateVector(m, random_state(m, rng))
    gate2x2 = dense_gate(1.1, 0.7, 2.9)
    for qubit in range(1, m + 1):
        out = apply_single_qubit_gate(state, qubit, Gate(gate2x2))
        expected = dense_lift(gate2x2, qubit, m) @ state.amps
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)


def test_entangler_on_00():
    out = apply_entangler(StateVector(2, basis_vector(2, 0)))
    expected = np.array([1.0, 0.0, 0.0, 1j]) * SQRT2_INV
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


def test_entangler_on_01_flips_to_10():
    out = apply_entangler(StateVector(2, basis_vector(2, 1)))
    expected = np.array([0.0, 1.0, 1j, 0.0]) * SQRT2_INV
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


@pytest.mark.parametrize("m", range(1, 13))
def test_entangler_roundtrip_on_random_states(m):
    # J^2 = i X^m, so four entanglers bring every state back as minus itself
    rng = np.random.default_rng(100 + m)
    state = StateVector(m, random_state(m, rng))
    back = state
    for _ in range(4):
        back = apply_entangler(back)
    np.testing.assert_allclose(back.amps, -state.amps, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_entangler_matches_dense_matrix(m):
    rng = np.random.default_rng(7 + m)
    state = StateVector(m, random_state(m, rng))
    J = dense_entangler(m)
    np.testing.assert_allclose(apply_entangler(state).amps, J @ state.amps, atol=1e-12)
    np.testing.assert_allclose(J.conj().T @ apply_entangler(state).amps, state.amps, atol=1e-12)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_norm_preserved_by_all_operations(m, seed):
    rng = np.random.default_rng(seed)
    state = StateVector(m, random_state(m, rng))
    gate = Gate(dense_gate(*rng.uniform(0, 3, size=3)))
    for out in (apply_single_qubit_gate(state, 1 + seed % m, gate), apply_entangler(state)):
        assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-12


# tan(theta/2) = 2, so |<y|psi_f>| = cos^m(theta/2) 2^r when the same U(theta, 0, 0)
# acts on all m qubits: the Hamming weight r of y is read off its amplitude
WEIGHT_THETA = 2.0 * math.atan(2.0)


def weight_in_amplitude(y, m):
    amp = abs(amplitude_one_param(y, WEIGHT_THETA, m))
    return round(math.log2(amp / math.cos(WEIGHT_THETA / 2.0) ** m))


@pytest.mark.parametrize("y,m,expected", [(0, 4, 0), (15, 4, 4), (5, 4, 2), (2 ** 12 - 1, 12, 12)])
def test_hamming_weight(y, m, expected):
    assert weight_in_amplitude(y, m) == expected


@pytest.mark.parametrize("m", range(1, 13))
def test_weight_plus_complement_weight_is_m(m):
    ys = range(1 << m) if m <= 8 else np.random.default_rng(m).integers(0, 1 << m, 200)
    for y in ys:
        y = int(y)
        assert weight_in_amplitude(y, m) + weight_in_amplitude(((1 << m) - 1) ^ y, m) == m


def test_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        apply_single_qubit_gate(StateVector(2, basis_vector(2)), 3, ISX)


def test_rejects_non_unitary_gate():
    with pytest.raises(ValueError):
        Gate(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        Gate(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_unitary_check_refuses_a_bad_gate_in_a_stack():
    rng = np.random.default_rng(8)
    stack = np.array([dense_gate(*angles) for angles in rng.uniform(0.0, math.pi, (50, 3))])
    check_unitary(stack.reshape(5, 10, 2, 2))
    bent = stack.copy()
    bent[17, 1, 0] += 1e-9  # defect ~1e-9 in both the norm of row 1 and the inner product
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(bent)
    broken = stack.copy()
    broken[3, 0, 1] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="entries must be finite"):
        check_unitary(broken)


def test_rejects_bad_states():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.inf, 0.0], dtype=complex))


def test_constructor_copies_caller_arrays():
    amps = np.array([0.6, 0.0, 0.0, 0.8j])
    state = StateVector(2, amps[::-1])  # a strided view is accepted too
    amps[0] = 0.0
    assert state.amps[3] == 0.6 and state.amps.flags.c_contiguous


def test_states_and_gates_compare_by_value():
    assert StateVector(2, basis_vector(2)) == StateVector(2, basis_vector(2))
    assert StateVector(2, basis_vector(2)) != StateVector(2, basis_vector(2, 1))
    assert StateVector(2, basis_vector(2)) != StateVector(3, basis_vector(3))
    assert Gate(np.eye(2)) == Gate(np.eye(2))
    assert Gate(np.eye(2)) != ISX
    assert StateVector(1, basis_vector(1)) != Gate(np.eye(2))


def test_qubit_limit_is_checked_before_allocating():
    check_qubit_count(MAX_QUBITS)
    with pytest.raises(ValueError, match="MAX_QUBITS = 24"):
        check_qubit_count(MAX_QUBITS + 1)
    with pytest.raises(ValueError, match="MAX_QUBITS = 24"):
        # 2^40 amplitudes: the qubit count is refused before the amplitudes are read
        StateVector(40, basis_vector(1))


def test_states_are_immutable():
    state = StateVector(2, basis_vector(2, 0))
    with pytest.raises(ValueError):
        state.amps[0] = 0.0
