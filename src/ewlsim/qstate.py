"""Exact m-qubit state vectors, single-qubit gates and the structured entangler.

Basis indices read qubit 1 as the most significant bit, so the label
y = (j1, j2, ..., jm) in binary addresses amplitude ``amps[y]``.  All values
are immutable; the StateVector constructor validates a copy,
``check_state_rows`` validates freshly computed states row by row, and the
gate kernels do not validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

NORM_TOL = 1e-12
UNITARY_TOL = 1e-12
# largest qubit count of any protocol run, payoffs and masses included; at the
# cap one state holds 2^24 amplitudes, 256 MiB
MAX_QUBITS = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def check_qubit_count(m: int) -> None:
    """Refuse a qubit count outside 1..MAX_QUBITS before any work on it starts."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"qubit count must be an integer >= 1, got {m}")
    if m > MAX_QUBITS:
        raise ValueError(f"{m} qubits exceed the limit of MAX_QUBITS = {MAX_QUBITS}")


def eq_by_value(self, other) -> bool:
    """``__eq__`` for frozen dataclasses with ndarray fields: every field compared by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def check_unitary(mats: np.ndarray) -> None:
    """Refuse a 2x2 complex matrix, or a (..., 2, 2) stack of them, with an entry
    that is not finite or a matrix that is not unitary within UNITARY_TOL."""
    if not np.all(np.isfinite(mats)):
        raise ValueError("gate entries must be finite")
    # U U^† - I entry by entry: each row's squared norm less 1 on the diagonal,
    # the rows' inner product and its conjugate off it
    squares = mats.real ** 2 + mats.imag ** 2
    norms = squares[..., 0] + squares[..., 1] - 1.0
    inner = mats[..., 0, 0] * mats[..., 1, 0].conj() + mats[..., 0, 1] * mats[..., 1, 1].conj()
    defect = max(abs(norms).max(initial=0.0), abs(inner).max(initial=0.0))
    if defect > UNITARY_TOL:
        raise ValueError(f"gate is not unitary (defect {defect:.3e})")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Gate:
    """A 2x2 unitary acting on a single qubit."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"gate must be 2x2, got shape {mat.shape}")
        check_unitary(mat)
        object.__setattr__(self, "matrix", _frozen(mat))

    __eq__ = eq_by_value


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over the 2^m computational basis states."""

    m: int
    amps: np.ndarray

    def __post_init__(self):
        check_qubit_count(self.m)
        # the contiguous copy also lets the checks view strided caller arrays as floats
        amps = _frozen(self.amps)
        _check_amplitudes(self.m, amps)
        object.__setattr__(self, "amps", amps)

    __eq__ = eq_by_value

    @cached_property
    def probabilities(self) -> np.ndarray:
        """The Born-rule probability of every basis state, |amps|^2, read-only."""
        probs = np.abs(self.amps)
        np.square(probs, out=probs)
        probs.flags.writeable = False
        return probs


def _check_amplitudes(m: int, amps: np.ndarray) -> None:
    dim = 1 << m
    if amps.shape != (dim,):
        raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
    check_state_rows(amps[None])


def check_state_rows(amps: np.ndarray) -> None:
    """Refuse a C-contiguous (k, 2^m) complex stack of states unless every row is
    finite and has norm 1 within NORM_TOL; the message names the first bad row's norm."""
    parts = amps.view(np.float64)
    # numpy's pairwise sum along each row; BLAS nrm2 was off by 1.2e-12 on a 2^20-amplitude state
    check_norms(np.sqrt(np.sum(np.square(parts), axis=1)), parts, "amplitudes")


def check_norms(norms: np.ndarray, entries: np.ndarray, what: str) -> None:
    """Refuse state norms that are not 1 within NORM_TOL, naming the first bad
    one, or ``what`` as not finite when ``entries``, the numbers the norms were
    computed from, are not all finite.  A nan or infinite entry makes a norm
    nan or infinite, so only norms that fail need the pass over the entries."""
    off = np.abs(norms - 1.0)
    if not off.max(initial=0.0) <= NORM_TOL:
        if not np.all(np.isfinite(entries)):
            raise ValueError(f"{what} must be finite")
        norm = float(norms[np.argmax(~(off <= NORM_TOL))])
        raise ValueError(f"state norm {norm!r} is not 1 within {NORM_TOL}")


def _unchecked_state(m: int, amps: np.ndarray) -> StateVector:
    """Freeze freshly computed amplitudes into a StateVector without validation."""
    amps.flags.writeable = False
    state = object.__new__(StateVector)
    state.__dict__.update(m=m, amps=amps)
    return state


def apply_single_qubit_gate(state: StateVector, qubit_index: int, gate: Gate) -> StateVector:
    """Apply a 2x2 gate to one qubit (1-based index, qubit 1 = most significant bit)."""
    if not 1 <= qubit_index <= state.m:
        raise ValueError(f"qubit index {qubit_index} out of range 1..{state.m}")
    left = 1 << (qubit_index - 1)
    right = 1 << (state.m - qubit_index)
    block = state.amps.reshape(left, 2, right)
    new = np.einsum("ab,lbr->lar", gate.matrix, block).reshape(-1)
    return _unchecked_state(state.m, new)


def apply_entangler(state: StateVector) -> StateVector:
    """Apply J = (I + i X^m)/sqrt(2) without forming a matrix.

    X^m reverses the amplitude array because flipping every bit maps index y
    to 2^m - 1 - y, so J acts as one axpy on the reversed amplitudes.
    """
    new = (state.amps + 1j * state.amps[::-1]) * _SQRT2_INV
    return _unchecked_state(state.m, new)
