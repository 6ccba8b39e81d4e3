"""Every input limit, tolerance and time rule of optpulse, named by its role
with the reason for its value, and the checks that several modules share.
Algorithm constants stay next to their algorithms. This module imports
nothing from optpulse, so every other module may import it.
"""

from __future__ import annotations

import math

import numpy as np

# slices x d^2 of one grid, so that an (N, d, d) complex stack stays in 64 MiB
MAX_SLICE_ENTRIES = 2**22
# qubits of a model or a dense unitary: one d x d matrix fits the slice limit
MAX_QUBITS = (MAX_SLICE_ENTRIES.bit_length() - 1) // 2
# relative (absolute below 1): a dt read back from JSON moves by a few ulps
DT_MATCH_RTOL = 1e-12
# relative (absolute below 1): the round-off of N dt grows with N, up to 2^22
HORIZON_TILE_RTOL = 1e-9
# model operators: finite sums of exact Pauli products, so round-off only
OPERATOR_HERMITICITY_TOL = 1e-12
# observables: a caller's matrix, which its own arithmetic may have formed
OBSERVABLE_HERMITICITY_TOL = 1e-8
# a caller's ket norm, and rho0's trace and Hermitian defect: 12 digits read back
STATE_TOL = 1e-9
# Im <A> of a Hermitian A on a valid state; more means a bad state or operator
EXPECTATION_IMAG_TOL = 1e-9
# Im of a drive with no quadrature partner, relative (absolute below 1): round-off
DRIVE_IMAG_RTOL = 1e-12
# max |U^+ U - I| of a target-U or a propagator that the loss is given
LOSS_UNITARITY_TOL = 1e-8
# the RK3 oracle's step test: stricter than the 1e-7 agreement of the engines
ORACLE_UNITARITY_TOL = 1e-9


def check_qubit_count(n_qubits: int, error: type[Exception]) -> None:
    """Raise ``error`` unless 1 <= n_qubits <= ``MAX_QUBITS``, before any
    2^n x 2^n allocation."""
    if n_qubits < 1:
        raise error(f"n_qubits must be positive, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise error(
            f"n_qubits {n_qubits} exceeds {MAX_QUBITS}, the most whose d x d "
            f"matrix fits the limit of {MAX_SLICE_ENTRIES} entries"
        )


def check_positive_finite(value, what: str, error: type[Exception]) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        raise error(f"{what} must be positive and finite, got {value}")


def check_numbers(values, what: str, error: type[Exception]) -> None:
    """Raise ``error`` if any of ``values``, read from a JSON document or an
    options map, is a bool: JSON holds true and false apart from its
    numbers, but int(), float() and complex() read them as 1 and 0."""
    if not {bool, np.bool_}.isdisjoint(map(type, values)):  # one pass in C
        raise error(f"{what} must be a number, got a boolean")


def as_type(value, kind: type, what: str, error: type[Exception]):
    """kind(value) for a value read from a JSON document or an options map:
    a number (kind float or int) by the rule of ``check_numbers``, text
    (kind str) only from a str, of which str() would make "None" of null."""
    if kind is str and not isinstance(value, str):
        raise error(f"{what} must be a string, got {value!r}")
    check_numbers((value,), what, error)
    return kind(value)


def dt_matches(dt: float, reference: float) -> bool:
    return abs(dt - reference) <= DT_MATCH_RTOL * max(1.0, reference)


def hermitian_defect(mats: np.ndarray) -> float:
    """max |A - A^+| over a matrix or a stack; NaN with any NaN entry."""
    return float(np.max(np.abs(mats - mats.conj().swapaxes(-1, -2)), initial=0.0))


def unitarity_defect(mat: np.ndarray) -> float:
    """max |U^+ U - I| of a square matrix; NaN with any NaN entry."""
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))


def imag_negligible(values: complex | np.ndarray) -> bool:
    """No imaginary part of a drive value, or of an array of them, is over
    ``DRIVE_IMAG_RTOL``; a NaN is left to the propagation's finite checks."""
    if isinstance(values, complex):  # one envelope value, without numpy's call cost
        return not abs(values.imag) > DRIVE_IMAG_RTOL * max(1.0, abs(values))
    if not values.imag.any():  # exact zeros, as pulse files hold, in one call
        return True
    bound = DRIVE_IMAG_RTOL * np.maximum(1.0, np.abs(values))
    return not np.any(np.abs(values.imag) > bound)


def check_grid(slices: float, dim: int, error: type[Exception]) -> None:
    """Raise ``error`` unless ``slices`` slices of a dim-level system stay
    within ``MAX_SLICE_ENTRIES``; checked on the float count, so an infinite
    or oversize grid fails before any int() of it or allocation."""
    if not slices * dim**2 <= MAX_SLICE_ENTRIES:  # NaN and inf fail too
        raise error(
            f"{slices:.4g} slices of a {dim}-level system exceed the limit of "
            f"{MAX_SLICE_ENTRIES} slices x d^2"
        )


def sample_count(duration: float, dt: float, dim: int, error: type[Exception]) -> int:
    """The number of dt slices that tile ``duration`` to ``HORIZON_TILE_RTOL``
    within the grid limit (``check_grid``), else ``error``. Both times must
    be positive and finite."""
    check_grid(float(duration) / float(dt), dim, error)
    n = int(round(duration / dt))
    if n < 1 or abs(n * dt - duration) > HORIZON_TILE_RTOL * max(1.0, duration):
        raise error(f"horizon {duration} does not tile into samples of dt={dt}")
    return n
