"""Krotov-style sequential control update with monotone convergence.

Each sweep forward-propagates the computational basis states under the
controls being updated, against costates back-propagated from the
target-overlap boundary condition chi_k(T) = (g/d^2) |phi_k>,
g = sum_k <phi_k|psi_k(T)>. Slice n of channel c is nudged by

    dOmega = (1 / lambda) * Im sum_k <chi_k(t_n)| Op_c |psi_k(t_n)>

before the sweep moves on, so later slices already see the update. This
first-order scheme decreases the infidelity whenever lambda is large
enough; lambda starts at 1.0 and is doubled (and the sweep retried)
whenever a sweep fails to decrease the loss, which keeps the accepted
trace monotone without faking it.

The sum over k is Tr(Op_c m) with m = psi chi^+, so one product per slice
and one (C, d^2) x (d^2,) product give every channel's update; the
costates are scaled by 1/lambda once per sweep, which is exact because
lambda is a power of two. The slice then goes through the dynamics core's
one-slice step, ``dynamics._slice_step``: one product for H, one LAPACK
eigh and two products, written straight into the sweep's forward stack.
Qubit slices take that eigh too; only the core's sampled stacks take the
su(2) exponential map. The first sweep starts from the
stacked ``dynamics._propagate``; an accepted sweep keeps the forward
products fwd[k] = U_{k-1}...U_0 it built and its loss, and the next
costates come from them by unitarity (``_costates``), with no backward loop.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import _propagate, _slice_step, _times_inverse
from ..errors import OptimizationError
from .problem import (
    ControlProblem,
    Minimum,
    OptimResult,
    _trace_loss,
    clip_amplitudes,
    initial_amplitudes,
)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_SWEEPS = 200
MONOTONE_TOL = 1e-10
MAX_LAMBDA_DOUBLINGS = 60
INITIAL_LAMBDA = 1.0


def _costates(
    fwd: np.ndarray, total: np.ndarray, target: np.ndarray, overlap: complex
) -> np.ndarray:
    """chi_k^+ = (g*/d^2) target^+ U_{N-1}...U_k, with U_{N-1}...U_k equal
    to total fwd[k]^-1 by unitarity."""
    d = target.shape[0]
    boundary = (np.conj(overlap) / d**2) * (target.conj().T @ total)
    return _times_inverse(boundary, fwd)


def krotov_optimize(problem: ControlProblem) -> OptimResult:
    """Sequential sweeps from the seeded random start or problem.initial_guess.

    Stops at tol (default 1e-4), after 200 sweeps, or once a sweep lowers
    the loss by less than ``MONOTONE_TOL``, the slack that accepts a sweep,
    so round-off cannot decide when a plateau stalls.
    """
    tol = DEFAULT_TOL if problem.tol is None else problem.tol
    max_sweeps = DEFAULT_MAX_SWEEPS if problem.max_iters is None else problem.max_iters
    n = problem.n_samples
    dt = problem.dt
    d = problem.dim
    target = problem.target_u
    drift, ops = problem.model.drift_matrix(), problem.model.control_stack
    # Tr(Op_c m) = sum_ab Op_c[a, b] m[b, a]: rows of the transposed operators
    op_rows = ops.swapaxes(1, 2).reshape(len(ops), d * d)
    op_flat = ops.reshape(len(ops), d * d)
    bound = problem.amplitude_bound
    # the sweep's forward products fwd[k] = U_{k-1}...U_0, laid out as the
    # core's; an attempt overwrites them, and an accepted one keeps them
    sweep_fwd = np.empty((n + 1, d, d), dtype=complex)
    sweep_fwd[0] = np.eye(d)

    def sweep(amps: np.ndarray, chi_h: np.ndarray, lam: float) -> np.ndarray:
        chi_h = chi_h * (1.0 / lam)  # exact: lambda is a power of two
        rows = amps.T.copy()  # the channel amplitudes of one slice per row
        for row, chi, psi, out in zip(rows, chi_h, sweep_fwd[:-1], sweep_fwd[1:]):
            row += (op_rows @ (psi @ chi).ravel()).imag
            if bound > 0:
                np.clip(row, -bound, bound, out=row)
            _slice_step(drift, op_flat, row, dt, psi, out)
        return rows.T

    amps = clip_amplitudes(initial_amplitudes(problem), bound)
    start = _propagate(drift, ops, amps, dt)
    fwd, total = start.fwd[:-1], start.total
    overlap, loss = _trace_loss(total, target)
    trace = [loss]
    status, message = "max-iters", f"sweep cap {max_sweeps} reached"
    sweeps = attempts = 0
    lam = INITIAL_LAMBDA

    if loss <= tol:
        status, message = "converged", "initial guess already below tolerance"
    else:
        while sweeps < max_sweeps:
            chi_h = _costates(fwd, total, target, overlap)
            for _ in range(MAX_LAMBDA_DOUBLINGS):
                new_amps = sweep(amps, chi_h, lam)
                attempts += 1
                new_overlap, new_loss = _trace_loss(sweep_fwd[-1], target)
                if new_loss <= loss + MONOTONE_TOL:
                    break
                lam *= 2.0  # too aggressive; retry the sweep more gently
            else:
                raise OptimizationError(
                    "Krotov sweep failed to decrease the infidelity even at "
                    f"lambda={lam:g}; monotonicity is broken"
                )
            amps, fwd, total = new_amps, sweep_fwd[:-1], sweep_fwd[-1]
            overlap, loss = new_overlap, new_loss
            sweeps += 1
            trace.append(loss)
            if loss <= tol:
                status, message = "converged", f"infidelity <= {tol:g}"
                break
            if trace[-2] - trace[-1] < MONOTONE_TOL:
                status, message = "stalled", "sweep update vanished above tolerance"
                break

    found = Minimum(status, message, amps.ravel(), loss, sweeps, attempts, trace)
    return OptimResult.of("krotov", found, problem.model.channels, amps, dt)
