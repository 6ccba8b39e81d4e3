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
eigh and two products, written straight into the forward stack. Qubit
slices take that eigh too; only the core's sampled stacks take the su(2)
exponential map. The run has one forward stack, that of the stacked
``dynamics._propagate`` it starts from; each sweep attempt overwrites its
products fwd[k] = U_{k-1}...U_0, and an accepted one leaves them with the
product target^+ fwd[N] its loss was formed from (``problem._trace_loss``).
The next costates come from that product and the adjoints of fwd
(``_costates``), with no backward loop.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import _matmul, _propagate, _slice_step
from ..errors import OptimizationError
from .problem import (
    ControlProblem,
    Minimum,
    OptimResult,
    _trace_loss,
    clip_amplitudes,
    initial_amplitudes,
)

MONOTONE_TOL = 1e-10
MAX_LAMBDA_DOUBLINGS = 60
INITIAL_LAMBDA = 1.0


def _costates(fwd: np.ndarray, boundary: np.ndarray, overlap: complex) -> np.ndarray:
    """chi_k^+ = (g*/d^2) target^+ U_{N-1}...U_k, with boundary =
    target^+ total and U_{N-1}...U_k equal to total fwd[k]^+ by unitarity."""
    d = boundary.shape[0]
    boundary = (np.conj(overlap) / d**2) * boundary
    return _matmul(boundary, fwd.conj().swapaxes(1, 2))


def krotov_optimize(problem: ControlProblem) -> OptimResult:
    """Sequential sweeps from the seeded random start or problem.initial_guess.

    Stops at tol (default 1e-4), after 200 sweeps, or once a sweep lowers
    the loss by less than ``MONOTONE_TOL``, the slack that accepts a sweep,
    so round-off cannot decide when a plateau stalls.
    """
    tol, max_sweeps = problem.stopping("krotov")
    dt = problem.dt
    d = problem.dim
    target = problem.target_u
    drift, ops = problem.model.drift_matrix(), problem.model.control_stack
    # Tr(Op_c m) = sum_ab Op_c[a, b] m[b, a]: rows of the transposed operators
    op_rows = ops.swapaxes(1, 2).reshape(len(ops), d * d)
    op_flat = ops.reshape(len(ops), d * d)
    bound = problem.amplitude_bound

    def sweep(amps: np.ndarray, chi_h: np.ndarray, lam: float) -> np.ndarray:
        chi_h = chi_h * (1.0 / lam)  # exact: lambda is a power of two
        rows = amps.T.copy()  # the channel amplitudes of one slice per row
        for row, chi, psi, out in zip(rows, chi_h, fwd[:-1], fwd[1:]):
            row += (op_rows @ (psi @ chi).ravel()).imag
            if bound > 0:
                np.clip(row, -bound, bound, out=row)
            _slice_step(drift, op_flat, row, dt, psi, out)
        return rows.T

    amps = clip_amplitudes(initial_amplitudes(problem), bound)
    # fwd[k] = U_{k-1}...U_0 with fwd[0] = I: the start's, then each sweep's
    fwd = _propagate(drift, ops, amps, dt).fwd
    boundary, overlap, loss = _trace_loss(fwd[-1], target)
    trace = [loss]
    status, message = "max-iters", f"sweep cap {max_sweeps} reached"
    sweeps = attempts = 0
    lam = INITIAL_LAMBDA

    if loss <= tol:
        status, message = "converged", "initial guess already below tolerance"
    else:
        while sweeps < max_sweeps:
            chi_h = _costates(fwd[:-1], boundary, overlap)
            for _ in range(MAX_LAMBDA_DOUBLINGS):
                new_amps = sweep(amps, chi_h, lam)
                attempts += 1
                attempt = _trace_loss(fwd[-1], target)
                if attempt[2] <= loss + MONOTONE_TOL:
                    break
                lam *= 2.0  # too aggressive; retry the sweep more gently
            else:
                raise OptimizationError(
                    "Krotov sweep failed to decrease the infidelity even at "
                    f"lambda={lam:g}; monotonicity is broken"
                )
            amps, (boundary, overlap, loss) = new_amps, attempt
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
