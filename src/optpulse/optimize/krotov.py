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
and one (C, d^2) x (d^2,) product give every channel's update. An accepted
sweep keeps the slice propagators it built; the next costates are
back-propagated through them, and the loss is the sweep's own.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import _stacked_hamiltonians, ordered_products, slice_propagators
from ..errors import OptimizationError
from .problem import (
    ControlProblem,
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


def _costates(umats: np.ndarray, target: np.ndarray, overlap: complex) -> np.ndarray:
    """chi_n^+ for every slice: chi_N = (g/d^2) target, chi_n = U_n^+ chi_{n+1}."""
    d = target.shape[0]
    chi_h = np.empty_like(umats)
    back = (np.conj(overlap) / d**2) * target.conj().T
    for k in range(len(umats) - 1, -1, -1):
        back = back @ umats[k]
        chi_h[k] = back
    return chi_h


def krotov_optimize(problem: ControlProblem) -> OptimResult:
    """Sequential sweeps from the seeded random start (default policy).

    Stops at tol (default 1e-4) or after 200 sweeps.
    """
    tol = DEFAULT_TOL if problem.tol is None else problem.tol
    max_sweeps = DEFAULT_MAX_SWEEPS if problem.max_iters is None else problem.max_iters
    channels = problem.model.channels
    n = problem.n_samples
    dt = problem.dt
    d = problem.dim
    target = problem.target_u
    drift, ops = problem.model.drift_matrix(), problem.model.control_stack
    # Tr(Op_c m) = sum_ab Op_c[a, b] m[b, a]: rows of the transposed operators
    op_rows = ops.swapaxes(1, 2).reshape(len(ops), d * d)
    bound = problem.amplitude_bound

    def sweep(amps: np.ndarray, chi_h: np.ndarray, lam: float):
        new_amps = amps.copy()
        umats = np.empty((n, d, d), dtype=complex)
        psi = np.eye(d, dtype=complex)
        for k in range(n):
            new_amps[:, k] += (op_rows @ (psi @ chi_h[k]).ravel()).imag / lam
            new_amps[:, k] = clip_amplitudes(new_amps[:, k], bound)
            ham = _stacked_hamiltonians(drift, ops, new_amps[:, k : k + 1])[0]
            umats[k] = slice_propagators(ham, dt)[0]
            psi = umats[k] @ psi
        return new_amps, umats, psi

    amps = clip_amplitudes(initial_amplitudes(problem, "random"), bound)
    umats = slice_propagators(_stacked_hamiltonians(drift, ops, amps), dt)[0]
    overlap, loss = _trace_loss(ordered_products(umats)[-1], target)
    trace = [loss]
    status, message = "max-iters", f"sweep cap {max_sweeps} reached"
    sweeps = attempts = 0
    lam = INITIAL_LAMBDA

    if loss <= tol:
        status, message = "converged", "initial guess already below tolerance"
    else:
        while sweeps < max_sweeps:
            chi_h = _costates(umats, target, overlap)
            for _ in range(MAX_LAMBDA_DOUBLINGS):
                new_amps, new_umats, psi = sweep(amps, chi_h, lam)
                attempts += 1
                new_overlap, new_loss = _trace_loss(psi, target)
                if new_loss <= loss + MONOTONE_TOL:
                    break
                lam *= 2.0  # too aggressive; retry the sweep more gently
            else:
                raise OptimizationError(
                    "Krotov sweep failed to decrease the infidelity even at "
                    f"lambda={lam:g}; monotonicity is broken"
                )
            amps, umats, overlap, loss = new_amps, new_umats, new_overlap, new_loss
            sweeps += 1
            trace.append(loss)
            if loss <= tol:
                status, message = "converged", f"infidelity <= {tol:g}"
                break
            if trace[-2] - trace[-1] < 1e-15:
                status, message = "stalled", "sweep update vanished above tolerance"
                break

    samples = {ch: amps[i].astype(complex) for i, ch in enumerate(channels)}
    return OptimResult(
        method="krotov",
        status=status,
        optimal_params=amps.ravel().copy(),
        final_infidelity=loss,
        iterations=sweeps,
        evaluations=attempts,
        trace=tuple(trace),
        synthesized_samples=samples,
        dt=dt,
        message=message,
    )
