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
"""

from __future__ import annotations

import numpy as np

from ..dynamics import _stacked_hamiltonians, slice_propagators
from ..errors import OptimizationError
from .problem import (
    ControlProblem,
    OptimResult,
    _Propagation,
    _trace_loss,
    clip_amplitudes,
    initial_amplitudes,
)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_SWEEPS = 200
MONOTONE_TOL = 1e-10
MAX_LAMBDA_DOUBLINGS = 60
INITIAL_LAMBDA = 1.0


def krotov_optimize(problem: ControlProblem) -> OptimResult:
    """Sequential sweeps from a square-pulse start (default policy).

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

    amps = clip_amplitudes(
        initial_amplitudes(problem, "square"), problem.amplitude_bound
    )

    def propagation(a: np.ndarray) -> _Propagation:
        return _Propagation(drift, ops, a, dt, target)

    state = propagation(amps)
    loss = state.loss
    trace = [loss]
    status, message = "max-iters", f"sweep cap {max_sweeps} reached"
    sweeps = 0
    lam = INITIAL_LAMBDA

    if loss <= tol:
        status, message = "converged", "initial guess already below tolerance"
    else:
        while sweeps < max_sweeps:
            # costates at every slice boundary from the previous sweep
            boundary = (state.overlap / d**2) * target
            costates = state.bwd.conj().swapaxes(1, 2) @ boundary

            accepted = False
            for _ in range(MAX_LAMBDA_DOUBLINGS):
                new_amps = amps.copy()
                psi = np.eye(d, dtype=complex)
                for k in range(n):
                    chi = costates[k]
                    for c in range(len(channels)):
                        overlap = np.trace(chi.conj().T @ ops[c] @ psi)
                        new_amps[c, k] += float(overlap.imag) / lam
                    new_amps[:, k] = clip_amplitudes(
                        new_amps[:, k], problem.amplitude_bound
                    )
                    ham = _stacked_hamiltonians(drift, ops, new_amps[:, k : k + 1])
                    psi = slice_propagators(ham[0], dt)[0] @ psi
                _, new_loss = _trace_loss(psi, target)
                if new_loss <= loss + MONOTONE_TOL:
                    accepted = True
                    break
                lam *= 2.0  # too aggressive; retry the sweep more gently
            if not accepted:
                raise OptimizationError(
                    "Krotov sweep failed to decrease the infidelity even at "
                    f"lambda={lam:g}; monotonicity is broken"
                )
            amps = new_amps
            state = propagation(amps)
            loss = state.loss
            sweeps += 1
            trace.append(loss)
            if loss <= tol:
                status, message = "converged", f"infidelity <= {tol:g}"
                break
            if len(trace) > 1 and trace[-2] - trace[-1] < 1e-15:
                status, message = "stalled", "sweep update vanished above tolerance"
                break

    samples = {ch: amps[i].astype(complex) for i, ch in enumerate(channels)}
    return OptimResult(
        method="krotov",
        status=status,
        optimal_params=amps.ravel().copy(),
        final_infidelity=loss,
        iterations=sweeps,
        trace=tuple(trace),
        synthesized_samples=samples,
        dt=dt,
        message=message,
    )
