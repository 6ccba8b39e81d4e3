"""GRAPE: one amplitude per channel per time slice, exact gradient descent.

The gradient is the exact eigenbasis derivative of each slice exponential
(``problem._gradient_from_state``, shared with GOAT) rather than the
first-order commutator approximation; forward/backward partial products
turn it into the full gradient in a single O(N) sweep.
"""

from __future__ import annotations

import numpy as np

from ..errors import OptimizationError
from .problem import (
    ControlProblem,
    OptimResult,
    _gradient_from_state,
    _Propagation,
    clip_amplitudes,
    initial_amplitudes,
)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITERS = 1000
DEFAULT_LEARNING_RATE = 0.1
MIN_STEP = 1e-12


def grape_gradient(problem: ControlProblem, amps: np.ndarray) -> np.ndarray:
    """Exact infidelity gradient; accepts (C, N) or flat channel-major."""
    channels = problem.model.channels
    arr = np.asarray(amps, dtype=float)
    flat = arr.ndim == 1
    if flat:
        arr = arr.reshape(len(channels), problem.n_samples)
    elif arr.shape != (len(channels), problem.n_samples):
        raise OptimizationError(
            f"amplitudes shape {arr.shape} != ({len(channels)}, "
            f"{problem.n_samples})"
        )
    ops = problem.model.control_stack
    state = _Propagation(
        problem.model.drift_matrix(), ops, arr, problem.dt, problem.target_u
    )
    grad = _gradient_from_state(state, ops, problem.target_u, problem.dt)
    return grad.ravel() if flat else grad


def grape_optimize(
    problem: ControlProblem,
    learning_rate: float = DEFAULT_LEARNING_RATE,
) -> OptimResult:
    """Projected gradient descent with backtracking halving.

    Each iteration retries from the base learning rate and halves it until
    the infidelity decreases; amplitudes are clipped to the bound after
    every update. Stops at tol (default 1e-4), the iteration cap (default
    1000, reported as status 'max-iters'), or when no decrease is possible
    ('stalled').
    """
    tol = DEFAULT_TOL if problem.tol is None else problem.tol
    max_iters = DEFAULT_MAX_ITERS if problem.max_iters is None else problem.max_iters
    drift, ops = problem.model.drift_matrix(), problem.model.control_stack
    target = problem.target_u
    dt = problem.dt
    bound = problem.amplitude_bound

    amps = clip_amplitudes(initial_amplitudes(problem, "random"), bound)
    state = _Propagation(drift, ops, amps, dt, target)
    trace = [state.loss]
    status, message = "max-iters", f"iteration cap {max_iters} reached"
    iterations = 0
    if state.loss <= tol:
        status, message = "converged", "initial guess already below tolerance"
    else:
        for _ in range(max_iters):
            grad = _gradient_from_state(state, ops, target, dt)
            if not np.all(np.isfinite(grad)):
                raise OptimizationError("non-finite gradient encountered")
            step = learning_rate
            candidate = None
            while step >= MIN_STEP:
                trial = clip_amplitudes(amps - step * grad, bound)
                trial_state = _Propagation(drift, ops, trial, dt, target)
                if trial_state.loss < state.loss:
                    candidate = (trial, trial_state)
                    break
                step *= 0.5
            if candidate is None:
                status = "stalled"
                message = "backtracking found no descent step"
                break
            amps, state = candidate
            iterations += 1
            trace.append(state.loss)
            if state.loss <= tol:
                status, message = "converged", f"infidelity <= {tol:g}"
                break

    samples = {
        ch: amps[i].astype(complex)
        for i, ch in enumerate(problem.model.channels)
    }
    return OptimResult(
        method="GRAPE",
        status=status,
        optimal_params=amps.ravel().copy(),
        final_infidelity=state.loss,
        iterations=iterations,
        trace=tuple(trace),
        synthesized_samples=samples,
        dt=dt,
        message=message,
    )
