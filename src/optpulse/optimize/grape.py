"""GRAPE: one amplitude per channel per time slice, trained by projected L-BFGS.

The gradient is the exact eigenbasis derivative of each slice exponential
(``problem._gradient_from_state``, shared with GOAT) rather than the
first-order commutator approximation. The forward partial products, about
2 sqrt(N) stacked matmuls (``dynamics.ordered_products``), give every
slice's backward product by unitarity, so the full gradient costs a few
stacked products over the N slices. The amplitudes go to
``problem.minimize``, the numpy L-BFGS minimizer GOAT uses too, with the box
+-amplitude-bound.
"""

from __future__ import annotations

import numpy as np

from ..errors import OptimizationError
from .problem import (
    ControlProblem,
    OptimResult,
    _gradient_from_state,
    _Propagation,
    initial_amplitudes,
    minimize,
)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITERS = 1000


def _loss_and_grad(problem: ControlProblem):
    """fun(x) -> (loss, gradient) over flat channel-major amplitudes."""
    drift, ops = problem.model.drift_matrix(), problem.model.control_stack
    target, dt = problem.target_u, problem.dt
    shape = (len(ops), problem.n_samples)

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        state = _Propagation(drift, ops, x.reshape(shape), dt, target)
        return state.loss, _gradient_from_state(state, ops, target, dt).ravel()

    return fun


def grape_gradient(problem: ControlProblem, amps: np.ndarray) -> np.ndarray:
    """Exact infidelity gradient; accepts (C, N) or flat channel-major."""
    arr = np.asarray(amps, dtype=float)
    shape = (len(problem.model.channels), problem.n_samples)
    if arr.shape not in (shape, (shape[0] * shape[1],)):
        raise OptimizationError(f"amplitudes shape {arr.shape} != {shape}")
    return _loss_and_grad(problem)(arr.ravel())[1].reshape(arr.shape)


def grape_optimize(problem: ControlProblem) -> OptimResult:
    """Projected L-BFGS from a seeded random start (``problem.minimize``).

    Amplitudes stay within +-amplitude-bound when it is set. Stops at tol
    (default 1e-4), the iteration cap (default 1000, status 'max-iters'),
    or when no step lowers the loss ('stalled').
    """
    tol = DEFAULT_TOL if problem.tol is None else problem.tol
    max_iters = DEFAULT_MAX_ITERS if problem.max_iters is None else problem.max_iters
    bound = problem.amplitude_bound if problem.amplitude_bound > 0 else np.inf
    x0 = initial_amplitudes(problem, "random").ravel()
    found = minimize(_loss_and_grad(problem), x0, -bound, bound, tol, max_iters)
    amps = found.x.reshape(-1, problem.n_samples)
    samples = {
        ch: amps[i].astype(complex)
        for i, ch in enumerate(problem.model.channels)
    }
    return OptimResult(
        method="GRAPE",
        status=found.status,
        optimal_params=found.x,
        final_infidelity=found.loss,
        iterations=found.iterations,
        evaluations=found.evaluations,
        trace=tuple(found.trace),
        synthesized_samples=samples,
        dt=problem.dt,
        message=found.message,
    )
