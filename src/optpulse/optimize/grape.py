"""GRAPE: one amplitude per channel per time slice, trained by projected L-BFGS.

GRAPE is ``problem.sampled_objective`` with the slice amplitudes as the
parameters: its parametrization is a reshape of the flat channel-major
vector, and its vjp a ravel. The gradient is the exact eigenbasis
derivative of each slice exponential rather than the first-order
commutator approximation, and the backward products follow from the
forward ones by unitarity. The amplitudes go to ``problem.minimize``, the
numpy L-BFGS minimizer GOAT uses too, with the box +-amplitude-bound.
"""

from __future__ import annotations

import numpy as np

from ..errors import OptimizationError
from .problem import (
    ControlProblem,
    OptimResult,
    initial_amplitudes,
    minimize,
    sampled_objective,
)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITERS = 1000


def _objective(problem: ControlProblem):
    """The sampled objective over flat channel-major amplitudes."""
    shape = (len(problem.model.channels), problem.n_samples)
    return sampled_objective(
        problem.model.drift_matrix(),
        problem.model.control_stack,
        problem.target_u,
        problem.dt,
        lambda x: (x.reshape(shape), np.ravel),
    )


def grape_gradient(problem: ControlProblem, amps: np.ndarray) -> np.ndarray:
    """Exact infidelity gradient; accepts (C, N) or flat channel-major."""
    arr = np.asarray(amps, dtype=float)
    shape = (len(problem.model.channels), problem.n_samples)
    if arr.shape not in (shape, (shape[0] * shape[1],)):
        raise OptimizationError(f"amplitudes shape {arr.shape} != {shape}")
    return _objective(problem)(arr.ravel())[1].reshape(arr.shape)


def grape_optimize(problem: ControlProblem) -> OptimResult:
    """Projected L-BFGS from a seeded random start (``problem.minimize``).

    Amplitudes stay within +-amplitude-bound when it is set. Stops at tol
    (default 1e-4), the iteration cap (default 1000, status 'max-iters'),
    or when no step lowers the loss ('stalled').
    """
    tol = DEFAULT_TOL if problem.tol is None else problem.tol
    max_iters = DEFAULT_MAX_ITERS if problem.max_iters is None else problem.max_iters
    bound = problem.amplitude_bound if problem.amplitude_bound > 0 else np.inf
    x0 = initial_amplitudes(problem).ravel()
    found = minimize(_objective(problem), x0, -bound, bound, tol, max_iters)
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
