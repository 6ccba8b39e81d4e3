"""GRAPE: one amplitude per channel per time slice, trained by projected L-BFGS.

GRAPE is ``problem.sampled_objective`` with the slice amplitudes as the
parameters: its parametrization is a reshape of the flat channel-major
vector, and its vjp a ravel. The gradient is the exact derivative of
each slice exponential (by the su(2) map on qubits, in the slice
eigenbasis on larger systems) rather than the first-order commutator
approximation, and the backward products follow from the
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
    tol, max_iters = problem.stopping("GRAPE")
    bound = problem.amplitude_bound if problem.amplitude_bound > 0 else np.inf
    x0 = initial_amplitudes(problem).ravel()
    found = minimize(_objective(problem), x0, -bound, bound, tol, max_iters)
    rows = found.x.reshape(-1, problem.n_samples)
    return OptimResult.of("GRAPE", found, problem.model.channels, rows, problem.dt)
