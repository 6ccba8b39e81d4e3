"""Shared optimizer plumbing: the loss, the problem container, results,
the sampled objective with its exact gradient, and the minimizer.

All methods minimize the trace infidelity

    L = 1 - |Tr(U_target^+ U)|^2 / d^2

over controls of a bilinear system H(t) = H_drift + sum_c u_c(t) Op_c.
The d^2 normalization makes L(U, U) = 0 and keeps the range [0, 1];
global phase drops out through the modulus.

GRAPE and GOAT share one objective, ``sampled_objective``: piecewise-constant
slice amplitudes propagated by the simulators' core, ``dynamics._propagate``,
with the exact amplitude gradient of ``_gradient_from_state``. They differ
only in the parametrization x -> (amps, vjp) that feeds it: GRAPE's is a
reshape, GOAT's samples its Gaussian envelopes on the CF4 grid. An objective
owns one ``_Propagation``, the slice-stack buffers of its grid: its first
evaluation allocates them and every later one overwrites them in place.
What it returns never aliases them: the loss is a float and each gradient
a new array, which the minimizer may keep.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..dynamics import (
    _matmul, _propagate, _Propagation, _sample_count, _times_inverse,
)
from ..errors import OptimizationError
from ..model import SystemModel

UNITARITY_TOL = 1e-8
EPS = np.finfo(float).eps
LBFGS_MEMORY = 10
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
WOLFE = 0.9  # curvature constant: the slope must rise to WOLFE times its start
MAX_LINE_EVALS = 30


def _check_unitary(u: np.ndarray, label: str) -> np.ndarray:
    mat = np.asarray(u, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise OptimizationError(f"{label} must be square, got shape {mat.shape}")
    eye = np.eye(mat.shape[0])
    # NaN and inf fail as well; the product is not formed from them
    finite = np.all(np.isfinite(mat))
    if not (finite and np.max(np.abs(mat.conj().T @ mat - eye)) <= UNITARITY_TOL):
        raise OptimizationError(f"{label} is not unitary to {UNITARITY_TOL:.0e}")
    return mat


def infidelity(u: np.ndarray, target: np.ndarray) -> float:
    """1 - |Tr(target^+ u)|^2 / d^2, in [0, 1] up to round-off."""
    mat = _check_unitary(u, "propagator")
    tgt = _check_unitary(target, "target")
    if mat.shape != tgt.shape:
        raise OptimizationError(
            f"dimension mismatch: propagator {mat.shape} vs target {tgt.shape}"
        )
    return _trace_loss(mat, tgt)[1]


def _trace_loss(total: np.ndarray, target: np.ndarray) -> tuple[complex, float]:
    """Overlap g = Tr(target^+ total) and the loss 1 - |g|^2 / d^2."""
    d = target.shape[0]
    overlap = complex(np.trace(target.conj().T @ total))
    return overlap, float(1.0 - abs(overlap) ** 2 / d**2)


@dataclass(frozen=True)
class ControlProblem:
    """One gate-synthesis task: model, target unitary, horizon, knobs.

    amplitude_bound 0 means unbounded. The horizon must tile into slices of
    the model's dt; n_samples, their number, is derived from the two, and
    n_samples x d^2 may not exceed ``dynamics.MAX_SLICE_ENTRIES``.
    """

    model: SystemModel
    target_u: np.ndarray
    max_time: float
    amplitude_bound: float = 0.0
    initial_guess: Mapping[str, np.ndarray] | None = None
    seed: int = 0
    tol: float | None = None
    max_iters: int | None = None
    n_samples: int = field(init=False)

    def __post_init__(self):
        target = _check_unitary(self.target_u, "target-U")
        if target.shape[0] != self.model.dim:
            raise OptimizationError(
                f"target dimension {target.shape[0]} != model dimension "
                f"{self.model.dim}"
            )
        object.__setattr__(self, "target_u", target)
        if not 0 < self.max_time < np.inf:
            raise OptimizationError(
                f"max-time must be positive and finite, got {self.max_time}"
            )
        if self.amplitude_bound < 0:
            raise OptimizationError("amplitude-bound must be >= 0")
        if self.seed < 0:
            raise OptimizationError(f"seed must be >= 0, got {self.seed}")
        if self.max_iters is not None and self.max_iters < 0:
            raise OptimizationError(f"max-iters must be >= 0, got {self.max_iters}")
        if not (self.initial_guess is None or isinstance(self.initial_guess, Mapping)):
            raise OptimizationError(
                "initial-guess must map channels to sample arrays, got "
                f"{self.initial_guess!r}"
            )
        n = _sample_count(self.max_time, self.dt, self.dim, OptimizationError)
        object.__setattr__(self, "n_samples", n)

    @property
    def dt(self) -> float:
        return self.model.dt

    @property
    def dim(self) -> int:
        return self.model.dim


@dataclass(frozen=True)
class OptimResult:
    """Outcome of one optimize() run, built by ``OptimResult.of``.

    status is one of 'converged' (hit tol), 'max-iters', or 'stalled' (no
    update lowers the loss any more above tol). trace holds the
    per-iteration infidelity, starting with the initial guess, and ends at
    final_infidelity. GRAPE and Krotov trace iterations + 1 losses. GOAT
    traces iterations plus one loss per grid it ran: each refinement run
    starts its trace segment with its start loss on the finer grid.
    evaluations, never fewer than iterations, counts objective
    evaluations: every line-search trial, GOAT's checks on the finer grid
    and Krotov's rejected sweeps included. synthesized_samples map each
    emitted channel to n_samples complex samples with zero imaginary part,
    ready for pulse emission; GOAT results additionally carry the analytic
    envelopes at the optimal parameters.
    """

    method: str
    status: str
    optimal_params: np.ndarray
    final_infidelity: float
    iterations: int
    evaluations: int
    trace: tuple[float, ...]
    synthesized_samples: dict[str, np.ndarray]
    dt: float
    message: str = ""
    envelopes: dict[str, Callable[[float], float]] | None = field(
        default=None, compare=False
    )

    @classmethod
    def of(
        cls, method: str, found: Minimum, channels: tuple[str, ...],
        rows: np.ndarray, dt: float,
        envelopes: dict[str, Callable[[float], float]] | None = None,
    ) -> OptimResult:
        """The result of a run that ended in ``found``, with rows[i] the real
        samples of channels[i]."""
        samples = {ch: row.astype(complex) for ch, row in zip(channels, rows)}
        return cls(
            method=method,
            status=found.status,
            optimal_params=found.x,
            final_infidelity=float(found.loss),
            iterations=found.iterations,
            evaluations=found.evaluations,
            trace=tuple(found.trace),
            synthesized_samples=samples,
            dt=dt,
            message=found.message,
            envelopes=envelopes,
        )

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _gradient_from_state(
    state: _Propagation, ops: np.ndarray, target: np.ndarray, dt: float
) -> np.ndarray:
    """Exact d(loss)/d(amps), shape (C, N), in the slice eigenbasis.

    With H = V diag(w) V^+ and a = w*dt,

        d exp(-i H dt) / du = V ( (V^+ (-i dt Op) V) o Phi ) V^+,
        Phi_kl = exp(-i(a_k + a_l)/2) * sinc((a_k - a_l)/2),

    which is exact for any dt and degeneracy-safe (sinc handles a_k == a_l).
    The products after slice n are U_{N-1}...U_{n+1} = total F^-1 with
    F = fwd[n+1], so C_n = fwd[n] (target^+ total) F^-1. F is unitary only
    up to a round-off drift that grows with n (1.6e-12 after 4,000 slices
    that share their eigenvectors), so F^-1 is one Newton step from the
    adjoint (``_times_inverse``), exact to the square of that drift.
    Phi is symmetric, so the overlap derivative Tr(C_n dU_n) equals
    sum_kl (-i dt Op_c)[k,l] Q_n[l,k] with Q_n = V ((V^+ C_n V) o Phi) V^+:
    one product per slice, then one (C, d^2) x (d^2, N) product for all
    channels. Every stack lives in the state's gradient buffers; the
    returned gradient is a new array.
    """
    d = target.shape[0]
    a, half_sum, half_diff, phi, vh, c, w1, w2, w3 = state.gradient_buffers()
    np.multiply(state.evals, dt, out=a)  # (N, d) real
    np.add(a[:, :, None], a[:, None, :], out=half_sum)
    half_sum *= 0.5
    np.subtract(a[:, :, None], a[:, None, :], out=half_diff)
    half_diff *= 0.5
    np.multiply(-1j, half_sum, out=phi)
    np.exp(phi, out=phi)
    # np.sinc(half_diff / pi) in place, rounded as np.sinc rounds it:
    # y = pi (half_diff / pi), and sin(y) / y with 1 where y = 0
    half_diff /= np.pi
    half_diff *= np.pi
    np.copyto(half_diff, EPS, where=half_diff == 0)
    phi *= np.divide(np.sin(half_diff, out=half_sum), half_diff, out=half_sum)
    v = state.evecs
    vh = np.conjugate(v, out=vh).swapaxes(1, 2)
    boundary = target.conj().T @ state.total
    c = _matmul(state.fwd[:-1], boundary, c)  # fwd[n] (target^+ total), every n
    c = _times_inverse(c, state.fwd[1:], c, (w1, w2, w3))
    _matmul(_matmul(vh, c, w1), v, w2)
    w2 *= phi
    q = _matmul(_matmul(v, w2, w3), vh, w1)
    dg = (-1j * dt) * (
        ops.reshape(len(ops), d * d) @ q.swapaxes(1, 2).reshape(len(q), d * d).T
    )
    overlap = complex(boundary.trace())  # as _trace_loss forms it
    return (-2.0 / d**2) * np.real(np.conj(overlap) * dg)


def sampled_objective(
    drift: np.ndarray,
    ops: np.ndarray,
    target: np.ndarray,
    dt: float,
    parametrize: Callable[[np.ndarray], tuple[np.ndarray, Callable]],
) -> Callable[..., tuple[float, np.ndarray | None]]:
    """fun(x) -> (loss, d(loss)/dx) for controls given by a parametrization.

    parametrize(x) -> (amps, vjp): amps (C, N) drive ops on N slices of
    length dt, and vjp pulls d(loss)/d(amps), shape (C, N), back to x.
    fun(x, grad=False) returns (loss, None) without forming the gradient.
    fun overwrites one ``_Propagation`` on every call, so it is not
    reentrant; what it returns does not alias it.
    """
    state = None

    def fun(x: np.ndarray, grad: bool = True) -> tuple[float, np.ndarray | None]:
        nonlocal state
        amps, vjp = parametrize(x)
        state = _propagate(drift, ops, amps, dt, state)
        loss = _trace_loss(state.total, target)[1]
        if not grad:
            return loss, None
        return loss, vjp(_gradient_from_state(state, ops, target, dt))

    return fun


class Minimum(NamedTuple):
    """Outcome of minimize(); trace holds the start loss and every accepted
    one, evaluations the number of fun calls."""

    status: str
    message: str
    x: np.ndarray
    loss: float
    iterations: int
    evaluations: int
    trace: list[float]


def _lbfgs_direction(g: np.ndarray, pairs: list[tuple]) -> np.ndarray:
    """-H g by the two-loop recursion (Nocedal & Wright, Alg. 7.4).

    Without pairs H is 1 / max(1, |g|_inf): no variable moves by more than 1.
    """
    if not pairs:
        return -g / max(1.0, float(np.max(np.abs(g))))
    q, alphas = g.copy(), []
    for s, y, sy in reversed(pairs):
        alphas.append((s @ q) / sy)
        q -= alphas[-1] * y
    s, y, sy = pairs[-1]
    r = (sy / (y @ y)) * q
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - (y @ r) / sy) * s
    return -r


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    lower: float | np.ndarray,
    upper: float | np.ndarray,
    tol: float,
    max_iters: int,
) -> Minimum:
    """Projected L-BFGS on the box lower <= x <= upper; fun(x) -> (loss, grad).

    A variable at a bound whose gradient points out of the box is left out
    of the step, as in L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci.
    Comput. 16, 1190 (1995)); the LBFGS_MEMORY curvature pairs are cleared
    whenever that active set changes. The line search on clip(x + step * d)
    seeks the weak Wolfe conditions: a trial above the Armijo line becomes
    hi, one whose slope is still under WOLFE times the start slope becomes
    lo. The step doubles until hi is set, so a flat start still forms
    curvature pairs, then bisects [lo, hi]; a cut from lo = 0 goes to the
    quadratic's minimizer, within [0.1, 0.5] of the step. Status
    'converged' at tol, 'max-iters' after max_iters steps, 'stalled' when
    the projected gradient vanishes or no step lowers the loss.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    evaluations = 1
    loss, grad = fun(x)
    if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
        raise OptimizationError("non-finite loss or gradient at the start point")
    trace, pairs, free_before = [loss], [], None
    status, message = "max-iters", f"iteration cap {max_iters} reached"
    while loss > tol and len(trace) <= max_iters:
        free = ~(((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0)))
        if not np.array_equal(free, free_before):
            pairs, free_before = [], free
        g = np.where(free, grad, 0.0)
        if not np.any(g):
            status, message = "stalled", "projected gradient vanished above tol"
            break
        d = _lbfgs_direction(g, pairs)
        lo, hi, step, found, last = 0.0, np.inf, 1.0, None, x
        for _ in range(MAX_LINE_EVALS):
            trial = np.clip(x + step * d, lower, upper)
            decrease = grad @ (trial - x)
            if np.array_equal(trial, last) or not -decrease > EPS * abs(loss):
                break  # the path stopped moving, or the gain is below rounding
            evaluations += 1
            last, (trial_loss, trial_grad) = trial, fun(trial)
            finite = np.isfinite(trial_loss) and np.all(np.isfinite(trial_grad))
            if not (finite and trial_loss <= loss + ARMIJO * decrease):
                hi = step
            else:
                lo, found = step, (trial, trial_loss, trial_grad)
                if trial_grad @ (trial - x) >= WOLFE * decrease:
                    break
            if hi == np.inf:
                step *= 2.0
            elif lo == 0.0 and finite:
                curve = 2.0 * (trial_loss - loss - decrease)
                step *= min(max(-decrease / curve if curve > 0 else 0.5, 0.1), 0.5)
            else:
                step = 0.5 * (lo + hi)
        if found is None or not found[1] < loss:
            status, message = "stalled", "no step lowers the loss any more"
            break
        s, y = found[0] - x, np.where(free, found[2] - grad, 0.0)
        if s @ y > EPS * (y @ y):
            pairs = pairs[1 - LBFGS_MEMORY:] + [(s, y, s @ y)]
        x, loss, grad = found
        trace.append(loss)
    if loss <= tol:
        status, message = "converged", f"infidelity <= {tol:g}"
    return Minimum(status, message, x, loss, len(trace) - 1, evaluations, trace)


def initial_amplitudes(problem: ControlProblem) -> np.ndarray:
    """(channels, N) start amplitudes for the sampled methods.

    The per-channel arrays of problem.initial_guess when it is set, else
    uniform in [-0.1, 0.1] from the problem seed. A guess gives every model
    channel, and no other key, N real and finite samples.
    """
    channels = problem.model.channels
    n = problem.n_samples
    guess = problem.initial_guess
    if guess is None:
        rng = np.random.default_rng(problem.seed)
        return rng.uniform(-0.1, 0.1, size=(len(channels), n))
    unknown = set(guess) - set(channels)
    if unknown:
        raise OptimizationError(
            f"initial guess names channel(s) {sorted(map(str, unknown))} that "
            f"the model lacks (has {list(channels)})"
        )
    amps = np.zeros((len(channels), n))
    for i, ch in enumerate(channels):
        if ch not in guess:
            raise OptimizationError(f"initial guess missing channel {ch!r}")
        try:
            arr = np.asarray(guess[ch], dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise OptimizationError(f"initial guess for {ch!r}: {exc}") from None
        if arr.shape != (n,):
            raise OptimizationError(
                f"initial guess for {ch!r} has shape {arr.shape}, "
                f"expected ({n},)"
            )
        if not np.all(np.isfinite(arr)):
            raise OptimizationError(f"initial guess for {ch!r} is not finite")
        if np.any(arr.imag):
            raise OptimizationError(f"initial guess for {ch!r} is complex")
        amps[i] = arr.real
    return amps


def clip_amplitudes(amps: np.ndarray, bound: float) -> np.ndarray:
    if bound > 0:
        return np.clip(amps, -bound, bound)
    return amps
