"""GOAT: analytic Gaussian envelopes trained by L-BFGS on the shared core.

Controls are superpositions Omega(t) = sum_k a_k exp(-(t - c_k)^2 / (2 s_k^2))
whose parameters (any subset of a_k, c_k, s_k) are trained (Machnes et al.,
PRL 120, 150401 (2018)) by ``problem.minimize``, the projected L-BFGS minimizer
GRAPE uses too; width parameters are bounded below by the model's dt.

Propagation uses the fourth-order commutator-free exponential CF4 (Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006)). Each step of length
h = dt / SUBSTEPS samples the drive at its Gauss-Legendre nodes t1 < t2 and
applies

    exp(-i h/2 H[w- u(t1) + w+ u(t2)]) exp(-i h/2 H[w+ u(t1) + w- u(t2)]),

with w+- = 1/2 +- sqrt(3)/3 and H[u] = H_drift + sum_c u_c Op_c. H is affine
in u and w+ + w- = 1, so each factor is an ordinary piecewise-constant
slice of length h/2. The slices go through the same stacked-eigh
propagation as GRAPE: every evaluation is exactly unitary, and GRAPE's
exact amplitude gradient, pulled back through the linear mix and the
envelope Jacobian, is the exact gradient of the discrete map.

The discretization error is O(h^4). At the returned point the loss is
re-evaluated with twice the substeps; if the two differ by more than
INTEGRATION_TOL the substeps double and the run goes on from that point.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from ..errors import OptimizationError
from .problem import (
    ControlProblem, OptimResult, _gradient_from_state, _Propagation, minimize
)

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITERS = 500
SUBSTEPS = 2  # CF4 steps per model sample period
INTEGRATION_TOL = 1e-8
MAX_SUBSTEP_DOUBLINGS = 8

# Gauss-Legendre nodes on [0, 1], and the CF4 weights: row s gives the
# amplitude of half-step slice s as a mix of the samples at the two nodes.
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_CF4_MIX = 0.5 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * np.sqrt(3.0) / 3.0


@dataclass(frozen=True)
class GaussianTerm:
    """One Gaussian a*exp(-(t-c)^2/(2 s^2)); str slots name trainable params."""

    amplitude: float | str = 1.0
    center: float | str = 0.0
    width: float | str = 1.0

    def __post_init__(self):
        if isinstance(self.width, float) and not self.width > 0:
            raise OptimizationError(f"fixed width must be positive, got {self.width}")


@dataclass(frozen=True)
class GoatEnvelopeSpec:
    """Envelope family: (channel, term) pairs plus the trainable-name order.

    param_names fixes the layout of the optimization vector; every name
    must be used by at least one term slot and vice versa.
    """

    terms: tuple[tuple[str, GaussianTerm], ...]
    param_names: tuple[str, ...]

    def __post_init__(self):
        if not self.terms:
            raise OptimizationError("envelope spec needs at least one Gaussian term")
        if len(set(self.param_names)) != len(self.param_names):
            raise OptimizationError("duplicate trainable parameter names")
        used = {
            slot
            for _, term in self.terms
            for slot in (term.amplitude, term.center, term.width)
            if isinstance(slot, str)
        }
        missing = used - set(self.param_names)
        if missing:
            raise OptimizationError(
                f"envelope references undeclared parameter(s) {sorted(missing)}"
            )
        unused = set(self.param_names) - used
        if unused:
            raise OptimizationError(
                f"declared parameter(s) {sorted(unused)} not used by any envelope"
            )

    @property
    def channels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for ch, _ in self.terms:
            if ch not in seen:
                seen.append(ch)
        return tuple(seen)

    def width_param_names(self) -> set[str]:
        return {
            term.width for _, term in self.terms if isinstance(term.width, str)
        }

    def _resolve(self, term: GaussianTerm, values: Mapping[str, float]):
        def slot(v):
            return values[v] if isinstance(v, str) else float(v)

        return slot(term.amplitude), slot(term.center), slot(term.width)

    def channel_values(
        self, channel: str, t: np.ndarray, values: Mapping[str, float]
    ) -> np.ndarray:
        out = np.zeros_like(t, dtype=float)
        for ch, term in self.terms:
            if ch != channel:
                continue
            a, c, s = self._resolve(term, values)
            out += a * np.exp(-((t - c) ** 2) / (2.0 * s * s))
        return out

    def channel_param_grads(
        self, channel: str, t: np.ndarray, values: Mapping[str, float]
    ) -> dict[str, np.ndarray]:
        grads = {name: np.zeros_like(t, dtype=float) for name in self.param_names}
        for ch, term in self.terms:
            if ch != channel:
                continue
            a, c, s = self._resolve(term, values)
            gauss = np.exp(-((t - c) ** 2) / (2.0 * s * s))
            if isinstance(term.amplitude, str):
                grads[term.amplitude] += gauss
            if isinstance(term.center, str):
                grads[term.center] += a * gauss * (t - c) / (s * s)
            if isinstance(term.width, str):
                grads[term.width] += a * gauss * (t - c) ** 2 / (s**3)
        return grads

    def envelope_callable(
        self, channel: str, values: Mapping[str, float]
    ) -> Callable[[float], float]:
        frozen = dict(values)

        def env(t: float) -> float:
            return float(self.channel_values(channel, np.asarray([t]), frozen)[0])

        return env


_NUMBER = r"\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
_IDENT = r"[A-Za-z_]\w*"
_TERM_RE = re.compile(
    rf"(?:(?P<amp>{_IDENT}|{_NUMBER})\*)?"
    rf"exp\(-(?:t\^2|\(t-(?P<cen>{_IDENT}|{_NUMBER})\)\^2)"
    rf"/\(2\*(?P<sig>{_IDENT}|{_NUMBER})\^2\)\)"
)


def _split_terms(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_control_func(text: str) -> list[GaussianTerm]:
    """Parse a Gaussian-superposition template string into terms.

    Accepted shapes per '+'-separated term (whitespace ignored):
    'exp(-t^2/(2*sigma^2))', 'a*exp(-(t-c)^2/(2*s^2))', with each of the
    amplitude/center/width slots either a number or a parameter name.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise OptimizationError("empty control-funcs string")
    terms = []
    for part in _split_terms(compact):
        match = _TERM_RE.fullmatch(part)
        if match is None:
            raise OptimizationError(
                f"cannot parse envelope term {part!r}; expected the form "
                "'a*exp(-(t-c)^2/(2*s^2))' with numeric or named slots"
            )

        def slot(raw: str | None, default: float):
            if raw is None:
                return default
            if re.fullmatch(_NUMBER, raw):
                return float(raw)
            return raw

        terms.append(
            GaussianTerm(
                amplitude=slot(match.group("amp"), 1.0),
                center=slot(match.group("cen"), 0.0),
                width=slot(match.group("sig"), 1.0),
            )
        )
    return terms


def default_envelope_spec(
    problem: ControlProblem,
) -> tuple[GoatEnvelopeSpec, np.ndarray]:
    """One Gaussian per channel: trainable amplitude and width, center T/2.

    Start at amplitude 0.1 and width 8*dt, the Gaussian-guess policy shared
    with the other methods' defaults.
    """
    terms = []
    names = []
    inits = []
    for ch in problem.model.channels:
        a_name, s_name = f"a_{ch}", f"sigma_{ch}"
        terms.append((ch, GaussianTerm(a_name, problem.max_time / 2.0, s_name)))
        names += [a_name, s_name]
        inits += [0.1, 8.0 * problem.dt]
    spec = GoatEnvelopeSpec(terms=tuple(terms), param_names=tuple(names))
    return spec, np.asarray(inits, dtype=float)


class _CF4Objective:
    """Infidelity and its parameter gradient on n_samples * substeps CF4 steps."""

    def __init__(
        self, problem: ControlProblem, spec: GoatEnvelopeSpec, substeps: int
    ):
        channels = problem.model.channels
        unknown = set(spec.channels) - set(channels)
        if unknown:
            raise OptimizationError(
                f"envelope channel(s) {sorted(unknown)} not in the model"
            )
        self.spec = spec
        self.target = problem.target_u
        self.drift = problem.model.drift_matrix()
        index = [channels.index(ch) for ch in spec.channels]
        self.ops = problem.model.control_stack[index]
        n_steps = problem.n_samples * substeps
        h = problem.max_time / n_steps
        self.dt = 0.5 * h
        self.nodes = ((np.arange(n_steps)[:, None] + _GAUSS_NODES) * h).ravel()

    def _propagate(self, x: np.ndarray) -> tuple[dict, _Propagation]:
        spec = self.spec
        values = dict(zip(spec.param_names, x))
        samples = np.stack(
            [spec.channel_values(ch, self.nodes, values) for ch in spec.channels]
        )
        if not np.all(np.isfinite(samples)):
            raise OptimizationError("non-finite GOAT envelope samples")
        # per channel and step: two node samples -> two half-step amplitudes
        amps = samples.reshape(len(samples), -1, 2) @ _CF4_MIX.T
        state = _Propagation(
            self.drift, self.ops, amps.reshape(samples.shape), self.dt, self.target
        )
        return values, state

    def loss(self, x: np.ndarray) -> float:
        return self._propagate(x)[1].loss

    def loss_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        values, state = self._propagate(x)
        g_amps = _gradient_from_state(state, self.ops, self.target, self.dt)
        # chain rule back through the linear mix to the node samples
        g_nodes = g_amps.reshape(len(g_amps), -1, 2) @ _CF4_MIX
        names = self.spec.param_names
        grad = np.zeros(len(names))
        for g, ch in zip(g_nodes.reshape(g_amps.shape), self.spec.channels):
            jac = self.spec.channel_param_grads(ch, self.nodes, values)
            grad += np.array([g @ jac[name] for name in names])
        return state.loss, grad


def goat_optimize(
    problem: ControlProblem,
    spec: GoatEnvelopeSpec | None = None,
    initial_parameters: np.ndarray | None = None,
) -> OptimResult:
    """Projected L-BFGS (``problem.minimize``) over envelope parameters.

    Stops when the infidelity reaches tol (default 1e-5) or after max_iters
    iterations (default 500). Width parameters are kept at or above the
    model's dt by lower bounds: a narrower Gaussian cannot be represented
    by the emitted samples.
    """
    if problem.amplitude_bound > 0:
        raise OptimizationError(
            "GOAT does not support amplitude-bound: its Gaussian amplitudes "
            "are unconstrained parameters"
        )
    if spec is None:
        spec, x0 = default_envelope_spec(problem)
    elif initial_parameters is None:
        raise OptimizationError(
            "GOAT needs initial-parameters matching the envelope spec"
        )
    if initial_parameters is not None:
        x0 = np.asarray(initial_parameters, dtype=float)
    if x0.shape != (len(spec.param_names),):
        raise OptimizationError(
            f"initial-parameters has {x0.size} entries, spec trains "
            f"{len(spec.param_names)}"
        )
    tol = DEFAULT_TOL if problem.tol is None else problem.tol
    max_iters = DEFAULT_MAX_ITERS if problem.max_iters is None else problem.max_iters

    width_names = spec.width_param_names()
    floors = np.array(
        [problem.dt if name in width_names else -np.inf for name in spec.param_names]
    )

    # The grid stays fixed during a run so the line search sees one smooth
    # objective; the result is then checked on a grid twice as fine, and a
    # refinement run starts where the coarser one stopped.
    substeps, iterations, evaluations, trace = SUBSTEPS, 0, 0, []
    for _ in range(MAX_SUBSTEP_DOUBLINGS + 1):
        objective = _CF4Objective(problem, spec, substeps)
        found = minimize(
            objective.loss_and_grad, x0, floors, np.inf, tol, max_iters - iterations
        )
        iterations += found.iterations
        evaluations += found.evaluations + 1  # the finer-grid check below
        trace += found.trace
        x0 = found.x
        substeps *= 2
        gap = abs(_CF4Objective(problem, spec, substeps).loss(found.x) - found.loss)
        if gap <= INTEGRATION_TOL:
            break
    else:
        raise OptimizationError(
            f"envelope under-resolved: the loss still moves by {gap:.3e} "
            f"when the CF4 grid is refined to {substeps} steps per dt"
        )

    values = dict(zip(spec.param_names, found.x))
    tgrid = np.arange(problem.n_samples) * problem.dt
    samples = {
        ch: spec.channel_values(ch, tgrid, values).astype(complex)
        for ch in spec.channels
    }
    envelopes = {
        ch: spec.envelope_callable(ch, values) for ch in spec.channels
    }
    return OptimResult(
        method="GOAT",
        status=found.status,
        optimal_params=found.x,
        final_infidelity=float(found.loss),
        iterations=iterations,
        evaluations=evaluations,
        trace=tuple(trace),
        synthesized_samples=samples,
        dt=problem.dt,
        message=found.message,
        envelopes=envelopes,
    )
