"""GOAT: analytic Gaussian envelopes as a parametrization of the shared objective.

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
slice of length h/2. GOAT is therefore GRAPE's objective
(``problem.sampled_objective``) under another parametrization: x -> the
envelopes at the nodes (``GoatEnvelopeSpec.evaluator``, every term at once)
-> the CF4 mix -> the slice amplitudes. Every evaluation is exactly
unitary, and its vjp, the transposed mix and the envelope Jacobian applied
to GRAPE's exact amplitude gradient, is the exact gradient of the discrete
map. The emitted samples and ``OptimResult.envelopes`` come from the same
evaluator.

The discretization error is O(h^4). At the returned point the loss is
re-evaluated with twice the substeps; if the two differ by more than
INTEGRATION_TOL the substeps double and the run goes on from that point.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..circuits import _TEMPLATE_LEXER, _Arithmetic, _tokenize
from ..errors import CircuitSyntaxError, OptimizationError
from .problem import ControlProblem, OptimResult, minimize, sampled_objective

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
        if not isinstance(self.width, str) and not 0 < self.width:
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
        return tuple(dict.fromkeys(ch for ch, _ in self.terms))

    def evaluator(self) -> Callable[[np.ndarray, np.ndarray], tuple]:
        """evaluate(x, t) -> (values, vjp) with the slot layout resolved once.

        values[i, k] is the envelope of channels[i] at t[k] under the
        parameter vector x, and vjp maps a cotangent of that shape to
        d/dx. Every term is evaluated at once as a (terms, len(t)) array:
        slot kind k (amplitude, center, width) of term j reads entry
        index[k, j] of x extended by the fixed slot values, and a
        (channels, terms) 0/1 matrix sums the terms into their channels.
        The pullback contracts once per slot kind and sums into x with
        bincount; the fixed slots land past x and are dropped.
        """
        slots = [(term.amplitude, term.center, term.width) for _, term in self.terms]
        fixed = np.array([v for row in slots for v in row if not isinstance(v, str)])
        n = len(self.param_names)
        position = dict(zip(self.param_names, range(n)))
        after = iter(range(n, n + fixed.size))
        index = np.array(
            [[position[v] if isinstance(v, str) else next(after) for v in row]
             for row in slots]
        ).T
        member = np.array(
            [[float(ch == c) for c, _ in self.terms] for ch in self.channels]
        )

        def evaluate(x: np.ndarray, t: np.ndarray):
            # amplitudes, centers and widths of all terms, each (terms, 1)
            a, c, s = np.concatenate([x, fixed])[index][..., None]
            dev = t - c
            gauss = np.exp(-(dev**2) / (2.0 * s * s))
            scaled = a * gauss

            def vjp(g: np.ndarray) -> np.ndarray:
                jac = np.stack([gauss, scaled * dev / (s * s), scaled * dev**2 / s**3])
                per_slot = np.einsum("ktn,tn->kt", jac, member.T @ g)
                return np.bincount(index.ravel(), per_slot.ravel(), n + fixed.size)[:n]

            return member @ scaled, vjp

        return evaluate


class _TemplateParser(_Arithmetic):
    """Templates on the shared token cursor::

        template := term ('+' term)*
        term     := [slot '*'] 'exp' '(' '-' ('t' | '(' 't' '-' slot ')') '^' '2'
                    '/' '(' '2' '*' slot '^' '2' ')' ')'
    """

    def gaussian(self) -> GaussianTerm:
        amplitude, center = 1.0, 0.0
        if [tok.text for tok in self.tokens[self.pos : self.pos + 2]] != ["exp", "("]:
            amplitude = self.slot("amplitude")
            self.next("*")
        self.expect("exp", "(", "-")
        if self.accept("("):
            self.expect("t", "-")
            center = self.slot("center")
            self.next(")")
        else:
            self.next("t")
        self.expect("^", "2", "/", "(", "2", "*")
        width = self.slot("width")
        self.expect("^", "2", ")", ")")
        return GaussianTerm(amplitude, center, width)

    def expect(self, *texts: str) -> None:
        for text in texts:
            self.next(text)

    def slot(self, what: str) -> float | str:
        """A name, or a finite number (a positive one for a width)."""
        tok = self.next()
        if tok.kind == "name":
            return tok.text
        value = float(tok.text) if tok.kind == "number" else math.nan
        need = "positive" if what == "width" else "finite"
        if not (math.isfinite(value) and (value > 0.0 or need == "finite")):
            raise tok.error(f"{what} must be a {need} number or a name, not {tok.text!r}")
        return value


def parse_control_func(text: str) -> list[GaussianTerm]:
    """The Gaussian terms of one control-funcs template (``_TemplateParser``).

    Each slot is a finite number or a trainable parameter's name. Tokens
    are those of circuit angles plus '^', separated by any whitespace. An
    error is an OptimizationError ending in its token's (line L, column C).
    """
    try:
        parser = _TemplateParser(_tokenize(text, _TEMPLATE_LEXER))
        terms = [parser.gaussian()]
        while parser.accept("+"):
            terms.append(parser.gaussian())
        if (tok := parser.peek()) is not None:
            raise tok.error(f"expected '+' or the end, found {tok.text!r}")
    except CircuitSyntaxError as exc:
        raise OptimizationError(exc.within(f"in control-funcs {text!r}")) from None
    return terms


def default_envelope_spec(
    problem: ControlProblem,
) -> tuple[GoatEnvelopeSpec, np.ndarray]:
    """One Gaussian per channel: trainable amplitude and width, center T/2.

    Start at amplitude 0.1 and width 8*dt, the Gaussian-guess policy shared
    with the other methods' defaults.
    """
    terms, names, inits = [], [], []
    for ch in problem.model.channels:
        a_name, s_name = f"a_{ch}", f"sigma_{ch}"
        terms.append((ch, GaussianTerm(a_name, problem.max_time / 2.0, s_name)))
        names += [a_name, s_name]
        inits += [0.1, 8.0 * problem.dt]
    spec = GoatEnvelopeSpec(terms=tuple(terms), param_names=tuple(names))
    return spec, np.asarray(inits, dtype=float)


def _cf4_objective(
    problem: ControlProblem, evaluate: Callable, ops: np.ndarray, substeps: int
):
    """The sampled objective on n_samples * substeps CF4 steps.

    The parametrization samples the envelopes at each step's two Gauss
    nodes and mixes them into the step's two half-step amplitudes; its vjp
    applies the transposed mix and the envelopes' pullback.
    """
    n_steps = problem.n_samples * substeps
    h = problem.max_time / n_steps
    nodes = ((np.arange(n_steps)[:, None] + _GAUSS_NODES) * h).ravel()

    def parametrize(x: np.ndarray):
        samples, vjp = evaluate(x, nodes)
        if not np.all(np.isfinite(samples)):
            raise OptimizationError("non-finite GOAT envelope samples")
        # per channel and step: two node samples -> two half-step amplitudes
        amps = samples.reshape(len(samples), -1, 2) @ _CF4_MIX.T

        def pullback(g: np.ndarray) -> np.ndarray:
            return vjp((g.reshape(len(g), -1, 2) @ _CF4_MIX).reshape(g.shape))

        return amps.reshape(samples.shape), pullback

    drift = problem.model.drift_matrix()
    return sampled_objective(drift, ops, problem.target_u, 0.5 * h, parametrize)


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
    if problem.initial_guess is not None:
        raise OptimizationError(
            "GOAT does not take an initial-guess of samples: it starts from "
            "its envelope parameters (initial-parameters)"
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
    tol, max_iters = problem.stopping("GOAT")

    channels = problem.model.channels
    unknown = set(spec.channels) - set(channels)
    if unknown:
        raise OptimizationError(
            f"envelope channel(s) {sorted(unknown)} not in the model"
        )
    ops = problem.model.control_stack[[channels.index(ch) for ch in spec.channels]]
    evaluate = spec.evaluator()
    floors = np.full(len(spec.param_names), -np.inf)
    widths = [term.width for _, term in spec.terms if isinstance(term.width, str)]
    floors[[spec.param_names.index(name) for name in widths]] = problem.dt

    # The grid stays fixed during a run so the line search sees one smooth
    # objective; the result is then checked on a grid twice as fine, and a
    # refinement run starts where the coarser one stopped, on the objective
    # of the check. An objective allocates its buffers at its first
    # evaluation, so rebinding drops the coarse grid's before the check's.
    substeps, iterations, evaluations, trace = SUBSTEPS, 0, 0, []
    objective = _cf4_objective(problem, evaluate, ops, substeps)
    for _ in range(MAX_SUBSTEP_DOUBLINGS + 1):
        found = minimize(objective, x0, floors, np.inf, tol, max_iters - iterations)
        iterations += found.iterations
        evaluations += found.evaluations + 1  # the finer-grid check below
        trace += found.trace
        x0 = found.x
        substeps *= 2
        objective = _cf4_objective(problem, evaluate, ops, substeps)
        gap = abs(objective(found.x, grad=False)[0] - found.loss)
        if gap <= INTEGRATION_TOL:
            break
    else:
        raise OptimizationError(
            f"envelope under-resolved: the loss still moves by {gap:.3e} "
            f"when the CF4 grid is refined to {substeps} steps per dt"
        )

    # the emitted samples and the envelopes come from the same evaluator, at
    # a copy of the parameters that later edits of optimal_params cannot reach
    best = found.x.copy()
    values, _ = evaluate(best, np.arange(problem.n_samples) * problem.dt)

    def envelope(row: int) -> Callable[[float], float]:
        return lambda t: float(evaluate(best, np.array([t], dtype=float))[0][row, 0])

    envelopes = {ch: envelope(i) for i, ch in enumerate(spec.channels)}
    found = found._replace(iterations=iterations, evaluations=evaluations, trace=trace)
    return OptimResult.of("GOAT", found, spec.channels, values, problem.dt, envelopes)
