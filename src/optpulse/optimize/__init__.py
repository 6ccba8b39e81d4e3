"""Optimizer registry: name-dispatched GRAPE / GOAT / Krotov handles.

One options map configures a handle, and it is parsed only here. Every
method reads the problem keys (method, max-time, seed, tol, max-iters);
with no circuit, the standalone keys (dimension, target-U, control-H, dt)
build the model and the target. GRAPE and krotov add
amplitude-bound; GOAT adds control-funcs, control-params and
initial-parameters. get_optimizer rejects any other key, and
Optimizer.build_problem is the only code that turns options into a
ControlProblem. A ready ControlProblem passed to optimize() takes only
GOAT's envelope keys. No key is accepted and then ignored. Every method
ends in a ``problem.Minimum``, and ``OptimResult.of`` is the one builder
that turns it into the OptimResult a method returns.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..circuits import Circuit, Gate, circuit_unitary
from ..errors import OptimizationError, UnknownMethodError
from ..limits import as_type, check_numbers
from ..model import SystemModel, build_operator
from .goat import (
    GaussianTerm,
    GoatEnvelopeSpec,
    goat_optimize,
    parse_control_func,
)
from .grape import grape_gradient, grape_optimize
from .krotov import krotov_optimize
from .problem import ControlProblem, OptimResult, _check_unitary, infidelity

__all__ = [
    "ControlProblem",
    "GaussianTerm",
    "GoatEnvelopeSpec",
    "OptimResult",
    "Optimizer",
    "get_optimizer",
    "goat_optimize",
    "grape_gradient",
    "grape_optimize",
    "infidelity",
    "krotov_optimize",
    "parse_control_func",
    "method_names",
]

_METHODS = {"grape": "GRAPE", "goat": "GOAT", "krotov": "krotov"}

_PROBLEM_KEYS = frozenset({"max-time", "seed", "tol", "max-iters"})
_STANDALONE_KEYS = frozenset({"dimension", "target-U", "control-H", "dt"})
_ENVELOPE_KEYS = frozenset({"control-funcs", "control-params", "initial-parameters"})
_METHOD_KEYS = {
    "GRAPE": frozenset({"amplitude-bound"}),
    "krotov": frozenset({"amplitude-bound"}),
    "GOAT": _ENVELOPE_KEYS,
}

_DEFAULT_SAMPLES = {"GRAPE": 100, "krotov": 100, "GOAT": 1000}


def method_names() -> tuple[str, ...]:
    return tuple(_METHODS.values())


def parse_target_unitary(value, n_qubits: int) -> np.ndarray:
    """target-U option: an operator expression like "X0*X1" (X, Y and Z are
    the gates' own matrices; a syntax error ends in (line L, column C)), the
    Hadamard gate's name "H<qubit>", or an inline matrix (complex entries or
    trailing [re, im] pairs), whose shape ControlProblem checks."""
    if isinstance(value, str):
        text = value.strip()
        if text[:1] == "H" and text[1:].isdecimal():  # one name token H<qubit>
            try:
                gate = Gate("H", (int(text[1:]),))
            except ValueError:  # past int()'s digit limit
                raise OptimizationError("target-U qubit index too large") from None
            return circuit_unitary(Circuit(n_qubits, (gate,)))
        return _check_unitary(build_operator(text, n_qubits), f"target-U {value!r}")
    arr = np.asarray(value)
    if arr.ndim == 3 and arr.shape[-1] == 2:  # [re, im] encoding
        arr = arr[..., 0] + 1j * arr[..., 1]
    return _check_unitary(arr, "target-U matrix")


def _require(options: Mapping, key: str):
    if key not in options:
        raise OptimizationError(f"missing required option {key!r}")
    return options[key]


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _standalone_model(options: Mapping, method: str) -> SystemModel:
    dim = int(_require(options, "dimension"))
    n_qubits = max(dim.bit_length() - 1, 0)
    if dim < 2 or 2**n_qubits != dim:
        raise OptimizationError(
            f"dimension must be a power of two >= 2, got {dim}"
        )
    ops = [as_type(x, str, "control-H", OptimizationError)
           for x in _as_list(_require(options, "control-H"))]
    max_time = float(_require(options, "max-time"))
    dt = float(options.get("dt", max_time / _DEFAULT_SAMPLES[method]))
    control = tuple((f"d{i}", op) for i, op in enumerate(ops))
    return SystemModel(
        n_qubits=n_qubits, dt=dt, drift=(), control=control, collapse=()
    )


def _goat_start(
    options: Mapping, channels: tuple[str, ...], standalone: bool
) -> tuple[GoatEnvelopeSpec | None, np.ndarray | None]:
    """GOAT's envelope family and start point from the envelope keys.

    Without control-funcs the family is goat_optimize's default Gaussian per
    channel, started at initial-parameters when given; a standalone problem
    has no default family and must name one.
    """
    inits = options.get("initial-parameters")
    x0 = None
    if inits is not None:
        if isinstance(inits, Mapping):
            raise OptimizationError(
                "initial-parameters must be a list in control-params order, "
                f"got a mapping {dict(inits)!r}"
            )
        try:
            check_numbers(_as_list(inits), "initial-parameters", OptimizationError)
            x0 = np.asarray([float(v) for v in _as_list(inits)], dtype=float)
        except (TypeError, ValueError):
            raise OptimizationError(
                f"initial-parameters must be numbers, got {inits!r}"
            ) from None
    if "control-funcs" not in options:
        if "control-params" in options:
            raise OptimizationError("control-params needs control-funcs")
        if standalone:
            raise OptimizationError(
                "GOAT needs an envelope spec: pass control-funcs with "
                "control-params and initial-parameters"
            )
        return None, x0
    funcs = [str(f) for f in _as_list(options["control-funcs"])]
    if len(funcs) > len(channels):
        raise OptimizationError(
            f"{len(funcs)} control-funcs for {len(channels)} channel(s)"
        )
    # per-channel nesting is allowed: [["a", "s"], ["b"]]
    names = [str(p) for entry in _as_list(options.get("control-params", []))
             for p in _as_list(entry)]
    terms = [(ch, term) for ch, func in zip(channels, funcs)
             for term in parse_control_func(func)]
    return GoatEnvelopeSpec(terms=tuple(terms), param_names=tuple(names)), x0


@dataclass(frozen=True)
class Optimizer:
    """A configured optimizer handle; optimize() runs the method."""

    method: str
    options: dict

    def _reject(self, keys, reason: str) -> None:
        clash = sorted(set(self.options) & set(keys))
        if clash:
            raise OptimizationError(f"option(s) {clash} not allowed: {reason}")

    def build_problem(
        self, model: SystemModel | None = None, target: np.ndarray | None = None
    ) -> ControlProblem:
        """The ControlProblem the options describe.

        Without a model, the standalone keys build the model and the target.
        With both (the compile path), the circuit and the model fix them,
        so a standalone key raises.
        """
        opts = self.options
        if (model is None) != (target is None):
            raise OptimizationError("build_problem needs both a model and a target")
        if model is None:
            model = _standalone_model(opts, self.method)
            target = parse_target_unitary(_require(opts, "target-U"), model.n_qubits)
        else:
            self._reject(_STANDALONE_KEYS, "the circuit and the model fix them")
        return ControlProblem(
            model=model,
            target_u=target,
            max_time=_require(opts, "max-time"),
            amplitude_bound=opts.get("amplitude-bound", 0.0),
            seed=opts.get("seed", 0),
            tol=opts.get("tol"),
            max_iters=opts.get("max-iters"),
        )

    def optimize(
        self,
        problem: ControlProblem | None = None,
        *,
        model: SystemModel | None = None,
        target: np.ndarray | None = None,
    ) -> OptimResult:
        """Run the method on a ready problem, or on build_problem(model, target).

        A ready problem already fixes every key build_problem reads, so only
        GOAT's envelope keys may come with it.
        """
        standalone = problem is None and model is None
        if problem is None:
            problem = self.build_problem(model, target)
        elif model is not None or target is not None:
            raise OptimizationError("pass a problem or a model and target, not both")
        else:
            self._reject(
                set(self.options) - _ENVELOPE_KEYS - {"method"},
                "the given problem already fixes them",
            )
        if self.method == "GRAPE":
            return grape_optimize(problem)
        if self.method == "krotov":
            return krotov_optimize(problem)
        spec, x0 = _goat_start(self.options, problem.model.channels, standalone)
        return goat_optimize(problem, spec, initial_parameters=x0)


def get_optimizer(method: str, options: Mapping | None = None) -> Optimizer:
    """Look up a method by (case-insensitive) name and validate its options."""
    canonical = _METHODS.get(str(method).lower())
    if canonical is None:
        raise UnknownMethodError(
            f"unknown optimizer {method!r}; known methods: "
            + ", ".join(method_names())
        )
    opts = dict(options or {})
    allowed = {"method"} | _PROBLEM_KEYS | _STANDALONE_KEYS | _METHOD_KEYS[canonical]
    unknown = set(opts) - allowed
    if unknown:
        raise OptimizationError(
            f"unknown option(s) {sorted(unknown)} for {canonical}; allowed: "
            + ", ".join(sorted(allowed))
        )
    declared = opts.get("method")
    if declared is not None and str(declared).lower() != canonical.lower():
        raise OptimizationError(
            f"options declare method {declared!r} but {method!r} was requested"
        )
    for key, kind in (
        ("dimension", int),
        ("seed", int),
        ("max-iters", int),
        ("max-time", float),
        ("amplitude-bound", float),
        ("tol", float),
        ("dt", float),
    ):
        if key in opts:
            raw = opts[key]
            try:
                opts[key] = as_type(raw, kind, f"option {key!r}", OptimizationError)
            except (TypeError, ValueError, OverflowError):
                opts[key] = None
            # a float must survive the cast: 2.5 is no int, nan no float
            if opts[key] is None or (isinstance(raw, float) and opts[key] != raw):
                raise OptimizationError(
                    f"option {key!r} must be {kind.__name__}, got {raw!r}"
                )
    return Optimizer(method=canonical, options=opts)
