"""Optimizer registry: name-dispatched GRAPE / GOAT / Krotov handles.

A handle is configured from an options map (keys mirror the pulse-level
options surface: method, dimension, target-U, control-params,
control-funcs, control-H, max-time, initial-parameters, n-samples,
amplitude-bound, seed, tol, max-iters, dt) and exposes optimize().
Called without a problem it builds one from the options; the compiler
pipeline instead passes a ready ControlProblem and only the
method-specific options (GOAT's envelope spec) are consumed.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..circuits import Circuit, Gate, circuit_unitary
from ..errors import OptimizationError, UnknownMethodError
from ..model import SystemModel, build_operator
from .goat import (
    GaussianTerm,
    GoatEnvelopeSpec,
    goat_optimize,
    parse_control_func,
)
from .grape import grape_gradient, grape_optimize
from .krotov import krotov_optimize
from .problem import ControlProblem, OptimResult, infidelity

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

_ALLOWED_OPTIONS = {
    "method",
    "dimension",
    "target-U",
    "control-params",
    "control-funcs",
    "control-H",
    "max-time",
    "initial-parameters",
    "n-samples",
    "amplitude-bound",
    "seed",
    "tol",
    "max-iters",
    "dt",
}

_GATE_TARGET_RE = re.compile(r"([A-Za-z]+?)(\d+)")
_DEFAULT_SAMPLES = {"GRAPE": 100, "krotov": 100, "GOAT": 1000}


def method_names() -> tuple[str, ...]:
    return tuple(_METHODS.values())


def parse_target_unitary(value, n_qubits: int) -> np.ndarray:
    """target-U option: a gate name like "X0"/"H1", an operator expression,
    or an inline matrix (complex entries or trailing [re, im] pairs)."""
    if isinstance(value, str):
        text = value.strip()
        match = _GATE_TARGET_RE.fullmatch(text)
        if match and match.group(1) in {"X", "Y", "Z", "H"}:
            gate = Gate(match.group(1), (int(match.group(2)),), ())
            circuit = Circuit(n_qubits=n_qubits, gates=(gate,))
            return circuit_unitary(circuit)
        mat = build_operator(text, n_qubits)
        eye = np.eye(mat.shape[0])
        if np.max(np.abs(mat.conj().T @ mat - eye)) > 1e-8:
            raise OptimizationError(
                f"target-U expression {value!r} is not unitary"
            )
        return mat
    arr = np.asarray(value)
    if arr.ndim == 3 and arr.shape[-1] == 2:  # [re, im] encoding
        arr = arr[..., 0] + 1j * arr[..., 1]
    mat = np.asarray(arr, dtype=complex)
    dim = 2**n_qubits
    if mat.shape != (dim, dim):
        raise OptimizationError(f"target-U matrix shape {mat.shape} != ({dim}, {dim})")
    if np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) > 1e-8:
        raise OptimizationError("target-U matrix is not unitary")
    return mat


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
    ops = [str(x) for x in _as_list(_require(options, "control-H"))]
    max_time = float(_require(options, "max-time"))
    if "dt" in options:
        dt = float(options["dt"])
    else:
        n = int(options.get("n-samples", _DEFAULT_SAMPLES[method]))
        dt = max_time / n
    control = tuple((f"d{i}", op) for i, op in enumerate(ops))
    return SystemModel(
        n_qubits=n_qubits, dt=dt, drift=(), control=control, collapse=()
    )


def _envelope_spec_from_options(
    options: Mapping, channels: tuple[str, ...]
) -> tuple[GoatEnvelopeSpec, np.ndarray] | None:
    if "control-funcs" not in options:
        return None
    funcs = [str(f) for f in _as_list(options["control-funcs"])]
    if len(funcs) > len(channels):
        raise OptimizationError(
            f"{len(funcs)} control-funcs for {len(channels)} channel(s)"
        )
    names = []
    for entry in _as_list(options.get("control-params", [])):
        # per-channel nesting is allowed: [["a", "s"], ["b"]]
        if isinstance(entry, (list, tuple)):
            names.extend(str(p) for p in entry)
        else:
            names.append(str(entry))
    terms = []
    for ch, func in zip(channels, funcs):
        for term in parse_control_func(func):
            terms.append((ch, term))
    spec = GoatEnvelopeSpec(terms=tuple(terms), param_names=tuple(names))
    inits = options.get("initial-parameters")
    if inits is None:
        raise OptimizationError(
            "control-funcs with trainable parameters needs initial-parameters"
        )
    if isinstance(inits, Mapping):
        raise OptimizationError(
            "initial-parameters must be a list in control-params order, "
            f"got a mapping {dict(inits)!r}"
        )
    x0 = np.asarray([float(v) for v in _as_list(inits)], dtype=float)
    return spec, x0


@dataclass(frozen=True)
class Optimizer:
    """A configured optimizer handle; optimize() runs the method."""

    method: str
    options: dict

    def build_problem(self) -> ControlProblem:
        opts = self.options
        model = _standalone_model(opts, self.method)
        target = parse_target_unitary(_require(opts, "target-U"), model.n_qubits)
        return ControlProblem(
            model=model,
            target_u=target,
            max_time=float(_require(opts, "max-time")),
            n_samples=opts.get("n-samples"),
            amplitude_bound=float(opts.get("amplitude-bound", 0.0)),
            seed=int(opts.get("seed", 0)),
            tol=opts.get("tol"),
            max_iters=opts.get("max-iters"),
        )

    def optimize(self, problem: ControlProblem | None = None) -> OptimResult:
        if problem is None:
            problem = self.build_problem()
        if self.method == "GRAPE":
            return grape_optimize(problem)
        if self.method == "krotov":
            return krotov_optimize(problem)
        built = _envelope_spec_from_options(self.options, problem.model.channels)
        if built is not None:
            spec, x0 = built
            return goat_optimize(problem, spec, initial_parameters=x0)
        if "dimension" in self.options:
            # standalone GOAT must say what family it optimizes over
            raise OptimizationError(
                "GOAT needs an envelope spec: pass control-funcs with "
                "control-params and initial-parameters"
            )
        return goat_optimize(problem)  # compiler path: default Gaussian family


def get_optimizer(method: str, options: Mapping | None = None) -> Optimizer:
    """Look up a method by (case-insensitive) name and validate its options."""
    canonical = _METHODS.get(str(method).lower())
    if canonical is None:
        raise UnknownMethodError(
            f"unknown optimizer {method!r}; known methods: "
            + ", ".join(method_names())
        )
    opts = dict(options or {})
    unknown = set(opts) - _ALLOWED_OPTIONS
    if unknown:
        raise OptimizationError(
            f"unknown option(s) {sorted(unknown)}; allowed: "
            + ", ".join(sorted(_ALLOWED_OPTIONS))
        )
    declared = opts.get("method")
    if declared is not None and str(declared).lower() != canonical.lower():
        raise OptimizationError(
            f"options declare method {declared!r} but {method!r} was requested"
        )
    for key, kind in (
        ("dimension", int),
        ("n-samples", int),
        ("seed", int),
        ("max-iters", int),
        ("max-time", float),
        ("amplitude-bound", float),
        ("tol", float),
        ("dt", float),
    ):
        if key in opts:
            try:
                opts[key] = kind(opts[key])
            except (TypeError, ValueError):
                raise OptimizationError(
                    f"option {key!r} must be {kind.__name__}, "
                    f"got {opts[key]!r}"
                ) from None
            if kind is int and isinstance(options.get(key), float):
                if float(options[key]) != opts[key]:
                    raise OptimizationError(
                        f"option {key!r} must be an integer, got {options[key]!r}"
                    )
    return Optimizer(method=canonical, options=opts)
