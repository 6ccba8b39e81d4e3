"""optpulse: digital-to-analog quantum compiler.

Lowers gate-level circuits to optimal control pulses (GRAPE, GOAT, Krotov)
against a declarative device model, and verifies the pulses on built-in
unitary and Lindblad simulators.
"""

from .circuits import Circuit, Gate, circuit_unitary, eval_parametric, gate_matrix, parse_circuit
from .dynamics import (
    ControlSignal,
    evolve_continuous,
    evolve_states,
    expectation,
    lindblad_evolve,
    piecewise_propagator,
    trajectory_csv,
)
from .errors import (
    CircuitError,
    CircuitSyntaxError,
    DynamicsError,
    LibraryError,
    ModelError,
    OptimizationError,
    OptPulseError,
    PulseError,
    TransformError,
    UnknownMethodError,
)
from .model import (
    SystemModel,
    apply_detuning,
    build_operator,
    load_model,
    parse_model,
    serialize_model,
)
from .optimize import (
    ControlProblem,
    GaussianTerm,
    GoatEnvelopeSpec,
    OptimResult,
    Optimizer,
    get_optimizer,
    goat_optimize,
    grape_gradient,
    grape_optimize,
    infidelity,
    krotov_optimize,
    method_names,
)
from .synthesis import (
    PulseInstruction,
    PulseLibrary,
    PulseProgram,
    compile_circuit,
    emit_program,
    library_lower,
    load_program,
    parse_program,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitError",
    "CircuitSyntaxError",
    "ControlProblem",
    "ControlSignal",
    "DynamicsError",
    "Gate",
    "GaussianTerm",
    "GoatEnvelopeSpec",
    "LibraryError",
    "ModelError",
    "OptPulseError",
    "OptimResult",
    "OptimizationError",
    "Optimizer",
    "PulseError",
    "PulseInstruction",
    "PulseLibrary",
    "PulseProgram",
    "SystemModel",
    "TransformError",
    "UnknownMethodError",
    "__version__",
    "apply_detuning",
    "build_operator",
    "circuit_unitary",
    "compile_circuit",
    "emit_program",
    "eval_parametric",
    "evolve_continuous",
    "evolve_states",
    "expectation",
    "gate_matrix",
    "get_optimizer",
    "goat_optimize",
    "grape_gradient",
    "grape_optimize",
    "infidelity",
    "krotov_optimize",
    "library_lower",
    "lindblad_evolve",
    "load_model",
    "load_program",
    "method_names",
    "parse_circuit",
    "parse_model",
    "parse_program",
    "piecewise_propagator",
    "serialize_model",
    "trajectory_csv",
    "transform",
]
