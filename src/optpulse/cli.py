"""Command-line driver.

Subcommands: ``compile`` (circuit -> pulse program), ``simulate`` (pulse
program -> trajectory CSV), ``unitary`` (circuit -> matrix dump), ``sweep``
(parametric circuit -> per-value summary CSV).

Exit codes: 0 success, 1 I/O failure, 2 parse/validation error,
3 optimizer non-convergence, after ``compile`` or ``sweep`` writes its
output. Every file output gets a run manifest written alongside it;
re-running the recorded command reproduces the output byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .circuits import (
    Circuit,
    circuit_unitary,
    eval_parametric,
    parse_angle,
    parse_circuit,
)
from .dynamics import evolve_states, lindblad_evolve, trajectory_csv
from .errors import (
    CircuitError,
    DynamicsError,
    ModelError,
    OptPulseError,
    TransformError,
)
from .limits import dt_matches
from .model import apply_detuning, build_operator, load_model
from .synthesis import compile_circuit, emit_program, load_program

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3


def _load_circuit(path: str) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def _bind_circuit(circuit: Circuit, bind_args) -> Circuit:
    bindings: dict[str, float] = {}
    for chunk in bind_args or []:
        for piece in chunk.split(","):
            name, eq, raw = piece.partition("=")
            if not eq:
                raise CircuitError(f"bad --bind entry {piece!r} (want name=value)")
            bindings[name.strip()] = parse_angle(raw)
    if not bindings:
        return circuit
    unknown = sorted(set(bindings) - set(circuit.free_params))
    if unknown:
        raise CircuitError(f"--bind names {unknown} are not circuit parameters")
    missing = [p for p in circuit.free_params if p not in bindings]
    if missing:
        raise CircuitError(f"missing --bind value(s) for {missing}")
    return eval_parametric(circuit, [bindings[p] for p in circuit.free_params])


def _basis_state(bitstring: str, n_qubits: int) -> np.ndarray:
    """Computational basis ket; leftmost character is the highest qubit."""
    if len(bitstring) != n_qubits or set(bitstring) - {"0", "1"}:
        raise DynamicsError(
            f"initial state must be {n_qubits} characters of 0/1, got {bitstring!r}"
        )
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[int(bitstring, 2)] = 1.0
    return psi


def _format_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _write_manifest(
    output: str, command: str, inputs: dict, options: dict, seed: int
) -> None:
    doc = {
        "command": command,
        "inputs": inputs,
        "options": options,
        "outputs": [output],
        "seed": seed,
        "version": __version__,
    }
    with open(output + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _deliver(
    text: str, output: str | None, command: str, inputs: dict, options: dict, seed: int
) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(output, command, inputs, options, seed)
    else:
        sys.stdout.write(text)


def _optimizer_options(args) -> dict:
    opts: dict[str, object] = {"max-time": args.max_time, "seed": args.seed}
    if args.tol is not None:
        opts["tol"] = args.tol
    if args.max_iters is not None:
        opts["max-iters"] = args.max_iters
    if args.amplitude_bound is not None:
        opts["amplitude-bound"] = args.amplitude_bound
    if args.accept_threshold is not None:
        opts["accept-threshold"] = args.accept_threshold
    return opts


def _best_effort(circuit: Circuit, model, args, opts: dict, label: str = ""):
    """(program, result, converged) of compile_circuit; a run that missed the
    acceptance threshold gives the best-effort program its error carries, and
    a warning."""
    try:
        return (*compile_circuit(circuit, model, args.method, opts), True)
    except TransformError as exc:
        print(f"warning: {label}{exc}", file=sys.stderr)
        return exc.program, exc.result, False


def cmd_compile(args) -> int:
    circuit = _bind_circuit(_load_circuit(args.circuit), args.bind)
    model = load_model(args.model)
    opts = _optimizer_options(args)
    program, result, converged = _best_effort(circuit, model, args, opts)
    output = args.output or (
        os.path.splitext(os.path.basename(args.circuit))[0] + ".pulse.json"
    )
    _deliver(
        emit_program(program),
        output,
        "compile",
        {"circuit": args.circuit, "model": args.model},
        {"method": args.method, **opts},
        args.seed,
    )
    print(
        f"final infidelity {result.final_infidelity:.12g} "
        f"after {result.iterations} iteration(s), "
        f"{result.evaluations} evaluation(s) [{result.status}]"
    )
    print(f"wrote {output}")
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def cmd_simulate(args) -> int:
    program = load_program(args.pulse)
    model = load_model(args.model)
    if args.lo_delta:
        model = apply_detuning(model, args.lo_delta)
    if args.t1 is not None:
        if not args.t1 > 0:
            raise DynamicsError(f"--t1 must be positive, got {args.t1}")
        model = model.with_terms(
            collapse=((1.0 / args.t1, f"SM{q}") for q in range(model.n_qubits))
        )
    psi0 = _basis_state(args.initial_state or "0" * model.n_qubits, model.n_qubits)
    extra = {}
    for label in filter(None, (s.strip() for s in (args.observables or "").split(","))):
        extra[label] = build_operator(label, model.n_qubits)
    if program.total_duration == 0:  # no channels, and no engine checks the dt
        if not dt_matches(program.dt, model.dt):
            raise ModelError(
                f"pulse dt {program.dt} does not match model dt {model.dt}"
            )
        times = np.array([0.0])
        states = [np.outer(psi0, psi0.conj()) if model.has_dissipation else psi0]
    elif model.has_dissipation:
        times, states = lindblad_evolve(model, program.to_signal(), psi0)
    else:
        times, states = evolve_states(model, program.to_signal(), psi0)
    _deliver(
        trajectory_csv(times, states, model.n_qubits, extra),
        args.output,
        "simulate",
        {"model": args.model, "pulse": args.pulse},
        {
            "initial-state": args.initial_state,
            "lo-delta": args.lo_delta,
            "observables": args.observables,
            "t1": args.t1,
        },
        0,
    )
    return EXIT_OK


def cmd_unitary(args) -> int:
    u = circuit_unitary(_bind_circuit(_load_circuit(args.circuit), args.bind))
    for row in u:
        print("  ".join(_format_complex(z) for z in row))
    return EXIT_OK


def cmd_sweep(args) -> int:
    circuit = _load_circuit(args.circuit)
    if len(circuit.free_params) != 1:
        raise CircuitError(
            "sweep needs exactly one free parameter, circuit has "
            f"{list(circuit.free_params)}"
        )
    model = load_model(args.model)
    values = [
        parse_angle(v)
        for v in filter(None, (s.strip() for s in args.values.split(",")))
    ]
    opts = _optimizer_options(args)
    ground = _basis_state("0" * model.n_qubits, model.n_qubits)
    lines = ["value, infidelity, p_excited"]
    converged = True
    for value in values:
        bound = eval_parametric(circuit, [value])
        program, result, ok = _best_effort(bound, model, args, opts, f"value {value:g}: ")
        converged &= ok
        if program.total_duration == 0:
            p_excited = 0.0
        else:
            _, states = evolve_states(model, program.to_signal(), ground)
            p_excited = 1.0 - abs(np.vdot(ground, states[-1])) ** 2
        lines.append(f"{value:.12g}, {result.final_infidelity:.12g}, {p_excited:.12g}")
    _deliver(
        "\n".join(lines) + "\n",
        args.output,
        "sweep",
        {"circuit": args.circuit, "model": args.model},
        {"method": args.method, "values": args.values, **opts},
        args.seed,
    )
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def _add_optimizer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default="GRAPE", help="GRAPE, GOAT, or krotov")
    parser.add_argument("--max-time", type=float, required=True, help="pulse horizon")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--amplitude-bound", type=float, default=None)
    parser.add_argument(
        "--accept-threshold",
        type=float,
        default=None,
        help="reject compilations above this infidelity (default 5e-2)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optpulse",
        description="Compile gate circuits to optimal control pulses and simulate them.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower a circuit to a pulse program")
    p.add_argument("circuit", help="circuit source file")
    p.add_argument("model", help="system model JSON")
    _add_optimizer_flags(p)
    p.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p.add_argument("-o", "--output", default=None, help="pulse JSON path")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="simulate a pulse program")
    p.add_argument("pulse", help="pulse program JSON")
    p.add_argument("model", help="system model JSON")
    p.add_argument("--initial-state", default=None, metavar="BITSTRING")
    p.add_argument(
        "--observables", default=None, help="comma-separated operator expressions"
    )
    p.add_argument("--t1", type=float, default=None, help="amplitude-damping time")
    p.add_argument(
        "--lo-delta", type=float, default=0.0, help="relative drive detuning"
    )
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("unitary", help="print a circuit's unitary matrix")
    p.add_argument("circuit", help="circuit source file")
    p.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_unitary)

    p = sub.add_parser("sweep", help="compile+simulate over parameter values")
    p.add_argument("circuit", help="circuit with exactly one free parameter")
    p.add_argument("model", help="system model JSON")
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    _add_optimizer_flags(p)
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OptPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
