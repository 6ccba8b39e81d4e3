"""Seeded inputs and jobs of the four workloads.

A job calls optpulse the way ``optpulse compile`` and ``optpulse simulate``
do: parse the circuit and model text, compile and emit the pulse; or parse
the pulse and model text, run the trajectories and write the CSV. Inputs
are plain text made here from the seed; the oracles get the same inputs in
the benchmark's own form (gate lists, model dicts), never optpulse objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

# The device of the two-qubit compile workloads: 12 Pauli drive channels.
MODEL_2Q_12CH = {
    "n_qubits": 2,
    "dt": 0.1,
    "control": [
        {"channel": ch, "op": op}
        for ch, op in (
            ("dx0", "X0"), ("dy0", "Y0"), ("dz0", "Z0"),
            ("dx1", "X1"), ("dy1", "Y1"), ("dz1", "Z1"),
            ("uxx", "X0*X1"), ("uyy", "Y0*Y1"), ("uzz", "Z0*Z1"),
            ("uxy", "X0*Y1"), ("uyz", "Y0*Z1"), ("uzx", "Z0*X1"),
        )
    ],
}
# Drift-free single-qubit X drive: U = exp(-i A X) with A the pulse area.
MODEL_1Q_X_NODRIFT = {"n_qubits": 1, "dt": 0.2,
                      "control": [{"channel": "dx", "op": "X0"}]}

QFT2 = [("H", (1,), ()), ("CPhase", (0, 1), (math.pi / 2,)), ("H", (0,), ()),
        ("Swap", (0, 1), ())]
CNOT_10 = [("CNOT", (1, 0), ())]

COMPILE_HORIZON = 10.0
GRAPE_CIRCUITS = 11          # plus QFT2
KROTOV_CIRCUITS = 23         # plus the failing CNOT(q[1],q[0])
GOAT_THETAS = 4              # plus the standalone pi pulse
GOAT_THETA_RANGE = (1.9, 3.0)
THETA_JITTER = 0.05
ANGLE_RANGE = (0.3, 2.8)
ANGLE_JITTER = 0.05
GOLDEN = (math.sqrt(5) - 1) / 2
# simulate-t1: qubits -> (slices, drive amplitude). The amplitudes keep the
# Lindblad step doubling stopping at 80 substeps per slice on every seed.
SIM_SIZES = {1: (30, 0.7), 2: (16, 0.5), 3: (10, 0.5), 4: (8, 0.45)}
SIM_DT = 0.1
SIM_T1 = 20.0


@dataclass
class Job:
    """One compile or one verification, with its oracle."""

    name: str
    run: Callable[[object, object], object]   # (optpulse module, tracer) -> output
    check: Callable[[object], list]           # output -> problems
    signature: Callable[[object], str]        # output -> text compared between rounds
    expect_failure: bool = False


@dataclass
class Workload:
    """A workload's jobs, and the texts a fresh start parses for ``setup_s``."""

    jobs: list
    model_texts: list
    circuit_texts: list


def circuit_text(gates) -> str:
    lines = []
    for name, qubits, params in gates:
        args = [f"q[{q}]" for q in qubits] + [repr(float(p)) for p in params]
        lines.append(f"{name}({', '.join(args)});")
    return "\n".join(lines) + "\n"


def entangler_circuits(rng, count: int):
    """Two-qubit circuits: local Ry/Rz layer, one CNOT or CZ, local Rx layer.

    Circuit i is built on template i: entangler i mod 4 (CNOT or CZ, either
    orientation) and six angle centres spread over ANGLE_RANGE by a
    golden-ratio sequence. The seed moves every angle within ANGLE_JITTER of
    its centre, so each seed draws new circuits of the same shapes and the
    work in a round depends little on the seed.
    """
    lo, hi = ANGLE_RANGE
    centres = lo + (hi - lo) * ((np.arange(count * 6).reshape(count, 6) * GOLDEN) % 1.0)
    angles = centres + rng.uniform(-ANGLE_JITTER, ANGLE_JITTER, size=centres.shape)
    kinds = [("CNOT", (0, 1)), ("CNOT", (1, 0)), ("CZ", (0, 1)), ("CZ", (1, 0))]
    circuits = []
    for i, a in enumerate(angles):
        gate, qubits = kinds[i % len(kinds)]
        circuits.append([
            ("Ry", (0,), (a[0],)), ("Rz", (0,), (a[1],)),
            ("Ry", (1,), (a[2],)), ("Rz", (1,), (a[3],)),
            (gate, qubits, ()),
            ("Rx", (0,), (a[4],)), ("Rx", (1,), (a[5],)),
        ])
    return circuits


def _compile_job(name, gates, model, method, options, tol, expect_failure=False):
    text = circuit_text(gates)
    model_text = json.dumps(model)
    target = oracles.circuit_target(gates, model["n_qubits"])
    n_samples = round(options["max-time"] / model["dt"])

    def run(lib, tr):
        with tr.span("circuits.parse_s"):
            circuit = lib.parse_circuit(text)
        with tr.span("model.load_s"):
            parsed = lib.parse_model(model_text)
        try:
            with tr.span("synthesis.compile_s"):
                program, result = lib.compile_circuit(circuit, parsed, method, dict(options))
        except lib.TransformError as exc:
            if exc.program is not None:  # the CLI still writes the best effort
                with tr.span("synthesis.emit_s"):
                    tr.add("synthesis.pulse_bytes", len(lib.emit_program(exc.program)))
            raise
        with tr.span("synthesis.emit_s"):
            pulse = lib.emit_program(program)
        tr.add("synthesis.pulse_bytes", len(pulse))
        return pulse, result

    if method == "GOAT":
        theta = gates[0][2][0]

        def check(output):
            pulse, result = output
            envelope = _single_envelope(result)
            if envelope is None:
                return ["GOAT result carries no single analytic envelope"]
            return oracles.check_goat_rx(
                envelope, options["max-time"], theta, tol, result.final_infidelity
            ) + oracles.check_samples(pulse, envelope, model["dt"])
    else:
        def check(output):
            return oracles.check_compiled_pulse(output[0], model, target, n_samples, tol)

    return Job(name, run, check, lambda output: output[0], expect_failure)


def _single_envelope(result):
    envelopes = list((result.envelopes or {}).values())
    return envelopes[0] if len(envelopes) == 1 else None


def _goat_pi_job():
    """The standalone GOAT pi pulse: one Gaussian of trainable width on [0, 100]."""
    options = {
        "method": "GOAT", "dimension": 2, "target-U": "X0", "control-H": ["X0"],
        "control-funcs": ["exp(-t^2/(2*sigma^2))"], "control-params": ["sigma"],
        "initial-parameters": [8.0], "max-time": 100.0, "tol": 1e-8,
    }

    def run(lib, tr):
        return lib.get_optimizer("GOAT", options).optimize()

    def check(result):
        envelope = _single_envelope(result)
        if envelope is None:
            return ["GOAT result carries no single analytic envelope"]
        # exp(-i A X) is X up to phase when A = pi/2 mod pi, i.e. Rx(pi)
        return oracles.check_goat_rx(envelope, 100.0, math.pi, 1e-8, result.final_infidelity)

    return Job("goat-pi", run, check, lambda r: repr(r.optimal_params.tolist()))


def sim_model(n_qubits: int, t1: float | None = None) -> dict:
    model = {
        "n_qubits": n_qubits,
        "dt": SIM_DT,
        "drift": [{"coef": 0.5, "op": f"Z{q}"} for q in range(n_qubits)]
        + [{"coef": 0.05, "op": f"Z{q}*Z{q + 1}"} for q in range(n_qubits - 1)],
        "control": [{"channel": f"d{axis}{q}", "op": f"{axis.upper()}{q}"}
                    for q in range(n_qubits) for axis in "xy"],
    }
    if t1 is not None:
        model["collapse"] = [{"rate": 1.0 / t1, "op": f"SM{q}"} for q in range(n_qubits)]
    return model


def sim_pulse(rng, model: dict, n_slices: int, amplitude: float) -> dict:
    """One seeded sine per channel: amplitude within 10%, 0.8-1.2 periods."""
    t = np.arange(n_slices) * model["dt"]
    span = n_slices * model["dt"]
    instructions = []
    for control in model["control"]:
        a = amplitude * rng.uniform(0.9, 1.0)
        freq = rng.uniform(0.8, 1.2) / span
        values = a * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        instructions.append({"channel": control["channel"], "t0": 0,
                             "samples": [[float(v), 0.0] for v in values]})
    return {"dt": model["dt"], "instructions": instructions, "metadata": {}}


def _simulate_job(n_qubits, pulse, model, model_t1):
    pulse_text = json.dumps(pulse)
    model_text, model_t1_text = json.dumps(model), json.dumps(model_t1)
    psi0 = np.zeros(1 << n_qubits, dtype=complex)
    psi0[0] = 1.0
    jumps = [(c["rate"], oracles.operator(c["op"], n_qubits)) for c in model_t1["collapse"]]

    def run(lib, tr):
        with tr.span("synthesis.parse_s"):
            program = lib.parse_program(pulse_text)
        tr.add("synthesis.pulse_bytes", len(pulse_text))
        with tr.span("model.load_s"):
            closed = lib.parse_model(model_text)
            damped = lib.parse_model(model_t1_text)
        signal = program.to_signal()
        with tr.span("dynamics.evolve_states_s"):
            times, kets = lib.evolve_states(closed, signal, psi0)
        with tr.span("dynamics.trajectory_csv_s"):
            csv_closed = lib.trajectory_csv(times, kets, n_qubits)
        with tr.span("dynamics.lindblad_s"):
            times, rhos = lib.lindblad_evolve(damped, signal, psi0)
        with tr.span("dynamics.trajectory_csv_s"):
            csv_t1 = lib.trajectory_csv(times, rhos, n_qubits)
        return csv_closed, csv_t1, kets, rhos

    def check(output):
        csv_closed, csv_t1, kets, rhos = output
        exact_kets = oracles.reference_trajectory(pulse, model, psi0)
        exact_rhos = oracles.reference_trajectory(pulse, model, psi0, jumps)
        return (
            oracles.check_states(kets, exact_kets, 1e-9)
            + oracles.check_trajectory_csv(csv_closed, exact_kets, n_qubits, SIM_DT, 1e-9)
            + oracles.check_density_matrices(rhos)
            + oracles.check_states(rhos, exact_rhos, 1e-6)
            + oracles.check_trajectory_csv(csv_t1, exact_rhos, n_qubits, SIM_DT, 1e-6)
        )

    return Job(f"simulate-{n_qubits}q", run, check, lambda o: o[0] + o[1])


def build(name: str, seed: int) -> Workload:
    """The seeded job set of one workload; the same seed gives the same jobs."""
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    if name in ("grape-2q", "krotov-2q"):
        method = "GRAPE" if name == "grape-2q" else "krotov"
        count = GRAPE_CIRCUITS if method == "GRAPE" else KROTOV_CIRCUITS
        circuits = entangler_circuits(rng, count)
        jobs = []
        named = ([("qft2", QFT2)] if method == "GRAPE" else []) + [
            (f"circuit{i}", gates) for i, gates in enumerate(circuits)
        ]
        # the optimizer seed stays at the CLI default; the seed moves the circuits
        options = {"max-time": COMPILE_HORIZON, "tol": 1e-3, "seed": 0}
        for label, gates in named:
            jobs.append(_compile_job(label, gates, MODEL_2Q_12CH, method, options, 1e-3))
        if method == "krotov":
            # Krotov stalls on this target at infidelity 0.1875 in every run
            jobs.append(_compile_job("cnot10", CNOT_10, MODEL_2Q_12CH, method,
                                     options, 1e-3, expect_failure=True))
        texts = [circuit_text(g) for _, g in named]
        return Workload(jobs, [json.dumps(MODEL_2Q_12CH)], texts)
    if name == "goat-1q":
        lo, hi = GOAT_THETA_RANGE
        # one angle per equal stratum of the range, near the stratum's centre
        centres = lo + (np.arange(GOAT_THETAS) + 0.5) * (hi - lo) / GOAT_THETAS
        thetas = centres + rng.uniform(-THETA_JITTER, THETA_JITTER, size=GOAT_THETAS)
        jobs = []
        for i, theta in enumerate(thetas):
            gates = [("Rx", (0,), (float(theta),))]
            options = {"max-time": COMPILE_HORIZON, "tol": 1e-6}
            jobs.append(_compile_job(f"rx{i}", gates, MODEL_1Q_X_NODRIFT, "GOAT", options, 1e-6))
        jobs.append(_goat_pi_job())
        texts = [circuit_text([("Rx", (0,), (float(t),))]) for t in thetas]
        return Workload(jobs, [json.dumps(MODEL_1Q_X_NODRIFT)], texts)
    if name == "simulate-t1":
        jobs, models = [], []
        for n_qubits, (n_slices, amplitude) in SIM_SIZES.items():
            model, model_t1 = sim_model(n_qubits), sim_model(n_qubits, SIM_T1)
            pulse = sim_pulse(rng, model, n_slices, amplitude)
            jobs.append(_simulate_job(n_qubits, pulse, model, model_t1))
            models += [json.dumps(model), json.dumps(model_t1)]
        return Workload(jobs, models, [])
    raise KeyError(name)


NAMES = ("grape-2q", "krotov-2q", "goat-1q", "simulate-t1")
