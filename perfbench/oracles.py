"""Correctness oracles for the benchmark, sharing no code with optpulse.

Everything here is built from numpy, scipy and the tables below, so a fault
in optpulse cannot also hide in the reference. Qubit 0 is the least
significant bit of a basis-state index. Each ``check_*`` function returns a
list of problems; an empty list means the output passed. scipy is imported
only when a check runs, so that importing this module leaves the memory of
the benchmark process to numpy and optpulse.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "SM": np.array([[0, 1], [0, 0]], dtype=complex),  # |0><1|, lowering
}

_FACTOR_RE = re.compile(r"(SM|[IXYZ])(\d+)")


def embed(single: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Lift a one-qubit matrix onto ``qubit`` of an n-qubit register."""
    out = np.eye(1, dtype=complex)
    for q in reversed(range(n_qubits)):  # leftmost kron factor is the top qubit
        out = np.kron(out, single if q == qubit else PAULI["I"])
    return out


def operator(expr: str, n_qubits: int) -> np.ndarray:
    """Matrix of a product of single-qubit factors such as ``"X0*Y1"``."""
    out = np.eye(1 << n_qubits, dtype=complex)
    for factor in expr.replace(" ", "").split("*"):
        match = _FACTOR_RE.fullmatch(factor)
        if match is None:
            raise ValueError(f"oracle cannot read operator factor {factor!r}")
        out = out @ embed(PAULI[match.group(1)], int(match.group(2)), n_qubits)
    return out


def _rotation(axis: str, theta: float) -> np.ndarray:
    return math.cos(theta / 2) * PAULI["I"] - 1j * math.sin(theta / 2) * PAULI[axis]


def _controlled_phase(a: int, b: int, phase: complex, n_qubits: int) -> np.ndarray:
    both = [((k >> a) & 1) and ((k >> b) & 1) for k in range(1 << n_qubits)]
    return np.diag([phase if flag else 1.0 for flag in both]).astype(complex)


def gate_unitary(name: str, qubits: tuple[int, ...], params: tuple[float, ...],
                 n_qubits: int) -> np.ndarray:
    """Unitary of one gate of the circuit dialect on the full register."""
    if name in ("X", "Y", "Z"):
        return embed(PAULI[name], qubits[0], n_qubits)
    if name == "H":
        h = (PAULI["X"] + PAULI["Z"]) / math.sqrt(2)
        return embed(h, qubits[0], n_qubits)
    if name in ("Rx", "Ry", "Rz"):
        return embed(_rotation(name[1].upper(), params[0]), qubits[0], n_qubits)
    if name == "CNOT":  # qubits = (control, target)
        p1 = embed(np.diag([0, 1]).astype(complex), qubits[0], n_qubits)
        eye = np.eye(1 << n_qubits, dtype=complex)
        return (eye - p1) + p1 @ embed(PAULI["X"], qubits[1], n_qubits)
    if name == "CZ":
        return _controlled_phase(qubits[0], qubits[1], -1.0, n_qubits)
    if name == "CPhase":
        return _controlled_phase(qubits[0], qubits[1], np.exp(1j * params[0]), n_qubits)
    if name == "Swap":
        dim = 1 << n_qubits
        a, b = qubits
        perm = np.zeros((dim, dim), dtype=complex)
        for k in range(dim):
            bit_a, bit_b = (k >> a) & 1, (k >> b) & 1
            swapped = k & ~((1 << a) | (1 << b)) | (bit_a << b) | (bit_b << a)
            perm[swapped, k] = 1.0
        return perm
    raise ValueError(f"oracle has no table entry for gate {name!r}")


def circuit_target(gates, n_qubits: int) -> np.ndarray:
    """Product of the gates' unitaries, the first gate acting first."""
    total = np.eye(1 << n_qubits, dtype=complex)
    for name, qubits, params in gates:
        total = gate_unitary(name, tuple(qubits), tuple(params), n_qubits) @ total
    return total


def unitary_infidelity(u: np.ndarray, target: np.ndarray) -> float:
    d = target.shape[0]
    return float(1.0 - abs(np.trace(target.conj().T @ u)) ** 2 / d**2)


def _model_operators(model: dict):
    n = model["n_qubits"]
    drift = np.zeros((1 << n, 1 << n), dtype=complex)
    for term in model.get("drift", []):
        drift += term["coef"] * operator(term["op"], n)
    controls = {c["channel"]: operator(c["op"], n) for c in model["control"]}
    return drift, controls


def pulse_slices(pulse: dict, model: dict) -> list[np.ndarray]:
    """Slice Hamiltonians of a pulse document under a model (left-constant)."""
    drift, controls = _model_operators(model)
    length = max(i["t0"] + len(i["samples"]) for i in pulse["instructions"])
    amps = {ch: np.zeros(length) for ch in controls}
    for instr in pulse["instructions"]:
        values = np.asarray(instr["samples"], dtype=float).reshape(-1, 2)
        if np.any(values[:, 1] != 0.0):
            raise ValueError(f"channel {instr['channel']!r} has imaginary samples")
        amps[instr["channel"]][instr["t0"]: instr["t0"] + len(values)] = values[:, 0]
    return [
        drift + sum(amps[ch][k] * op for ch, op in controls.items())
        for k in range(length)
    ]


def resimulate_pulse(pulse: dict, model: dict) -> np.ndarray:
    """Product of ``scipy.linalg.expm`` slice propagators of a pulse."""
    from scipy.linalg import expm

    dim = 1 << model["n_qubits"]
    u = np.eye(dim, dtype=complex)
    for ham in pulse_slices(pulse, model):
        u = expm(-1j * pulse["dt"] * ham) @ u
    return u


def check_compiled_pulse(pulse_text: str, model: dict, target: np.ndarray,
                         n_samples: int, tol: float) -> list[str]:
    """A GRAPE or Krotov pulse: shape, channels and re-simulated infidelity.

    The re-simulation must reach ``tol`` and agree with the infidelity the
    program reports in the pulse metadata.
    """
    pulse = json.loads(pulse_text)
    problems = []
    if abs(pulse["dt"] - model["dt"]) > 1e-15:
        problems.append(f"pulse dt {pulse['dt']} != model dt {model['dt']}")
    channels = sorted(i["channel"] for i in pulse["instructions"])
    expected = sorted(c["channel"] for c in model["control"])
    if channels != expected:
        problems.append(f"pulse channels {channels} != model channels {expected}")
    lengths = {len(i["samples"]) + i["t0"] for i in pulse["instructions"]}
    if lengths != {n_samples}:
        problems.append(f"pulse lengths {sorted(lengths)} != {n_samples} samples")
    if problems:
        return problems
    resim = unitary_infidelity(resimulate_pulse(pulse, model), target)
    if not resim <= tol:
        problems.append(f"re-simulated infidelity {resim:.3e} above tol {tol:g}")
    reported = pulse["metadata"].get("infidelity")
    if reported is None or abs(resim - reported) > 1e-9:
        problems.append(f"reported infidelity {reported} != re-simulated {resim:.12g}")
    return problems


def pulse_area(envelope, duration: float) -> float:
    from scipy.integrate import quad

    area, _ = quad(envelope, 0.0, duration, limit=400, epsabs=1e-13, epsrel=1e-13)
    return area


def rx_area_infidelity(area: float, theta: float) -> float:
    """Infidelity of exp(-i A X) against Rx(theta) = exp(-i theta X / 2)."""
    return 1.0 - math.cos(area - theta / 2.0) ** 2


def check_goat_rx(envelope, duration: float, theta: float, tol: float,
                  reported: float, agree: float = 1e-7) -> list[str]:
    """Pulse-area law on the drift-free X model: U = exp(-i A X), A = int Omega.

    The law's infidelity must meet ``tol`` and agree with the reported one
    to ``agree``, which covers GOAT's RK3 integration error.
    """
    inf = rx_area_infidelity(pulse_area(envelope, duration), theta)
    problems = []
    if not inf <= tol + agree:
        problems.append(f"pulse-area infidelity {inf:.3e} above {tol:g}")
    if not abs(inf - reported) <= agree:
        problems.append(f"pulse-area infidelity {inf:.3e} != reported {reported:.3e}")
    return problems


def check_samples(pulse_text: str, envelope, dt: float) -> list[str]:
    """The written samples are the envelope at the left slice endpoints."""
    pulse = json.loads(pulse_text)
    if len(pulse["instructions"]) != 1:
        return [f"expected one instruction, got {len(pulse['instructions'])}"]
    (instr,) = pulse["instructions"]
    values = np.asarray(instr["samples"], dtype=float).reshape(-1, 2)
    expect = np.array([envelope((instr["t0"] + k) * dt) for k in range(len(values))])
    gap = float(np.max(np.abs(values[:, 0] - expect)))
    if gap > 1e-12 or np.any(values[:, 1] != 0.0):
        return [f"written samples differ from the envelope by {gap:.3e}"]
    return []


def liouvillian(ham: np.ndarray, jumps) -> np.ndarray:
    """Superoperator on column-stacked rho: vec(A X B) = (B^T kron A) vec(X)."""
    eye = np.eye(ham.shape[0])
    gen = -1j * (np.kron(eye, ham) - np.kron(ham.T, eye))
    for rate, op in jumps:
        lhl = op.conj().T @ op
        gen += rate * (
            np.kron(op.conj(), op) - 0.5 * np.kron(eye, lhl) - 0.5 * np.kron(lhl.T, eye)
        )
    return gen


def reference_trajectory(pulse: dict, model: dict, psi0: np.ndarray, jumps=()):
    """Exact states at every sample time: kets without jumps, else rho."""
    from scipy.linalg import expm

    d = psi0.size
    slices = pulse_slices(pulse, model)
    if not jumps:
        states = [psi0.astype(complex)]
        for ham in slices:
            states.append(expm(-1j * pulse["dt"] * ham) @ states[-1])
        return states
    rho = np.outer(psi0, psi0.conj())
    states = [rho]
    for ham in slices:
        step = expm(liouvillian(ham, jumps) * pulse["dt"])
        vec = step @ states[-1].reshape(-1, order="F")
        states.append(vec.reshape(d, d, order="F"))
    return states


def _density(state: np.ndarray) -> np.ndarray:
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def check_density_matrices(states, tol: float = 1e-8) -> list[str]:
    """Unit trace, Hermiticity and positivity of every rho."""
    problems = []
    for k, rho in enumerate(states):
        rho = np.asarray(rho)
        if abs(np.trace(rho) - 1.0) > tol:
            problems.append(f"rho[{k}] trace {np.trace(rho):.12g}")
        if np.max(np.abs(rho - rho.conj().T)) > tol:
            problems.append(f"rho[{k}] is not Hermitian")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -tol:
            problems.append(f"rho[{k}] is not positive semidefinite")
    return problems


def check_trajectory_csv(csv_text: str, reference, n_qubits: int, dt: float,
                         tol: float) -> list[str]:
    """Every CSV column recomputed from the reference states."""
    lines = csv_text.strip().splitlines()
    header = [h.strip() for h in lines[0].split(",")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if len(rows) != len(reference):
        return [f"CSV has {len(rows)} rows, reference has {len(reference)} states"]
    expected_cols = {"t"}
    for q in range(n_qubits):
        expected_cols |= {f"<X{q}>", f"<Y{q}>", f"<Z{q}>",
                          "p_excited" + ("" if q == 0 else str(q))}
    if set(header) != expected_cols or len(header) != len(expected_cols):
        return [f"CSV header {header} does not name the expected columns"]
    paulis = {f"<{p}{q}>": embed(PAULI[p], q, n_qubits)
              for q in range(n_qubits) for p in "XYZ"}
    worst = 0.0
    for k, (row, state) in enumerate(zip(rows, reference)):
        rho = _density(state)
        for name, value in zip(header, row):
            if name == "t":
                exact = k * dt
            elif name.startswith("p_excited"):
                q = int(name[len("p_excited"):] or 0)
                exact = (1.0 - np.trace(paulis[f"<Z{q}>"] @ rho).real) / 2.0
            else:
                exact = np.trace(paulis[name] @ rho).real
            worst = max(worst, abs(value - exact))
    if worst > tol:
        return [f"CSV deviates from the reference trajectory by {worst:.3e}"]
    return []


def check_states(states, reference, tol: float) -> list[str]:
    gap = max(float(np.max(np.abs(_density(np.asarray(a)) - _density(b))))
              for a, b in zip(states, reference))
    if len(states) != len(reference) or gap > tol:
        return [f"states deviate from the exact reference by {gap:.3e}"]
    return []
