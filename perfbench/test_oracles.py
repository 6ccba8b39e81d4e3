"""Fast tests of the benchmark's oracles and input generation.

    python3 -m pytest -q perfbench/test_oracles.py

They use numpy and scipy only; optpulse is not imported.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import erf

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads  # noqa: E402

X1 = {"n_qubits": 1, "dt": 0.2, "control": [{"channel": "dx", "op": "X0"}]}


def constant_pulse(level: float, n: int, infidelity: float = 0.0) -> dict:
    return {"dt": 0.2, "metadata": {"infidelity": infidelity},
            "instructions": [{"channel": "dx", "t0": 0, "samples": [[level, 0.0]] * n}]}


def test_gate_tables_put_qubit_zero_in_the_low_bit():
    cnot_10 = oracles.gate_unitary("CNOT", (1, 0), (), 2)
    assert cnot_10[3, 2] == 1 and cnot_10[2, 3] == 1  # |q1=1,q0=0> <-> |11>
    assert cnot_10[1, 1] == 1  # control q1 is 0: unchanged
    x0 = oracles.operator("X0", 2)
    assert x0[1, 0] == 1 and x0[2, 0] == 0
    assert np.allclose(oracles.gate_unitary("Rx", (0,), (math.pi,), 1), -1j * oracles.PAULI["X"])
    swap = oracles.gate_unitary("Swap", (0, 1), (), 2)
    assert swap[2, 1] == 1 and swap[1, 2] == 1


def test_qft2_target_is_the_discrete_fourier_transform():
    dft = np.array([[1j ** (j * k) for k in range(4)] for j in range(4)]) / 2
    target = oracles.circuit_target(workloads.QFT2, 2)
    assert oracles.unitary_infidelity(target, dft) < 1e-12


def test_every_table_gate_is_unitary():
    for name, qubits, params in [("H", (0,), ()), ("Ry", (1,), (0.7,)), ("Rz", (0,), (2.1,)),
                                 ("CZ", (0, 1), ()), ("CPhase", (1, 0), (0.4,))]:
        u = oracles.gate_unitary(name, qubits, params, 2)
        assert np.allclose(u.conj().T @ u, np.eye(4))


def test_resimulated_pulse_accepts_an_exact_x_gate_and_rejects_a_perturbed_one():
    n = 10
    level = (math.pi / 2) / (n * 0.2)  # pulse area pi/2: exp(-i pi/2 X) = -iX
    x_gate = oracles.PAULI["X"]
    good = constant_pulse(level, n)
    assert oracles.check_compiled_pulse(json.dumps(good), X1, x_gate, n, 1e-9) == []
    bad = constant_pulse(level, n)
    bad["instructions"][0]["samples"][3] = [level + 0.5, 0.0]  # area +0.1
    problems = oracles.check_compiled_pulse(json.dumps(bad), X1, x_gate, n, 1e-3)
    assert any("re-simulated infidelity" in p for p in problems)


def test_reported_infidelity_must_match_the_resimulation():
    n = 10
    pulse = constant_pulse((math.pi / 2) / (n * 0.2), n, infidelity=1e-4)
    problems = oracles.check_compiled_pulse(json.dumps(pulse), X1, oracles.PAULI["X"], n, 1e-3)
    assert any("reported infidelity" in p for p in problems)


def test_pulse_area_law_against_the_closed_form_gaussian_area():
    sigma, duration = 1.3, 10.0
    envelope = lambda t: 0.4 * math.exp(-((t - 5.0) ** 2) / (2 * sigma**2))  # noqa: E731
    exact = 0.4 * sigma * math.sqrt(math.pi / 2) * (
        erf(5.0 / (sigma * math.sqrt(2))) - erf(-5.0 / (sigma * math.sqrt(2))))
    area = oracles.pulse_area(envelope, duration)
    assert abs(area - exact) < 1e-12
    theta = 2 * area
    assert oracles.check_goat_rx(envelope, duration, theta, 1e-6, 0.0) == []
    wrong = oracles.check_goat_rx(envelope, duration, theta + 0.01, 1e-6, 0.0)
    assert wrong


def test_liouvillian_reproduces_t1_decay_and_its_csv():
    rate, dt, n = 0.05, 0.5, 12
    model = {"n_qubits": 1, "dt": dt, "control": [{"channel": "dx", "op": "X0"}]}
    pulse = {"dt": dt, "instructions": [{"channel": "dx", "t0": 0, "samples": [[0.0, 0.0]] * n}]}
    psi1 = np.array([0, 1], dtype=complex)
    jumps = [(rate, oracles.operator("SM0", 1))]
    states = oracles.reference_trajectory(pulse, model, psi1, jumps)
    excited = [s[1, 1].real for s in states]
    assert np.allclose(excited, np.exp(-rate * dt * np.arange(n + 1)), atol=1e-12)
    assert oracles.check_density_matrices(states) == []
    rows = ["t, <X0>, <Y0>, <Z0>, p_excited"]
    for k, p in enumerate(excited):
        rows.append(f"{k * dt:.12g}, 0, 0, {1 - 2 * p:.12g}, {p:.12g}")
    csv = "\n".join(rows) + "\n"
    assert oracles.check_trajectory_csv(csv, states, 1, dt, 1e-9) == []
    rows[5] = rows[5].replace(", 0, 0,", ", 0.001, 0,")
    assert oracles.check_trajectory_csv("\n".join(rows), states, 1, dt, 1e-9)


def test_density_checks_reject_a_non_positive_rho():
    bad = np.diag([1.1, -0.1]).astype(complex)
    assert any("positive" in p for p in oracles.check_density_matrices([bad]))
    skew = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
    assert any("Hermitian" in p for p in oracles.check_density_matrices([skew]))


def test_closed_reference_matches_a_rabi_flip():
    n = 10
    pulse = constant_pulse((math.pi / 2) / (n * 0.2), n)
    states = oracles.reference_trajectory(pulse, X1, np.array([1, 0], dtype=complex))
    assert abs(abs(states[-1][1]) - 1.0) < 1e-12


def test_workload_inputs_depend_only_on_the_seed():
    for name in workloads.NAMES:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a.circuit_texts == b.circuit_texts and a.model_texts == b.model_texts
        assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    assert workloads.build("grape-2q", 7).circuit_texts != workloads.build("grape-2q", 8).circuit_texts
    krotov = workloads.build("krotov-2q", 3)
    assert [j.name for j in krotov.jobs if j.expect_failure] == ["cnot10"]
