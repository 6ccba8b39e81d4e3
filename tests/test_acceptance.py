"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so `pytest -v` shows one verdict per criterion and the
captured detail names the quantities involved.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from optpulse.circuits import circuit_unitary, parse_circuit
from optpulse.cli import main as cli_main
from optpulse.dynamics import (
    ControlSignal,
    evolve_continuous,
    evolve_states,
    lindblad_evolve,
    piecewise_propagator,
)
from optpulse.model import SystemModel, apply_detuning, parse_model, serialize_model
from optpulse.optimize import (
    ControlProblem,
    get_optimizer,
    goat_optimize,
    grape_gradient,
    grape_optimize,
    infidelity,
    krotov_optimize,
)
from optpulse.optimize.goat import SUBSTEPS, _cf4_objective, default_envelope_spec
from optpulse.synthesis import compile_circuit, emit_program, parse_program

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)

# Frozen before implementation: root of area(sigma) = 7*pi/2 on [8, 10],
# where area(sigma) = integral_0^100 exp(-t^2/(2 sigma^2)) dt. Gradient
# descent from sigma = 8 (area 10.03) lands in this basin; every area
# congruent to pi/2 mod pi realizes an X gate up to global phase.
SIGMA_STAR = 8.7731989612085


def half_gaussian_area(sigma: float) -> float:
    val, _ = quad(
        lambda t: np.exp(-(t**2) / (2.0 * sigma**2)),
        0.0,
        100.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def load(fixtures, name):
    return parse_model((fixtures / name).read_text())


def test_criterion_1_goat_pi_pulse_area_equation():
    t0 = time.perf_counter()
    handle = get_optimizer(
        "GOAT",
        {
            "method": "GOAT",
            "dimension": 2,
            "target-U": "X0",
            "control-H": ["X0"],
            "control-funcs": ["exp(-t^2/(2*sigma^2))"],
            "control-params": ["sigma"],
            "initial-parameters": [8.0],
            "max-time": 100.0,
            "tol": 1e-8,
        },
    )
    result = handle.optimize()
    elapsed = time.perf_counter() - t0
    assert result.final_infidelity <= 1e-5

    sigma = float(result.optimal_params[-1])
    area = half_gaussian_area(sigma)
    # X-gate pulse-area condition: area = pi/2 (mod pi); quadrature oracle
    assert abs((area % np.pi) - np.pi / 2) <= 1e-3
    # independent root-finding oracle for the basin reached from sigma = 8
    sigma_oracle = brentq(
        lambda s: half_gaussian_area(s) - 7 * np.pi / 2, 8.0, 10.0, xtol=1e-12
    )
    assert abs(sigma_oracle - SIGMA_STAR) <= 1e-9
    assert abs(sigma - sigma_oracle) <= 1e-3
    assert elapsed < 5.0
    print(
        f"criterion 1 PASS: infidelity={result.final_infidelity:.2e}, "
        f"sigma={sigma:.6f} vs oracle {sigma_oracle:.6f}, "
        f"area mod pi deviates {abs((area % np.pi) - np.pi/2):.2e} from pi/2, "
        f"{elapsed:.2f}s"
    )


def test_criterion_2_grape_hadamard(fixtures):
    t0 = time.perf_counter()
    model = load(fixtures, "model_1q_xy.json")
    problem = ControlProblem(
        model=model, target_u=H, max_time=10.0, seed=11, tol=1e-3, max_iters=1000
    )
    result = grape_optimize(problem)
    elapsed = time.perf_counter() - t0
    assert result.final_infidelity <= 1e-3
    assert result.iterations <= 1000

    signal = ControlSignal.from_samples(result.synthesized_samples, result.dt)
    u_independent = evolve_continuous(model, signal)
    resim = infidelity(u_independent, H)
    assert abs(resim - result.final_infidelity) <= 1e-6
    assert elapsed < 10.0
    print(
        f"criterion 2 PASS: infidelity={result.final_infidelity:.2e} in "
        f"{result.iterations} iterations, independent re-simulation gap "
        f"{abs(resim - result.final_infidelity):.2e}, {elapsed:.2f}s"
    )


def test_criterion_3_krotov_hadamard_as_yx(fixtures):
    circuit = parse_circuit((fixtures / "h_as_yx.xasm").read_text())
    target = circuit_unitary(circuit)
    assert np.max(np.abs(target - H)) <= 1e-12

    model = load(fixtures, "model_1q_x.json")
    problem = ControlProblem(model=model, target_u=target, max_time=10.0, tol=1e-5)
    result = krotov_optimize(problem)
    signal = ControlSignal.from_samples(result.synthesized_samples, result.dt)
    _, states = evolve_states(model, signal, np.array([1.0, 0.0], dtype=complex))
    final = states[-1]
    x_exp = float(np.real(final.conj() @ X @ final))
    z_exp = float(np.real(final.conj() @ np.diag([1.0, -1.0]) @ final))
    assert x_exp >= 0.999
    assert abs(z_exp) <= 0.03

    violations = 0
    for seed in range(50):
        p = ControlProblem(
            model=model,
            target_u=target,
            max_time=10.0,
            seed=seed,
            tol=1e-4,
            max_iters=25,
        )
        trace = np.asarray(krotov_optimize(p).trace)
        violations += int(np.any(np.diff(trace) > 1e-10))
    assert violations == 0
    print(
        f"criterion 3 PASS: unitary gap <= 1e-12, <X>={x_exp:.5f}, "
        f"|<Z>|={abs(z_exp):.4f}, 0/50 monotonicity violations"
    )


def test_criterion_4_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    fd_step = 1e-6

    def random_problem(n_samples):
        ops = ["X0", "Y0", "Z0"]
        model = SystemModel(
            n_qubits=1,
            dt=rng.uniform(0.05, 0.3),
            drift=((rng.uniform(-1, 1), "Z0"),),
            control=tuple((f"c{i}", ops[i]) for i in range(int(rng.integers(1, 3)))),
        )
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(a)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        return ControlProblem(
            model=model,
            target_u=q,
            max_time=n_samples * model.dt,
        )

    worst_grape = 0.0
    for _ in range(20):
        p = random_problem(int(rng.integers(6, 12)))
        n_ch = len(p.model.channels)
        amps = rng.uniform(-0.5, 0.5, size=(n_ch, p.n_samples))
        grad = grape_gradient(p, amps)

        def loss(a):
            sig = ControlSignal.from_samples(
                {ch: a[i] for i, ch in enumerate(p.model.channels)}, p.dt
            )
            return infidelity(piecewise_propagator(p.model, sig), p.target_u)

        fd = np.zeros_like(amps)
        for i in range(n_ch):
            for k in range(p.n_samples):
                up, dn = amps.copy(), amps.copy()
                up[i, k] += fd_step
                dn[i, k] -= fd_step
                fd[i, k] = (loss(up) - loss(dn)) / (2 * fd_step)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst_grape = max(worst_grape, rel)
    assert worst_grape <= 1e-5

    worst_goat = 0.0
    for _ in range(20):
        p = random_problem(int(rng.integers(8, 14)))
        spec, x0 = default_envelope_spec(p)
        objective = _cf4_objective(p, spec.evaluator(), p.model.control_stack, SUBSTEPS)
        x = x0 + rng.uniform(-0.02, 0.02, x0.shape)
        grad = objective(x)[1]()
        fd = np.zeros_like(x)
        for i in range(x.size):
            up, dn = x.copy(), x.copy()
            up[i] += fd_step
            dn[i] -= fd_step
            fd[i] = (objective(up)[0] - objective(dn)[0]) / (2 * fd_step)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst_goat = max(worst_goat, rel)
    assert worst_goat <= 1e-5

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 4 PASS: worst relative gradient error GRAPE "
        f"{worst_grape:.2e}, GOAT {worst_goat:.2e} over 20+20 instances, "
        f"{elapsed:.1f}s"
    )


def test_criterion_5_dynamics_oracles():
    rng = np.random.default_rng(21)
    worst_engine_gap = 0.0
    worst_unitarity = 0.0
    for _ in range(10):
        model = SystemModel(
            n_qubits=1,
            dt=rng.uniform(0.05, 0.3),
            drift=((rng.uniform(-1, 1), "Z0"),),
            control=(("dx", "X0"), ("dy", "Y0")),
        )
        sig = ControlSignal.from_samples(
            {
                "dx": rng.uniform(-0.5, 0.5, 25),
                "dy": rng.uniform(-0.5, 0.5, 25),
            },
            model.dt,
        )
        u_pw = piecewise_propagator(model, sig)
        u_rk = evolve_continuous(model, sig)
        worst_engine_gap = max(worst_engine_gap, float(np.max(np.abs(u_pw - u_rk))))
        for u in (u_pw, u_rk):
            defect = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
            worst_unitarity = max(worst_unitarity, defect)
    assert worst_engine_gap <= 1e-7
    assert worst_unitarity <= 1e-9

    t1 = 3.0
    model = SystemModel(
        n_qubits=1,
        dt=0.25,
        drift=((0.4, "Z0"),),
        control=(("dx", "X0"),),
        collapse=((1.0 / t1, "SM0"),),
    )
    driven = ControlSignal.from_samples({"dx": rng.uniform(-0.4, 0.4, 20)}, model.dt)
    _, rhos = lindblad_evolve(model, driven, np.diag([1.0, 0.0]).astype(complex))
    drift_err = max(abs(np.trace(r).real - 1.0) for r in rhos)
    assert drift_err <= 1e-7

    idle = ControlSignal.from_samples({"dx": np.zeros(20)}, model.dt)
    times, rhos = lindblad_evolve(model, idle, np.diag([0.0, 1.0]).astype(complex))
    decay_err = max(
        abs(r[1, 1].real - np.exp(-t / t1)) for t, r in zip(times, rhos)
    )
    assert decay_err <= 1e-6
    print(
        f"criterion 5 PASS: engine gap {worst_engine_gap:.2e}, unitarity "
        f"{worst_unitarity:.2e}, trace drift {drift_err:.2e}, T1 decay error "
        f"{decay_err:.2e}"
    )


def test_criterion_6_decay_and_detuning_degrade_all_methods(fixtures):
    model = load(fixtures, "model_1q_x_nodrift.json")
    circuit = parse_circuit((fixtures / "x.xasm").read_text())
    t_gate = 10.0
    excited = np.array([0.0, 1.0], dtype=complex)
    summary = []
    for method in ("GRAPE", "GOAT", "krotov"):
        program, _ = compile_circuit(
            circuit, model, method, {"max-time": t_gate, "tol": 1e-7, "seed": 1}
        )
        signal = program.to_signal()
        _, states = evolve_states(model, signal, np.array([1.0, 0.0], dtype=complex))
        f_closed = abs(np.vdot(excited, states[-1])) ** 2

        damped = SystemModel(
            n_qubits=1,
            dt=model.dt,
            control=model.control,
            collapse=((1.0 / (10.0 * t_gate), "SM0"),),
        )
        _, rhos = lindblad_evolve(damped, signal, np.diag([1.0, 0.0]).astype(complex))
        f_t1 = float(np.real(rhos[-1][1, 1]))

        detuned = apply_detuning(model, 0.01)
        _, states = evolve_states(detuned, signal, np.array([1.0, 0.0], dtype=complex))
        f_detuned = abs(np.vdot(excited, states[-1])) ** 2

        assert f_t1 < f_closed, method
        assert f_detuned < f_closed, method
        summary.append(f"{method} {f_closed:.4f}->{f_t1:.4f}/{f_detuned:.4f}")
    print(
        "criterion 6 PASS: fidelity closed->T1/detuned strictly drops for "
        + ", ".join(summary)
    )


def test_criterion_7_qft2_monolithic_compile(fixtures):
    t0 = time.perf_counter()
    model = load(fixtures, "model_2q_12ch.json")
    circuit = parse_circuit((fixtures / "qft2.xasm").read_text())
    program, result = compile_circuit(
        circuit, model, "GRAPE", {"max-time": 10.0, "tol": 1e-3, "seed": 7}
    )
    elapsed = time.perf_counter() - t0
    assert result.final_infidelity <= 1e-2
    assert len(program.channels) == 12

    target = circuit_unitary(circuit)
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    _, states = evolve_states(model, program.to_signal(), psi0)
    fidelity = abs(np.vdot(target @ psi0, states[-1])) ** 2
    assert fidelity >= 0.99
    assert elapsed < 60.0
    print(
        f"criterion 7 PASS: infidelity={result.final_infidelity:.2e}, "
        f"{len(program.channels)} channels, |00> state fidelity "
        f"{fidelity:.4f}, {elapsed:.1f}s"
    )


def test_criterion_8_rx_sweep_population_law(fixtures, capsys):
    code = cli_main(
        [
            "sweep",
            str(fixtures / "rx_theta.xasm"),
            str(fixtures / "model_1q_x_nodrift.json"),
            "--values",
            "0, pi/4, pi/2, 3*pi/4, pi",
            "--max-time",
            "10",
            "--tol",
            "1e-8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [
        [float(x) for x in line.split(", ")]
        for line in out.strip().split("\n")[1:]
    ]
    assert len(rows) == 5
    worst = 0.0
    for value, _, p_excited in rows:
        worst = max(worst, abs(p_excited - np.sin(value / 2.0) ** 2))
    assert worst <= 0.02
    with capsys.disabled():
        print(
            f"\ncriterion 8 PASS: max |p - sin^2(theta/2)| = {worst:.2e} "
            "over 5 angles"
        )


def test_criterion_9_serialization_round_trips(fixtures, tmp_path, capsys):
    model_names = (
        "model_1q_x.json",
        "model_1q_xy.json",
        "model_1q_x_nodrift.json",
        "model_2q_12ch.json",
    )
    for name in model_names:
        text = serialize_model(parse_model((fixtures / name).read_text()))
        assert serialize_model(parse_model(text)) == text

    circuit = parse_circuit((fixtures / "x.xasm").read_text())
    model = parse_model((fixtures / "model_1q_x_nodrift.json").read_text())
    program, _ = compile_circuit(
        circuit, model, "GRAPE", {"max-time": 10.0, "tol": 1e-6, "seed": 3}
    )
    doc = emit_program(program)
    assert emit_program(parse_program(doc)) == doc

    args = [
        "compile",
        str(fixtures / "h.xasm"),
        str(fixtures / "model_1q_xy.json"),
        "--max-time",
        "10",
        "--seed",
        "11",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(args + ["-o", str(a)]) == 0
    assert cli_main(args + ["-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    manifest_a = json.loads((tmp_path / "a.json.manifest.json").read_text())
    manifest_b = json.loads((tmp_path / "b.json.manifest.json").read_text())
    manifest_a["outputs"] = manifest_b["outputs"] = []
    assert manifest_a == manifest_b
    print(
        "criterion 9 PASS: model and pulse documents round-trip "
        "byte-identically; repeated compile reproduces output bytes"
    )
