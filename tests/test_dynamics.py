"""Propagation engines against closed-form oracles and each other."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from optpulse.dynamics import (
    ControlSignal,
    evolve_continuous,
    evolve_states,
    expectation,
    lindblad_evolve,
    matrix_exp_hermitian_skew,
    piecewise_propagator,
    slice_propagators,
    trajectory_csv,
)
from optpulse.errors import DynamicsError
from optpulse.model import SystemModel, build_operator

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)


def x_model(dt=0.2, drift=0.0):
    driftspec = ((drift, "Z0"),) if drift else ()
    return SystemModel(n_qubits=1, dt=dt, drift=driftspec, control=(("dx", "X0"),))


def random_model_and_signal(rng, n_samples=25):
    model = SystemModel(
        n_qubits=1,
        dt=rng.uniform(0.05, 0.3),
        drift=((rng.uniform(-1, 1), "Z0"),),
        control=(("dx", "X0"), ("dy", "Y0")),
    )
    samples = {
        "dx": rng.uniform(-0.5, 0.5, n_samples),
        "dy": rng.uniform(-0.5, 0.5, n_samples),
    }
    return model, ControlSignal.from_samples(samples, model.dt)


# ---------------------------------------------------------------- signals


def test_signal_holds_value_constant_over_each_slice():
    sig = ControlSignal.from_samples({"dx": [1.0, 2.0, 3.0]}, 0.5)
    assert sig.value("dx", 0.0) == 1.0
    assert sig.value("dx", 0.49) == 1.0
    assert sig.value("dx", 0.5) == 2.0
    assert sig.value("dx", 1.49) == 3.0
    # outside the signal the drive is off
    assert sig.value("dx", 10.0) == 0.0


def test_signal_rejects_ragged_channels():
    with pytest.raises(DynamicsError):
        ControlSignal.from_samples({"a": [1.0, 2.0], "b": [1.0]}, 0.1)


def test_matrix_exp_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        t = rng.uniform(-2, 2)
        assert np.max(np.abs(matrix_exp_hermitian_skew(h, t) - expm(-1j * t * h))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 4, 8, 16]),
    n_slices=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 5.0),
    dt=st.floats(1e-3, 2.0),
)
def test_slice_propagators_unitary_and_exact(dim, n_slices, seed, scale, dt):
    rng = np.random.default_rng(seed)
    shape = (n_slices, dim, dim)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    hams = scale * (a + a.conj().swapaxes(1, 2)) / 2
    umats, evals, evecs = slice_propagators(hams, dt)
    eye = np.eye(dim)
    for h, u, w, v in zip(hams, umats, evals, evecs):
        assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
        assert np.max(np.abs(u - expm(-1j * dt * h))) <= 1e-10
        assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10 * max(1.0, scale)
    # a single matrix takes the same path as a stack of one
    assert np.array_equal(slice_propagators(hams[0], dt)[0], umats[0])


# ------------------------------------------------------------ closed system


def test_constant_drive_matches_rabi_formula():
    # H = omega X, U(T) = exp(-i omega T X): p1(T) = sin^2(omega T)
    omega, dt, n = 0.3, 0.1, 40
    model = x_model(dt=dt)
    sig = ControlSignal.from_samples({"dx": np.full(n, omega)}, dt)
    u = piecewise_propagator(model, sig)
    p1 = abs(u[1, 0]) ** 2
    assert p1 == pytest.approx(np.sin(omega * dt * n) ** 2, abs=1e-12)


def test_piecewise_propagator_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model, sig = random_model_and_signal(rng)
        u = piecewise_propagator(model, sig)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-9


def test_rk3_engine_agrees_with_piecewise_on_sampled_input():
    rng = np.random.default_rng(11)
    for _ in range(5):
        model, sig = random_model_and_signal(rng)
        u_exact = piecewise_propagator(model, sig)
        u_rk3 = evolve_continuous(model, sig)
        assert np.max(np.abs(u_exact - u_rk3)) <= 1e-7


def test_continuous_engine_matches_pulse_area_on_commuting_drive():
    # X-only Hamiltonian commutes with itself at all times, so
    # U = exp(-i A X) with A the envelope area; p1 = sin^2(A).
    model = x_model(dt=0.1)
    def env(t):
        return 0.4 * np.exp(-((t - 5.0) ** 2) / (2.0 * 1.5**2))
    sig = ControlSignal.from_envelopes({"dx": env}, duration=10.0, dt=0.1)
    u = evolve_continuous(model, sig)
    from scipy.integrate import quad
    area, _ = quad(env, 0.0, 10.0, epsabs=1e-13, epsrel=1e-13)
    assert abs(abs(u[1, 0]) ** 2 - np.sin(area) ** 2) <= 1e-8


def test_evolve_states_returns_normalized_trajectory():
    model = x_model()
    sig = ControlSignal.from_samples({"dx": np.full(25, 0.2)}, model.dt)
    times, states = evolve_states(model, sig, np.array([1.0, 0.0]))
    assert len(times) == 26 and len(states) == 26
    norms = [np.linalg.norm(s) for s in states]
    assert np.allclose(norms, 1.0, atol=1e-12)
    # matches the one-shot propagator
    u = piecewise_propagator(model, sig)
    assert np.allclose(states[-1], u @ np.array([1.0, 0.0]), atol=1e-12)


def test_evolve_states_rejects_unnormalized_input():
    model = x_model()
    sig = ControlSignal.from_samples({"dx": np.zeros(5)}, model.dt)
    with pytest.raises(DynamicsError):
        evolve_states(model, sig, np.array([1.0, 1.0]))


def test_signal_channel_must_exist_in_model():
    model = x_model()
    sig = ControlSignal.from_samples({"nope": np.zeros(5)}, model.dt)
    with pytest.raises(DynamicsError):
        piecewise_propagator(model, sig)


def test_signal_dt_must_match_model():
    model = x_model(dt=0.2)
    sig = ControlSignal.from_samples({"dx": np.zeros(5)}, 0.1)
    with pytest.raises(DynamicsError):
        piecewise_propagator(model, sig)


def test_every_sampled_engine_checks_signal_dt():
    closed = x_model(dt=0.2)
    open_model = SystemModel(
        n_qubits=1, dt=0.2, control=(("dx", "X0"),), collapse=((0.1, "SM0"),)
    )
    sig = ControlSignal.from_samples({"dx": [0.3] * 5}, 0.1)
    with pytest.raises(DynamicsError, match="dt"):
        evolve_states(closed, sig, np.array([1.0, 0.0]))
    with pytest.raises(DynamicsError, match="dt"):
        lindblad_evolve(open_model, sig, np.array([1.0, 0.0]))


# -------------------------------------------------------------- open system


def test_undriven_t1_decay_matches_exponential():
    t1 = 3.0
    model = SystemModel(
        n_qubits=1,
        dt=0.25,
        control=(("dx", "X0"),),
        collapse=((1.0 / t1, "SM0"),),
    )
    sig = ControlSignal.from_samples({"dx": np.zeros(20)}, model.dt)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    times, rhos = lindblad_evolve(model, sig, rho1)
    for t, rho in zip(times, rhos):
        assert abs(rho[1, 1].real - np.exp(-t / t1)) <= 1e-6


def test_pure_dephasing_kills_coherence_at_known_rate():
    # L = sqrt(gamma) Z: d rho01/dt = -2 gamma rho01
    gamma = 0.35
    model = SystemModel(
        n_qubits=1, dt=0.2, control=(("dx", "X0"),), collapse=((gamma, "Z0"),)
    )
    sig = ControlSignal.from_samples({"dx": np.zeros(15)}, model.dt)
    plus = np.full((2, 2), 0.5, dtype=complex)
    times, rhos = lindblad_evolve(model, sig, plus)
    for t, rho in zip(times, rhos):
        assert abs(rho[0, 1].real - 0.5 * np.exp(-2.0 * gamma * t)) <= 1e-6


def test_driven_lindblad_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    model = SystemModel(
        n_qubits=1,
        dt=0.2,
        drift=((0.7, "Z0"),),
        control=(("dx", "X0"),),
        collapse=((0.05, "SM0"),),
    )
    sig = ControlSignal.from_samples({"dx": rng.uniform(-0.5, 0.5, 30)}, model.dt)
    _, rhos = lindblad_evolve(model, sig, np.diag([1.0, 0.0]).astype(complex))
    for rho in rhos:
        assert abs(np.trace(rho).real - 1.0) <= 1e-7
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9


def test_lindblad_with_no_collapse_matches_unitary_evolution():
    model = x_model(dt=0.2, drift=0.5)
    samples = np.linspace(0.1, 0.4, 20)
    sig = ControlSignal.from_samples({"dx": samples}, model.dt)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    _, rhos = lindblad_evolve(model, sig, np.outer(psi0, psi0))
    _, states = evolve_states(model, sig, psi0)
    rho_exact = np.outer(states[-1], states[-1].conj())
    assert np.max(np.abs(rhos[-1] - rho_exact)) <= 1e-7


def liouvillian(ham, jumps):
    """Dense column-stacking superoperator: vec(A r B) = (B^T kron A) vec(r)."""
    eye = np.eye(len(ham))
    sup = -1j * (np.kron(eye, ham) - np.kron(ham.T, eye))
    for rate, op in jumps:
        l2 = op.conj().T @ op
        sup += rate * (
            np.kron(op.conj(), op) - 0.5 * np.kron(eye, l2) - 0.5 * np.kron(l2.T, eye)
        )
    return sup


PAULI_TERMS = {1: ["X0", "Y0", "Z0"], 2: ["X0", "Y1", "Z0", "Z1", "X0*X1", "Y0*Z1"]}
JUMP_TERMS = {1: ["SM0", "SP0", "Z0", "X0"], 2: ["SM0", "SM1", "SP1", "Z0", "SM0*SM1"]}


@settings(max_examples=40, deadline=None)
@given(
    n_qubits=st.sampled_from([1, 2]),
    n_jumps=st.integers(1, 3),
    n_slices=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(0.01, 0.5),
)
def test_lindblad_matches_dense_liouvillian_exponential(
    n_qubits, n_jumps, n_slices, seed, dt
):
    rng = np.random.default_rng(seed)
    terms, jump_terms = PAULI_TERMS[n_qubits], JUMP_TERMS[n_qubits]
    model = SystemModel(
        n_qubits=n_qubits,
        dt=dt,
        drift=tuple((rng.uniform(-2, 2), op) for op in rng.choice(terms, 2)),
        control=tuple((f"d{i}", op) for i, op in enumerate(rng.choice(terms, 2))),
        collapse=tuple(
            (rng.uniform(0.01, 2.0), op) for op in rng.choice(jump_terms, n_jumps)
        ),
    )
    samples = {ch: rng.uniform(-3, 3, n_slices) for ch in model.channels}
    sig = ControlSignal.from_samples(samples, dt)
    dim = model.dim
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    times, rhos = lindblad_evolve(model, sig, rho0)
    assert len(rhos) == n_slices + 1
    assert np.allclose(times, np.arange(n_slices + 1) * dt)
    drift, controls = model.drift_matrix(), model.control_matrices()
    vec = rho0.reshape(-1, order="F")
    for n, rho in enumerate(rhos[1:]):
        ham = drift + sum(samples[ch][n] * controls[ch] for ch in model.channels)
        vec = expm(liouvillian(ham, model.collapse_terms()) * dt) @ vec
        assert np.max(np.abs(rho - vec.reshape(dim, dim, order="F"))) <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_lindblad_duration_past_the_signal_leaves_the_drive_off():
    model = SystemModel(
        n_qubits=1, dt=0.2, drift=((0.3, "Z0"),), control=(("dx", "X0"),),
        collapse=((0.2, "SM0"),),
    )
    drive = np.linspace(0.2, 0.6, 5)
    sig = ControlSignal.from_samples({"dx": drive}, model.dt)
    padded = ControlSignal.from_samples({"dx": np.r_[drive, 0.0, 0.0, 0.0]}, model.dt)
    plus = np.full((2, 2), 0.5, dtype=complex)
    _, longer = lindblad_evolve(model, sig, plus, duration=8 * model.dt)
    _, shorter = lindblad_evolve(model, sig, plus, duration=3 * model.dt)
    _, reference = lindblad_evolve(model, padded, plus)
    assert len(longer) == 9 and len(shorter) == 4
    for a, b in zip(longer + shorter, reference + reference[:4]):
        assert np.array_equal(a, b)


def test_lindblad_rejects_envelope_signal():
    model = x_model()
    sig = ControlSignal.from_envelopes({"dx": lambda t: 0.1}, duration=1.0, dt=model.dt)
    with pytest.raises(DynamicsError, match="sampled"):
        lindblad_evolve(model, sig, np.array([1.0, 0.0]))


def test_lindblad_fails_fast_on_pathological_amplitude():
    model = SystemModel(
        n_qubits=1, dt=0.2, control=(("dx", "X0"),), collapse=((0.1, "SM0"),)
    )
    sig = ControlSignal.from_samples({"dx": np.full(50, 1e7)}, model.dt)
    start = time.perf_counter()
    with pytest.raises(DynamicsError, match="substeps"):
        lindblad_evolve(model, sig, np.array([1.0, 0.0]))
    assert time.perf_counter() - start < 1.0


def test_accepts_state_vector_as_rho0():
    model = x_model()
    sig = ControlSignal.from_samples({"dx": np.zeros(4)}, model.dt)
    _, rhos = lindblad_evolve(model, sig, np.array([1.0, 0.0]))
    assert rhos[0].shape == (2, 2)


# ------------------------------------------------------------- observables


def test_expectation_on_vector_and_density_matrix():
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    assert expectation(X, psi) == pytest.approx(1.0)
    assert expectation(Z, psi) == pytest.approx(0.0)
    assert expectation(Z, np.diag([0.25, 0.75])) == pytest.approx(-0.5)


def test_expectation_rejects_non_hermitian_observable():
    with pytest.raises(DynamicsError):
        expectation(np.array([[0, 1], [0, 0]], dtype=complex), np.array([1.0, 0.0]))


def test_trajectory_csv_layout():
    times = np.array([0.0, 0.5])
    states = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    text = trajectory_csv(times, states, 1)
    lines = text.strip().split("\n")
    assert lines[0] == "t, <X0>, <Y0>, <Z0>, p_excited"
    assert lines[1].split(", ") == ["0", "0", "0", "1", "0"]
    assert lines[2].split(", ") == ["0.5", "0", "0", "-1", "1"]


def test_trajectory_csv_extra_observables_and_two_qubits():
    times = np.array([0.0])
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    text = trajectory_csv(times, [psi], 2, extra={"Z0*Z1": build_operator("Z0*Z1", 2)})
    header = text.split("\n")[0]
    assert header == (
        "t, <X0>, <Y0>, <Z0>, p_excited, <X1>, <Y1>, <Z1>, p_excited1, Z0*Z1"
    )
    assert text.split("\n")[1].endswith(", 1")


def per_state_rows(times, states, n_qubits, extra):
    """The per-state, per-operator loop that trajectory_csv replaces."""

    def value(op, s):
        return complex(s.conj() @ op @ s if s.ndim == 1 else np.trace(op @ s)).real

    rows = []
    for t, state in zip(times, states):
        row = [t]
        for q in range(n_qubits):
            x, y, z = (value(build_operator(f"{p}{q}", n_qubits), state) for p in "XYZ")
            row += [x, y, z, (1.0 - z) / 2.0]
        row += [value(op, state) for op in extra.values()]
        rows.append(", ".join(f"{v + 0.0:.12g}" for v in row))
    return rows


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["ket", "rho"])
def test_trajectory_csv_digits_match_per_state_expectations(n_qubits, kind):
    rng = np.random.default_rng(n_qubits)
    dim = 1 << n_qubits
    kets = rng.normal(size=(12, dim)) + 1j * rng.normal(size=(12, dim))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    states = list(kets)
    if kind == "rho":
        mixed = rng.uniform(0.0, 1.0, 12)
        states = [w * np.outer(k, k.conj()) + (1 - w) * np.eye(dim) / dim
                  for w, k in zip(mixed, kets)]
    times = np.arange(12) * 0.1
    label = "Z0*X1" if n_qubits > 1 else "X0"
    extra = {label: build_operator(label, n_qubits)}
    lines = trajectory_csv(times, states, n_qubits, extra).split("\n")
    assert lines[1:-1] == per_state_rows(times, states, n_qubits, extra)


def test_trajectory_csv_rejects_bad_observables_and_states():
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    with pytest.raises(DynamicsError, match="Hermitian"):
        trajectory_csv([0.0], [psi], 1, extra={"SM0": build_operator("SM0", 1)})
    with pytest.raises(DynamicsError, match="imaginary residual"):
        trajectory_csv([0.0], [np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)], 1)
    with pytest.raises(DynamicsError, match="does not fit"):
        trajectory_csv([0.0], [np.ones(4) / 2], 1)
