"""Propagation engines against closed-form oracles and each other."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from optpulse import dynamics
from optpulse.dynamics import (
    _EPS,
    MAX_TAYLOR_TERMS,
    SUPEROPERATOR_BLOCK,
    ControlSignal,
    _lindblad_factors,
    _lindblad_generators,
    _lindblad_superoperators,
    _matmul,
    _norm_bound,
    _propagate,
    _stacked_hamiltonians,
    evolve_continuous,
    evolve_states,
    expectation,
    lindblad_evolve,
    ordered_products,
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


def test_signal_rejects_ragged_channels():
    with pytest.raises(DynamicsError, match="'b' has 1 samples, expected 2"):
        ControlSignal.from_samples({"a": [1.0, 2.0], "b": [1.0]}, 0.1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ControlSignal(dt=0.1, n_samples=0, samples={"dx": []}),
         "at least one sample"),
        (lambda: ControlSignal(dt=0.1, n_samples=1), "samples or envelopes"),
        (lambda: ControlSignal(dt=0.1, n_samples=1, samples={"dx": [0.1]},
                               envelopes={"dx": lambda t: 0.1}),
         "samples or envelopes"),
        (lambda: ControlSignal.from_samples({"dx": [[0.1, 0.2]]}, 0.1), "1-D array"),
        (lambda: ControlSignal.from_samples({"dx": [0.1, np.nan]}, 0.1),
         "non-finite samples"),
        (lambda: ControlSignal.from_samples({}, 0.1), "at least one channel sample"),
        (lambda: ControlSignal.from_samples({"dx": []}, 0.1),
         "at least one channel sample"),
        (lambda: ControlSignal.from_envelopes({}, duration=1.0, dt=0.1),
         "at least one envelope"),
    ],
    ids=["no-samples", "neither", "both", "2-d", "nan", "no-channel", "empty-channel",
         "no-envelope"],
)
def test_signal_constructors_reject_bad_shapes(build, message):
    with pytest.raises(DynamicsError, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: ControlSignal.from_envelopes(
            {"dx": lambda t: 0.1}, duration=float("inf"), dt=0.1
        ),
        lambda: ControlSignal.from_envelopes(
            {"dx": lambda t: 0.1}, duration=float("nan"), dt=0.1
        ),
        lambda: ControlSignal(dt=float("inf"), n_samples=1, samples={"dx": [0.1]}),
    ],
    ids=["infinite-duration", "nan-duration", "infinite-dt"],
)
def test_signal_rejects_non_finite_time_scales(build):
    with pytest.raises(DynamicsError, match="finite"):
        build()


def test_closed_engines_refuse_a_model_with_collapse_terms():
    model = SystemModel(
        n_qubits=1, dt=0.2, control=(("dx", "X0"),), collapse=((0.05, "SM0"),)
    )
    signal = ControlSignal.from_samples({"dx": [0.1] * 4}, model.dt)
    engines = (
        lambda: piecewise_propagator(model, signal),
        lambda: evolve_states(model, signal, [1.0, 0.0]),
        lambda: evolve_continuous(model, signal),
    )
    for engine in engines:
        with pytest.raises(DynamicsError, match="use lindblad_evolve"):
            engine()


def test_a_drive_without_a_quadrature_partner_must_be_real():
    # the imaginary part may be round-off of the value: 1e-12 relative,
    # absolute below 1
    model = x_model()
    cases = ((1e6 + 1e-7j, True), (0.5 + 1e-11j, False), (2 + 1e-11j, False))
    for value, accepted in cases:
        signal = ControlSignal.from_samples({"dx": [value]}, model.dt)
        if accepted:
            piecewise_propagator(model, signal)
        else:
            with pytest.raises(DynamicsError, match="imaginary parts must be zero"):
                piecewise_propagator(model, signal)
    signal = ControlSignal.from_envelopes({"dx": lambda t: 0.1 + 1e-9j}, 0.2, model.dt)
    with pytest.raises(DynamicsError, match="envelope is complex"):
        evolve_continuous(model, signal)


def test_signal_past_the_grid_limit_raises_before_any_slice_is_formed():
    # a duration / dt that overflows to inf
    with pytest.raises(DynamicsError, match="slices x d"):
        ControlSignal.from_envelopes({"dx": lambda t: 0.1}, duration=1e10, dt=1e-300)

    def envelope(t):
        raise AssertionError("the oversize grid was integrated")

    # 2^21 qubit slices fit an envelope signal, but hold twice the limit's
    # slices x d^2 on a qubit model
    model = x_model()
    signal = ControlSignal.from_envelopes(
        {"dx": envelope}, duration=2**21 * model.dt, dt=model.dt
    )
    with pytest.raises(DynamicsError, match="slices x d"):
        evolve_continuous(model, signal)


def test_matrix_exp_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        t = rng.uniform(-2, 2)
        assert np.max(np.abs(slice_propagators(h, t)[0] - expm(-1j * t * h))) < 1e-12


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
    for h, u in zip(hams, umats):
        assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
        assert np.max(np.abs(u - expm(-1j * dt * h))) <= 1e-10
    # qubits take the su(2) map, which forms no eigendecomposition
    assert (evals is None and evecs is None) == (dim == 2)
    for h, w, v in zip(hams, evals, evecs) if dim > 2 else ():
        assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10 * max(1.0, scale)
    # a single matrix takes the same path as a stack of one
    assert np.array_equal(slice_propagators(hams[0], dt)[0], umats[0])


def _random_hermitian(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return scale * (a + a.conj().T) / 2


@pytest.mark.parametrize(
    "ham",
    [
        0.7 * np.eye(2),
        np.diag([0.3, -1.2]),
        np.diag([-1.2, 0.3]),
        np.array([[0.5, 3e-310 - 2e-310j], [3e-310 + 2e-310j, -0.25]]),
        np.array([[0.5, 2e-323j], [-2e-323j, 0.5]]),
        _random_hermitian(5, 1e6),
    ],
    ids=[
        "scalar",
        "diagonal",
        "diagonal-ascending",
        "subnormal-coupling",
        "subnormal-degenerate",
        "scale-1e6",
    ],
)
def test_qubit_closed_form_matches_eigh_and_expm(ham):
    h = np.asarray(ham, dtype=complex)
    scale = max(1.0, np.max(np.abs(h)))
    dt = 0.7 / scale
    umats = slice_propagators(h[None], dt)[0]
    u = umats[0]
    eye = np.eye(2)
    w, v = np.linalg.eigh(h)
    assert np.max(np.abs(u - (v * np.exp(-1j * dt * w)) @ v.conj().T)) <= 1e-10
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
    assert np.max(np.abs(u - expm(-1j * dt * h))) <= 1e-10
    # like eigh, only the lower triangle is read
    junk = h.copy()
    junk[0, 1] = 5.0 - 3.0j
    junk[[0, 1], [0, 1]] += [2.0j, -1.0j]
    assert np.array_equal(slice_propagators(junk[None], dt)[0], umats)
    # a single matrix takes the same path as a stack of one
    assert np.array_equal(slice_propagators(h, dt)[0], u)


@pytest.mark.parametrize(
    "drift, amp",
    [
        (np.zeros((2, 2)), 1e308),
        (1e308 * np.eye(2), 0.0),
        (np.diag([1e308, -1e308]), 0.0),
    ],
    ids=["theta", "phase", "diagonal-spread"],
)
def test_qubit_slice_exponent_overflow_raises(drift, amp):
    # finite slice Hamiltonians whose theta = |h| dt or h0 dt overflows; a
    # RuntimeWarning would fail the test as an error
    ops = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
    with pytest.raises(DynamicsError, match="a slice exponent is not finite"):
        _propagate(drift.astype(complex), ops, np.full((1, 3), amp), 10.0)


def _sequential_products(umats):
    prods, acc = [], np.eye(umats.shape[-1], dtype=complex)
    for u in umats:
        acc = u @ acc
        prods.append(acc)
    return np.array(prods)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    dim=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
    c_order=st.booleans(),
)
# the recursion's edge cases: no pair, one pair, an odd one out at every
# level, and one either side of a power of two
@example(n=1, dim=2, seed=0, c_order=False)
@example(n=2, dim=4, seed=1, c_order=False)
@example(n=3, dim=2, seed=2, c_order=False)
@example(n=255, dim=8, seed=3, c_order=False)
@example(n=256, dim=2, seed=4, c_order=False)
@example(n=257, dim=4, seed=5, c_order=False)
@example(n=97, dim=2, seed=6, c_order=True)  # a qubit stack in C order
def test_ordered_products_match_the_sequential_loop(n, dim, seed, c_order):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    umats = slice_propagators((a + a.conj().swapaxes(1, 2)) / 2, 0.7)[0]
    if c_order:
        umats = np.ascontiguousarray(umats)
    before = umats.copy()
    prods = ordered_products(umats)
    assert prods.shape == umats.shape and np.array_equal(umats, before)
    assert prods.strides == umats.strides  # the input's layout
    assert np.array_equal(ordered_products(before, before), prods)  # in place
    assert np.max(np.abs(prods - _sequential_products(umats))) <= 1e-12
    defect = prods.conj().swapaxes(1, 2) @ prods - np.eye(dim)
    assert np.max(np.abs(defect)) <= 1e-12


_LAYOUTS = ("C", "F", "C[1::2]", "F[1::2]", "matrix")


def _qubit_operand(rng, n, layout):
    """An (n, 2, 2) stack, or one (2, 2) matrix, in the given layout."""
    if layout == "matrix":
        return rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    rows = 2 * n if layout.endswith("[1::2]") else n
    stack = rng.uniform(-1, 1, (rows, 2, 2)) + 1j * rng.uniform(-1, 1, (rows, 2, 2))
    stack = np.asfortranarray(stack) if layout.startswith("F") else stack
    return stack[1::2] if layout.endswith("[1::2]") else stack


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    left=st.sampled_from(_LAYOUTS),
    right=st.sampled_from(_LAYOUTS),
)
def test_qubit_matmul_matches_matmul_with_the_slice_axis_contiguous(
    n, seed, left, right
):
    rng = np.random.default_rng(seed)
    a, b = _qubit_operand(rng, n, left), _qubit_operand(rng, n, right)
    out = _matmul(a, b)
    assert out.shape == (a @ b).shape
    assert np.max(np.abs(out - a @ b)) <= 1e-14
    assert out.strides[0] == out.itemsize


@pytest.mark.parametrize("c_order", [False, True], ids=["slice-contiguous", "C"])
def test_qubit_stacks_keep_the_slice_axis_contiguous(c_order):
    rng = np.random.default_rng(4)
    ops = np.array([X, build_operator("Y0", 1)])
    amps = rng.uniform(-1, 1, (2, 50))
    hams = _stacked_hamiltonians(0.3 * Z, ops, amps)
    direct = 0.3 * Z + np.einsum("cn,cij->nij", amps, ops)
    assert np.max(np.abs(hams - direct)) <= 1e-15
    assert hams.strides[0] == hams.itemsize
    if c_order:
        hams = np.ascontiguousarray(hams)
    umats, evals, evecs = slice_propagators(hams, 0.1)
    assert umats.strides[0] == umats.itemsize
    assert evals is None and evecs is None
    fwd = _propagate(0.3 * Z, ops, amps, 0.1).fwd
    assert fwd.shape == (51, 2, 2) and fwd.strides[0] == fwd.itemsize
    # larger stacks stay in C order for eigh and BLAS
    big = np.kron(np.eye(2), 0.3 * Z)
    wide = np.array([np.kron(op, np.eye(2)) for op in ops])
    assert _propagate(big, wide, amps, 0.1).fwd.flags.c_contiguous


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


def test_continuous_engine_stops_at_a_non_finite_result():
    # step halving cannot mend NaN: one integration at the start step, dt/10
    calls = []

    def envelope(t):
        calls.append(t)
        return float("nan")

    sig = ControlSignal.from_envelopes({"dx": envelope}, duration=1.0, dt=0.1)
    with pytest.raises(DynamicsError, match="non-finite"):
        evolve_continuous(x_model(dt=0.1), sig)
    assert len(calls) == 3 * 100  # three RK3 stages per step


def test_continuous_engine_raises_at_the_step_floor(monkeypatch):
    # three X slices at 5.0 with dt 1.0: ten RK3 steps per slice leave a
    # unitarity defect of 0.13, and no halving is allowed
    monkeypatch.setattr(dynamics, "MAX_STEP_HALVINGS", 0)
    sig = ControlSignal.from_samples({"dx": [5.0] * 3}, dt=1.0)
    with pytest.raises(
        DynamicsError, match=r"step floor reached; unitarity defect 1\.3\d\de-01 > 1\.0e-09"
    ):
        evolve_continuous(x_model(dt=1.0), sig)


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


def _sequential_states(model, signal, psi0):
    """The per-slice loop evolve_states replaced: psi <- U_n psi."""
    amps = np.array([signal.samples[ch].real for ch in model.channels])
    hams = model.drift_matrix() + np.einsum("cn,cij->nij", amps, model.control_stack)
    states, psi = [psi0], psi0
    for u in slice_propagators(hams, signal.dt)[0]:
        psi = u @ psi
        states.append(psi)
    return states


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    dim=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, dim=2, seed=0)
@example(n=2, dim=4, seed=1)
@example(n=97, dim=8, seed=2)  # prime: the last block is mostly padding
@example(n=300, dim=2, seed=3)
def test_evolve_states_match_the_sequential_loop(n, dim, seed):
    rng = np.random.default_rng(seed)
    n_qubits = dim.bit_length() - 1
    drift = tuple((rng.uniform(-1, 1), f"Z{q}") for q in range(n_qubits))
    if n_qubits > 1:
        drift += ((rng.uniform(-1, 1), "X0*X1"),)
    control = tuple(
        (f"d{p}{q}", f"{p}{q}") for q in range(n_qubits) for p in "XY"
    )
    model = SystemModel(n_qubits=n_qubits, dt=0.3, drift=drift, control=control)
    samples = {ch: rng.uniform(-0.5, 0.5, n) for ch in model.channels}
    sig = ControlSignal.from_samples(samples, model.dt)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    before = psi0.copy()
    times, states = evolve_states(model, sig, psi0)
    assert np.array_equal(psi0, before) and states[0] is not psi0
    assert np.array_equal(states[0], psi0)
    assert np.array_equal(times, np.arange(n + 1) * model.dt)
    reference = _sequential_states(model, sig, psi0)
    assert len(states) == len(reference) == n + 1
    assert np.max(np.abs(np.array(states) - np.array(reference))) <= 1e-12


def test_evolve_states_rejects_unnormalized_input():
    model = x_model()
    sig = ControlSignal.from_samples({"dx": np.zeros(5)}, model.dt)
    with pytest.raises(DynamicsError):
        evolve_states(model, sig, np.array([1.0, 1.0]))


def test_evolve_states_rejects_a_non_finite_state():
    # NaN fails the norm comparison, so only a finiteness check catches it
    model = x_model()
    sig = ControlSignal.from_samples({"dx": np.zeros(5)}, model.dt)
    with pytest.raises(DynamicsError, match="non-finite"):
        evolve_states(model, sig, np.array([np.nan, 0.0]))


def test_signal_channel_must_exist_in_model():
    model = x_model()
    sig = ControlSignal.from_samples({"nope": np.zeros(5)}, model.dt)
    with pytest.raises(DynamicsError):
        piecewise_propagator(model, sig)


def test_signal_dt_must_match_model():
    model = x_model(dt=0.2)
    sig = ControlSignal.from_samples({"dx": np.zeros(5)}, 0.1)
    with pytest.raises(DynamicsError, match="signal dt=0.1 does not match model dt=0.2"):
        piecewise_propagator(model, sig)


def test_sampled_engines_refuse_an_analytic_signal():
    sig = ControlSignal.from_envelopes({"dx": lambda t: 0.1}, duration=1.0, dt=0.2)
    with pytest.raises(DynamicsError, match="needs a sampled signal"):
        piecewise_propagator(x_model(dt=0.2), sig)


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


PAULI_TERMS = {
    1: ["X0", "Y0", "Z0"],
    2: ["X0", "Y1", "Z0", "Z1", "X0*X1", "Y0*Z1"],
    3: ["X0", "Y1", "Z2", "Z0*Z1", "X1*X2", "Y0*Z2"],
}
JUMP_TERMS = {
    1: ["SM0", "SP0", "Z0", "X0"],
    2: ["SM0", "SM1", "SP1", "Z0", "SM0*SM1"],
    3: ["SM0", "SM1", "SM2", "SP2", "Z1", "SM0*SM2"],
}


def random_open_system(rng, n_qubits, n_jumps, n_slices, dt):
    """A damped model with a random drive, its signal and a random rho0."""
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
    dim = model.dim
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = a @ a.conj().T
    return model, ControlSignal.from_samples(samples, dt), rho0 / np.trace(rho0)


@settings(max_examples=40, deadline=None)
@given(
    n_qubits=st.sampled_from([1, 2, 3]),
    n_jumps=st.integers(1, 4),
    n_slices=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(0.01, 0.5),
)
@example(n_qubits=1, n_jumps=1, n_slices=2, seed=0, dt=0.3)
@example(n_qubits=3, n_jumps=4, n_slices=3, seed=1, dt=0.4)
def test_lindblad_matches_dense_liouvillian_exponential(
    n_qubits, n_jumps, n_slices, seed, dt
):
    rng = np.random.default_rng(seed)
    model, sig, rho0 = random_open_system(rng, n_qubits, n_jumps, n_slices, dt)
    samples, dim = sig.samples, model.dim
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


@settings(max_examples=40, deadline=None)
@given(
    n_qubits=st.sampled_from([1, 2]),
    n_jumps=st.integers(0, 4),
    n_slices=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(0.01, 0.5),
)
# more slices than one superoperator block holds, at d = 2 and at d = 4
@example(n_qubits=1, n_jumps=2, n_slices=SUPEROPERATOR_BLOCK + 45, seed=2, dt=0.2)
@example(n_qubits=2, n_jumps=3, n_slices=SUPEROPERATOR_BLOCK + 1, seed=3, dt=0.1)
def test_stacked_superoperators_match_the_factor_form(
    n_qubits, n_jumps, n_slices, seed, dt
):
    rng = np.random.default_rng(seed)
    model, sig, rho0 = random_open_system(rng, n_qubits, n_jumps, n_slices, dt)
    gens, jumps, substeps = _lindblad_generators(model, sig)
    stacked = _lindblad_superoperators(gens, jumps, substeps, dt, rho0)
    factored = _lindblad_factors(gens, jumps, substeps, dt, rho0)
    assert len(stacked) == len(factored) == n_slices + 1
    for rho, ref in zip(stacked, factored):
        assert np.max(np.abs(rho - ref)) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_lindblad_rejects_envelope_signal():
    model = x_model()
    sig = ControlSignal.from_envelopes({"dx": lambda t: 0.1}, duration=1.0, dt=model.dt)
    with pytest.raises(DynamicsError, match="sampled"):
        lindblad_evolve(model, sig, np.array([1.0, 0.0]))


def damped_drive(n_qubits, dt, amplitude, n_slices):
    """An X0 drive of one amplitude on an n-qubit model with decay on qubit 0."""
    model = SystemModel(
        n_qubits=n_qubits, dt=dt, control=(("dx", "X0"),), collapse=((0.1, "SM0"),)
    )
    signal = ControlSignal.from_samples({"dx": np.full(n_slices, amplitude)}, dt)
    return model, signal, np.eye(model.dim)[0]


def test_lindblad_fails_fast_on_pathological_amplitude():
    model, sig, ground = damped_drive(1, 0.2, 1e7, 50)
    start = time.perf_counter()
    with pytest.raises(DynamicsError, match="substeps"):
        lindblad_evolve(model, sig, ground)
    assert time.perf_counter() - start < 1.0


def test_two_qubit_lindblad_fails_fast_on_pathological_amplitude():
    model, sig, ground = damped_drive(2, 0.2, 1e7, 50)
    start = time.perf_counter()
    with pytest.raises(DynamicsError, match="substeps"):
        lindblad_evolve(model, sig, ground)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "rho0, message",
    [
        (np.diag([0.5, 0.25]), "rho0 must have unit trace"),
        (np.array([[0.5, 0.2], [0.1, 0.5]]), "rho0 must be Hermitian"),
    ],
    ids=["trace", "hermitian"],
)
def test_lindblad_rejects_an_invalid_rho0(rho0, message):
    model, sig, _ = damped_drive(1, 0.1, 0.5, 3)
    with pytest.raises(DynamicsError, match=message):
        lindblad_evolve(model, sig, rho0)


def test_lindblad_rejects_an_overflowing_substep_count():
    # the norm bound overflows to inf, which has no integer substep count
    model, sig, ground = damped_drive(1, 0.1, 1e200, 3)
    with pytest.raises(DynamicsError, match="substeps"):
        lindblad_evolve(model, sig, ground)


def test_two_qubit_lindblad_rejects_an_overflowing_substep_count():
    model, sig, ground = damped_drive(2, 0.1, 1e200, 3)
    with pytest.raises(DynamicsError, match="substeps"):
        lindblad_evolve(model, sig, ground)


def dt_for_substeps(model, samples, substeps, side):
    """A dt that puts the largest slice's bound * dt just below (side -1) or
    just above (+1) ``substeps``; the bound does not depend on dt."""
    sig = ControlSignal.from_samples(samples, model.dt)
    gens, jumps, _ = _lindblad_generators(model, sig)
    bound = 2.0 * _norm_bound(gens) + np.sum(_norm_bound(jumps) ** 2)
    return substeps * (1.0 + side * 1e-9) / np.max(bound)


def decaying_chain(n_qubits, dt):
    """ZZ chain, X and Y drives and decay on every qubit."""
    return SystemModel(
        n_qubits=n_qubits,
        dt=dt,
        drift=tuple((0.5, f"Z{q}*Z{q + 1}") for q in range(n_qubits - 1)),
        control=tuple(
            (f"d{a}{q}", f"{a.upper()}{q}") for q in range(n_qubits) for a in "xy"
        ),
        collapse=tuple((0.05 * (q + 1), f"SM{q}") for q in range(n_qubits)),
    )


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
@pytest.mark.parametrize("substeps", [1, 2, 3])
@pytest.mark.parametrize("n_qubits", [3, 4])
def test_factor_kernel_substeps_match_dense_liouvillian_exponential(
    monkeypatch, n_qubits, substeps, side
):
    rng = np.random.default_rng(n_qubits)
    model = decaying_chain(n_qubits, 1.0)
    samples = {ch: rng.uniform(-1, 1, 3) for ch in model.channels}
    dt = dt_for_substeps(model, samples, substeps, side)
    model = decaying_chain(n_qubits, dt)
    sig = ControlSignal.from_samples(samples, dt)
    counts = _lindblad_generators(model, sig)[2]
    assert counts.max() == substeps + (side > 0)
    # every substep's series: the squared norms np.vdot gives, rho's first
    norms, series, vdot = [], [], np.vdot
    substep = dynamics._lindblad_substep

    def recording_vdot(a, b):
        norms.append(vdot(a, b).real)
        return norms[-1]

    def recorded_substep(*args):
        norms.clear()
        rho = substep(*args)
        series.append(list(norms))
        return rho

    monkeypatch.setattr(np, "vdot", recording_vdot)
    monkeypatch.setattr(dynamics, "_lindblad_substep", recorded_substep)
    _, rhos = lindblad_evolve(model, sig, np.eye(model.dim)[0])
    monkeypatch.undo()
    assert len(series) == counts.sum()
    for rho_norm, *terms in series:
        # stopped on its round-off floor, before the cap
        assert len(terms) < MAX_TAYLOR_TERMS
        assert terms[-1] <= _EPS**2 * rho_norm < min(terms[:-1])
    drift, controls = model.drift_matrix(), model.control_matrices()
    vec = np.eye(model.dim**2)[0]  # |0><0|, column-stacked
    for n, rho in enumerate(rhos[1:]):
        ham = drift + sum(samples[ch][n] * controls[ch] for ch in model.channels)
        vec = expm(liouvillian(ham, model.collapse_terms()) * dt) @ vec
        assert np.max(np.abs(rho - vec.reshape(model.dim, -1, order="F"))) <= 1e-12


@pytest.mark.parametrize("n_qubits", [1, 3])
def test_lindblad_guard_takes_512_substeps_of_norm_one_and_no_more(n_qubits):
    # a slice takes at most 512 substeps of norm 1: bound * dt <= 512
    model, sig, _ = damped_drive(n_qubits, 1.0, 2.0, 1)
    under = dt_for_substeps(model, sig.samples, 512, -1)
    over = dt_for_substeps(model, sig.samples, 512, 1)
    model, sig, ground = damped_drive(n_qubits, under, 2.0, 1)
    assert _lindblad_generators(model, sig)[2].tolist() == [512]
    _, rhos = lindblad_evolve(model, sig, ground)
    ham = 2.0 * model.control_matrices()["dx"]
    sup = liouvillian(ham, model.collapse_terms()) * under
    exact = (expm(sup) @ np.eye(model.dim**2)[0]).reshape(model.dim, -1, order="F")
    assert np.max(np.abs(rhos[-1] - exact)) <= 1e-10
    model, sig, ground = damped_drive(n_qubits, over, 2.0, 1)
    with pytest.raises(DynamicsError, match="needs 513 Lindblad substeps"):
        lindblad_evolve(model, sig, ground)


@pytest.mark.parametrize("n_qubits", [1, 3])
def test_lindblad_takes_a_finite_bound_above_half_the_float_range(n_qubits):
    # bound 1e308 and dt 1e-306 need 100 substeps; the count must come from
    # bound * dt, since twice the bound overflows
    model, sig, ground = damped_drive(n_qubits, 1e-306, 5e307, 1)
    assert _lindblad_generators(model, sig)[2].tolist() == [100]
    _, rhos = lindblad_evolve(model, sig, ground)
    # exp(-i a dt X0) with a dt = 50; the decay is negligible over 1e-306
    assert abs(rhos[-1][0, 0] - np.cos(50.0) ** 2) <= 1e-12


@pytest.mark.parametrize(
    "rho0",
    [np.array([np.nan, 0.0]), np.diag([np.nan, 0.0])],
    ids=["vector", "density-matrix"],
)
def test_lindblad_rejects_a_non_finite_rho0(rho0):
    model = x_model()
    sig = ControlSignal.from_samples({"dx": np.zeros(4)}, model.dt)
    with pytest.raises(DynamicsError, match="non-finite"):
        lindblad_evolve(model, sig, rho0)


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


@pytest.mark.parametrize("entry", [np.inf, np.nan, complex(0, np.nan)])
def test_expectation_rejects_non_finite_observables(entry):
    op = Z.copy()
    op[0, 0] = entry
    for state in (np.array([1.0, 0.0]), np.diag([0.25, 0.75])):
        with pytest.raises(DynamicsError, match="non-finite"):
            expectation(op, state)
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = build_operator("1e200*1e200*Z0", 1)
    with pytest.raises(DynamicsError, match="non-finite"):
        expectation(overflowed, np.array([1.0, 0.0]))


def test_expectation_of_a_non_finite_state_has_no_real_value():
    with pytest.raises(DynamicsError, match="imaginary residual nan"):
        expectation(Z, np.array([np.nan, 0.0]))


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
