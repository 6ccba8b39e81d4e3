"""GRAPE, GOAT, and Krotov against finite differences and each other."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optpulse.circuits import circuit_unitary, parse_circuit
from optpulse.dynamics import (
    ControlSignal,
    _propagate,
    _stacked_hamiltonians,
    evolve_continuous,
    piecewise_propagator,
    slice_propagators,
)
from optpulse.errors import DynamicsError, OptimizationError
from optpulse.model import SystemModel, load_model
from optpulse.optimize import (
    ControlProblem,
    GaussianTerm,
    GoatEnvelopeSpec,
    get_optimizer,
    goat_optimize,
    grape_gradient,
    grape_optimize,
    infidelity,
    krotov_optimize,
)
from optpulse.optimize import goat as goat_module
from optpulse.optimize import krotov as krotov_module
from optpulse.optimize import problem as problem_module
from optpulse.optimize.grape import _objective as grape_objective
from optpulse.optimize.goat import (
    SUBSTEPS,
    _cf4_objective,
    default_envelope_spec,
    parse_control_func,
)
from optpulse.optimize.problem import (
    SU2_SERIES_BELOW,
    _gradient_from_state,
    _trace_loss,
    clip_amplitudes,
    initial_amplitudes,
    minimize,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def x_problem(**kw):
    model = SystemModel(n_qubits=1, dt=0.2, control=(("dx", "X0"),))
    defaults = dict(model=model, target_u=X, max_time=10.0)
    defaults.update(kw)
    return ControlProblem(**defaults)


def h_problem(**kw):
    model = SystemModel(
        n_qubits=1,
        dt=0.2,
        drift=((1.0, "Z0"),),
        control=(("dx", "X0"), ("dy", "Y0")),
    )
    defaults = dict(model=model, target_u=H, max_time=10.0)
    defaults.update(kw)
    return ControlProblem(**defaults)


def random_problem(rng, n_channels=2, n_samples=8, n_qubits=1):
    # X on every qubit first, then Y, then Z; neighbours coupled by ZZ
    ops = [f"{p}{q}" for p in "XYZ" for q in range(n_qubits)]
    dt = rng.uniform(0.05, 0.3)
    drift = tuple((rng.uniform(-1, 1), f"Z{q}") for q in range(n_qubits))
    model = SystemModel(
        n_qubits=n_qubits,
        dt=dt,
        drift=drift + tuple((0.4, f"Z{q}*Z{q + 1}") for q in range(n_qubits - 1)),
        control=tuple((f"c{i}", ops[i]) for i in range(n_channels)),
    )
    # random unitary target via QR
    d = 2**n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return ControlProblem(model=model, target_u=q, max_time=n_samples * model.dt)


# -------------------------------------------------------- problem plumbing


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_infidelity_rejects_a_non_finite_propagator_or_target(entry):
    junk = np.full((2, 2), entry, dtype=complex)
    for u, target in ((np.eye(2), junk), (junk, np.eye(2))):
        with pytest.raises(OptimizationError, match="not unitary"):
            infidelity(u, target)
    with pytest.raises(OptimizationError, match="not unitary"):
        x_problem(target_u=junk)


def test_infidelity_identities():
    assert infidelity(X, X) == pytest.approx(0.0, abs=1e-15)
    assert infidelity(np.exp(0.7j) * X, X) == pytest.approx(0.0, abs=1e-12)
    assert infidelity(X, np.eye(2)) == pytest.approx(1.0)  # traceless overlap


def test_problem_rejects_non_unitary_target():
    with pytest.raises(OptimizationError):
        x_problem(target_u=np.array([[1.0, 0.0], [0.0, 2.0]]))


@pytest.mark.parametrize("bound", [-0.1, float("nan")])
def test_problem_rejects_a_negative_or_nan_amplitude_bound(bound):
    # NaN would pass every bound test and leave the amplitudes unbounded
    with pytest.raises(OptimizationError, match="amplitude-bound must be >= 0"):
        x_problem(amplitude_bound=bound)


def test_problem_rejects_bad_horizon():
    with pytest.raises(OptimizationError):
        x_problem(max_time=10.1)  # 10.1 / 0.2 = 50.5


@pytest.mark.parametrize(
    "duration, n",
    [
        (10.1, None),  # 50.5 slices
        (0.05, None),  # rounds to no slice at all
        (10.0 + 0.9e-8, 50),  # within 1e-9 * duration of 50 slices
        (10.0 + 1.1e-8, None),  # just outside it
        (10.0 - 1.1e-8, None),
        (0.2, 1),
    ],
)
def test_problem_and_signal_tile_a_horizon_alike(duration, n):
    # one rule for both: OptimizationError on the problem, DynamicsError on
    # the signal
    if n is None:
        with pytest.raises(OptimizationError, match="does not tile"):
            x_problem(max_time=duration)
        with pytest.raises(DynamicsError, match="does not tile"):
            ControlSignal.from_envelopes({"dx": lambda t: 0.1}, duration, 0.2)
    else:
        assert x_problem(max_time=duration).n_samples == n
        signal = ControlSignal.from_envelopes({"dx": lambda t: 0.1}, duration, 0.2)
        assert signal.n_samples == n


def test_problem_deduces_sample_count():
    p = x_problem()
    assert p.n_samples == 50 and p.dt == pytest.approx(0.2)


def test_initial_amplitude_policies():
    p = x_problem(seed=42)
    r1 = initial_amplitudes(p)
    r2 = initial_amplitudes(p)
    assert np.array_equal(r1, r2)
    assert r1.shape == (1, 50)
    assert np.max(np.abs(r1)) <= 0.1


def test_explicit_initial_guess_wins():
    guess = {"dx": np.linspace(-0.1, 0.1, 50)}
    p = x_problem(initial_guess=guess)
    amps = initial_amplitudes(p)
    assert np.allclose(amps[0], guess["dx"])
    with pytest.raises(OptimizationError):
        initial_amplitudes(x_problem(initial_guess={"dx": np.zeros(3)}))


@pytest.mark.parametrize("guess", ["random", "square", 0.1, [0.1] * 50])
def test_problem_rejects_an_initial_guess_that_is_not_a_mapping(guess):
    # a guess that is not used must not be accepted silently
    with pytest.raises(OptimizationError, match="initial-guess"):
        x_problem(initial_guess=guess)


@pytest.mark.parametrize(
    "guess, message",
    [
        ({"dx": np.zeros(50), "dy": np.zeros(50)}, r"\['dy'\] that the model lacks"),
        ({"dx": np.full(50, 0.1 + 0.1j)}, "'dx' is complex"),
        ({"dx": np.full(50, np.nan)}, "'dx' is not finite"),
        ({"dx": [np.inf] + [0.0] * 49}, "'dx' is not finite"),
        ({"dx": ["a"] * 50}, "initial guess for 'dx'"),
    ],
    ids=["unknown-channel", "complex", "nan", "inf", "text"],
)
def test_initial_amplitudes_reject_a_guess_they_would_mishandle(guess, message):
    with pytest.raises(OptimizationError, match=message):
        initial_amplitudes(x_problem(initial_guess=guess))


@pytest.mark.parametrize(
    "run", [grape_optimize, krotov_optimize], ids=["GRAPE", "krotov"]
)
@pytest.mark.parametrize("case", ["qubit", "QFT2"])
def test_a_nan_guess_is_rejected_before_the_first_propagation(
    fixtures, monkeypatch, run, case
):
    if case == "QFT2":
        model = load_model(fixtures / "model_2q_12ch.json")
        target = circuit_unitary(parse_circuit((fixtures / "qft2.xasm").read_text()))
        problem = ControlProblem(model=model, target_u=target, max_time=10.0)
    else:
        problem = x_problem()
    guess = {ch: np.full(problem.n_samples, 0.1) for ch in problem.model.channels}
    guess[problem.model.channels[0]][7] = np.nan
    starts = _counting(monkeypatch, krotov_module, "_propagate")
    evaluations = _counting(monkeypatch, problem_module, "_propagate")
    with pytest.raises(OptimizationError, match="not finite"):
        run(replace(problem, initial_guess=guess))
    assert starts == evaluations == []


def test_goat_rejects_an_initial_guess_of_samples():
    # GOAT trains envelope parameters; a sample guess would be ignored
    guess = {"dx": np.full(50, 7.0)}
    with pytest.raises(OptimizationError, match="initial-guess"):
        goat_optimize(x_problem(initial_guess=guess))
    with pytest.raises(OptimizationError, match="initial-guess"):
        get_optimizer("GOAT").optimize(x_problem(initial_guess=guess))


# ---------------------------------------------------------------- minimize


def test_minimize_finds_box_minimizer_on_a_bound():
    # f = g*.(x - x*) + (x - x*)^T A (x - x*) / 2 with g* = (-2, 0, 0): the
    # KKT point x* sits on the upper bound x0 = 1, where -g* points out of
    # the box, and the coupled A makes plain clipping of the steps miss it
    a_mat = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    x_star = np.array([1.0, 0.25, -0.5])
    g_star = np.array([-2.0, 0.0, 0.0])

    def fun(x):
        dx = x - x_star
        return g_star @ dx + 0.5 * dx @ a_mat @ dx, g_star + a_mat @ dx

    found = minimize(fun, np.zeros(3), -1.0, 1.0, tol=0.0, max_iters=100)
    assert np.max(np.abs(found.x - x_star)) <= 1e-10
    assert found.iterations < 100
    assert np.all(np.diff(found.trace) < 0)


def test_minimize_leaves_a_flat_non_convex_start():
    # at x = 0 the slope is 5 exp(-12.5) ~ 2e-5 and the curvature negative:
    # without step growth no curvature pair forms and every step stays ~2e-5
    calls = []

    def fun(x):
        calls.append(x)
        bump = np.exp(-0.5 * (x[0] - 5.0) ** 2)
        return 1.0 - bump, np.array([bump * (x[0] - 5.0)])

    found = minimize(fun, np.zeros(1), -np.inf, np.inf, tol=1e-10, max_iters=50)
    assert found.status == "converged"
    assert found.iterations <= 15
    assert abs(found.x[0] - 5.0) <= 1e-4
    # every fun call is counted, the doubling line-search trials too
    assert found.evaluations == len(calls) > found.iterations + 1


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("run", [grape_optimize, goat_optimize], ids=["GRAPE", "GOAT"])
def test_evaluations_count_every_propagation(monkeypatch, run):
    calls = _counting(monkeypatch, problem_module, "_propagate")
    res = run(h_problem(seed=3, tol=1e-6))
    assert res.evaluations == len(calls) > res.iterations


def test_krotov_evaluations_count_lambda_retries(monkeypatch):
    model = SystemModel(
        n_qubits=1, dt=1.0, drift=((1.0, "Z0"),),
        control=(("dx", "X0"), ("dy", "Y0")),
    )
    problem = ControlProblem(model=model, target_u=X, max_time=4.0, tol=1e-6)
    calls = _counting(monkeypatch, krotov_module, "_slice_step")
    res = krotov_optimize(problem)
    # the start propagates in the core, dynamics._propagate; each sweep
    # attempt then takes one _slice_step per slice
    assert res.evaluations == len(calls) / problem.n_samples
    assert res.evaluations > res.iterations


def _random_objective(rng, kind):
    """A GRAPE objective on one or two qubits, or GOAT under a random spec of
    one or two Gaussians per channel with every slot trainable, with two
    points to evaluate it at."""
    n_samples = int(rng.integers(1, 12))
    if kind == "GOAT":
        p = random_problem(rng, int(rng.integers(1, 3)), n_samples)
        terms, names, x = [], [], []
        for ch in p.model.channels:
            for _ in range(int(rng.integers(1, 3))):
                k = len(terms)
                terms.append((ch, GaussianTerm(f"a{k}", f"c{k}", f"s{k}")))
                names += [f"a{k}", f"c{k}", f"s{k}"]
                x += [rng.uniform(-0.5, 0.5), rng.uniform(0, p.max_time),
                      rng.uniform(p.dt, p.max_time)]
        spec = GoatEnvelopeSpec(terms=tuple(terms), param_names=tuple(names))
        x1 = np.array(x)
        x2 = x1 + rng.uniform(-0.05, 0.05, x1.shape)

        def make():
            return _cf4_objective(p, spec.evaluator(), p.model.control_stack, SUBSTEPS)
    else:
        n_qubits = 1 if kind == "GRAPE d=2" else 2
        p = random_problem(rng, int(rng.integers(1, 4)), n_samples, n_qubits)
        x1, x2 = rng.uniform(-1, 1, (2, len(p.model.channels) * n_samples))

        def make():
            return grape_objective(p)
    return make, x1, x2


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["GRAPE d=2", "GRAPE d=4", "GOAT"]),
)
def test_an_objective_reuses_its_buffers_without_touching_its_results(seed, kind):
    make, x1, x2 = _random_objective(np.random.default_rng(seed), kind)
    fun = make()
    loss1, grad1 = fun(x1)
    kept = grad1.copy()
    loss2, grad2 = fun(x2)
    fun(x1 + 0.01, grad=False)
    # an earlier result is not overwritten by later evaluations
    assert np.array_equal(grad1, kept) and not np.shares_memory(grad1, grad2)
    # and the reused buffers give exactly what new ones give
    for x, loss, grad in ((x1, loss1, kept), (x2, loss2, grad2)):
        again, fresh = fun(x), make()(x)
        assert again[0] == fresh[0] == loss
        assert np.array_equal(again[1], fresh[1]) and np.array_equal(fresh[1], grad)


def test_grape_amplitude_bound_reaches_the_bang_bang_floor(fixtures):
    model = load_model(fixtures / "model_1q_xy.json")
    problem = ControlProblem(
        model=model, target_u=H, max_time=10.0, seed=11, tol=1e-3,
        amplitude_bound=0.1,
    )
    res = grape_optimize(problem)
    assert res.final_infidelity <= 6.2e-2
    assert np.max(np.abs(res.optimal_params)) <= 0.1
    assert res.iterations <= 50  # fixed-rate descent needed several hundred


def test_grape_qft2_converges_in_few_iterations(fixtures):
    model = load_model(fixtures / "model_2q_12ch.json")
    target = circuit_unitary(parse_circuit((fixtures / "qft2.xasm").read_text()))
    problem = ControlProblem(
        model=model, target_u=target, max_time=10.0, seed=0, tol=1e-3
    )
    res = grape_optimize(problem)
    assert res.status == "converged"
    assert res.iterations <= 30


# ------------------------------------------------------------------- GRAPE


def test_grape_gradient_matches_finite_differences():
    # independent route: FD of infidelity(piecewise_propagator) per sample,
    # on qubits (the 2x2 path) and on d = 4 and d = 8 (BLAS products)
    rng = np.random.default_rng(2)
    h = 1e-6
    shapes = [(2, 8, 1)] * 3 + [(3, 6, 2), (3, 4, 3)]  # channels, samples, qubits
    for n_channels, n_samples, n_qubits in shapes:
        p = random_problem(rng, n_channels, n_samples, n_qubits)
        amps = rng.uniform(-0.5, 0.5, size=(n_channels, p.n_samples))
        grad = grape_gradient(p, amps)

        def loss(a):
            sig = ControlSignal.from_samples(
                {ch: a[i] for i, ch in enumerate(p.model.channels)}, p.dt
            )
            return infidelity(piecewise_propagator(p.model, sig), p.target_u)

        fd = np.zeros_like(amps)
        for i in range(amps.shape[0]):
            for k in range(amps.shape[1]):
                up, dn = amps.copy(), amps.copy()
                up[i, k] += h
                dn[i, k] -= h
                fd[i, k] = (loss(up) - loss(dn)) / (2 * h)
        denom = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / denom <= 1e-5


def _loop_gradient(state, ops, target, dt):
    """d(loss)/d(amps) from explicit forward and backward product loops, one
    slice derivative V ((V^+ (-i dt Op_c) V) o Phi) V^+ per slice and channel.
    Qubit slices take their eigenbasis from np.linalg.eigh of the slice
    Hamiltonian, which the gradient under test never forms."""
    n, d = state.umats.shape[0], target.shape[0]
    fwd = [np.eye(d, dtype=complex)]
    for u in state.umats:
        fwd.append(u @ fwd[-1])
    bwd = [np.eye(d, dtype=complex)]
    for u in state.umats[::-1]:
        bwd.append(bwd[-1] @ u)
    bwd.reverse()  # bwd[k] = U_{N-1}...U_k
    overlap = np.trace(target.conj().T @ fwd[n])
    grad = np.zeros((len(ops), n))
    for k in range(n):
        if state.evals is None:  # the qubit path keeps no eigendecomposition
            w, v = np.linalg.eigh(state.hams[k])
        else:
            w, v = state.evals[k], state.evecs[k]
        a = w * dt
        phi = np.exp(-0.5j * (a[:, None] + a[None, :])) * np.sinc(
            (a[:, None] - a[None, :]) / (2 * np.pi)
        )
        for c, op in enumerate(ops):
            du = v @ ((v.conj().T @ (-1j * dt * op) @ v) * phi) @ v.conj().T
            dg = np.trace(target.conj().T @ bwd[k + 1] @ du @ fwd[k])
            grad[c, k] = -2.0 / d**2 * np.real(np.conj(overlap) * dg)
    return grad


def _goat_pi_case(monkeypatch):
    """Criterion 1's problem at sigma = 8: the 4,000-slice CF4 grid, as the
    (state, ops, target, dt) that GOAT's objective propagates."""
    handle = get_optimizer("GOAT", {
        "method": "GOAT", "dimension": 2, "target-U": "X0", "control-H": ["X0"],
        "max-time": 100.0,
    })
    problem = handle.build_problem()
    spec = GoatEnvelopeSpec(
        terms=((problem.model.channels[0], GaussianTerm(1.0, 0.0, "sigma")),),
        param_names=("sigma",),
    )
    built = []

    def recording(drift, ops, amps, dt, out=None):
        built.append((_propagate(drift, ops, amps, dt), ops, problem.target_u, dt))
        return built[-1][0]

    monkeypatch.setattr(problem_module, "_propagate", recording)
    objective = _cf4_objective(
        problem, spec.evaluator(), problem.model.control_stack, SUBSTEPS
    )
    objective(np.array([8.0]), grad=False)
    monkeypatch.undo()
    return built[0]


def test_gradient_matches_the_forward_backward_loop_reference(fixtures, monkeypatch):
    model = load_model(fixtures / "model_2q_12ch.json")
    target = circuit_unitary(parse_circuit((fixtures / "qft2.xasm").read_text()))
    qft2 = ControlProblem(model=model, target_u=target, max_time=10.0, seed=5)
    ops = model.control_stack
    amps = initial_amplitudes(qft2)
    state = _propagate(model.drift_matrix(), ops, amps, qft2.dt)
    goat_case = _goat_pi_case(monkeypatch)
    assert goat_case[0].umats.shape[0] == 4000
    # d = 2 with drift and two non-commuting drives: unlike the pi grid, whose
    # matrices are all symmetric and commute, this case catches a 2x2 product
    # path that is right only on such matrices
    qubit = load_model(fixtures / "model_1q_xy.json")
    hadamard = ControlProblem(model=qubit, target_u=H, max_time=10.0, seed=7)
    qubit_ops = qubit.control_stack
    qubit_amps = initial_amplitudes(hadamard)
    qubit_state = _propagate(qubit.drift_matrix(), qubit_ops, qubit_amps, hadamard.dt)
    cases = [
        (state, ops, target, qft2.dt),
        goat_case,
        (qubit_state, qubit_ops, H, hadamard.dt),
    ]
    for case in cases:
        reference = _loop_gradient(*case)
        error = np.max(np.abs(_gradient_from_state(*case) - reference))
        assert error <= 1e-12 * np.max(np.abs(reference))


def _constant_drive_case(d, n, seed):
    """A random drift and two random controls at constant amplitudes on n
    slices of dt 0.01, and a random unitary target."""
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (a + a.conj().T) / 2

    drift, ops = hermitian(), np.array([hermitian(), hermitian()])
    amps = np.repeat(rng.uniform(-1.0, 1.0, (2, 1)), n, axis=1)
    target = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return drift, ops, amps, 0.01, target


def _constant_drive_reference(drift, ops, amps, dt, target, slices):
    """The gradient columns of ``slices`` built without optpulse's core: each
    dU/du_c is the upper-right block of scipy's expm of the Van Loan block
    [[A, E_c], [0, A]], A = -i H dt, E_c = -i Op_c dt, and every product is
    a power of the one slice propagator, from its eigendecomposition."""
    from scipy.linalg import expm

    d, n = drift.shape[0], amps.shape[1]
    ham = drift + np.tensordot(amps[:, 0], ops, 1)
    blocks = []
    for op in ops:
        block = np.zeros((2 * d, 2 * d), dtype=complex)
        block[:d, :d] = block[d:, d:] = -1j * dt * ham
        block[:d, d:] = -1j * dt * op
        blocks.append(expm(block))
    lam, vecs = np.linalg.eig(blocks[0][:d, :d])
    inv = np.linalg.inv(vecs)

    def power(k):
        return (vecs * lam**k) @ inv

    overlap = np.trace(target.conj().T @ power(n))
    grad = np.empty((len(ops), len(slices)))
    for j, k in enumerate(slices):
        for c, block in enumerate(blocks):
            dg = np.trace(target.conj().T @ power(n - 1 - k) @ block[:d, d:] @ power(k))
            grad[c, j] = -2.0 / d**2 * np.real(np.conj(overlap) * dg)
    return grad


@pytest.mark.parametrize("d, n", [(4, 4000), (2, 16000)])
def test_gradient_matches_an_independent_constant_drive_reference(d, n):
    # every slice shares its eigenvectors, so the forward products drift from
    # unitarity coherently: the backward products taken as their adjoints
    # must still hold the gradient to 1e-10 relative
    drift, ops, amps, dt, target = _constant_drive_case(d, n, seed=d)
    state = _propagate(drift, ops, amps, dt)
    slices = [0, 1, n // 2, n - 2, n - 1]
    reference = _constant_drive_reference(drift, ops, amps, dt, target, slices)
    grad = _gradient_from_state(state, ops, target, dt)[:, slices]
    assert np.max(np.abs(grad - reference)) <= 1e-10 * np.max(np.abs(reference))


def _qubit_case(seed, n_channels, n_slices, drifted, scale, theta, coupling, gaps):
    """Random 2x2 drift and controls, amplitudes and a dt that puts the
    largest slice's theta = |h| dt at ``theta``, with a random target."""
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return scale * (a + a.conj().T) / 2

    drift = hermitian() if drifted else np.zeros((2, 2), dtype=complex)
    ops = np.array([hermitian() for _ in range(n_channels)])
    if coupling == "subnormal":
        ops[:, 1, 0] = 3e-310 - 2e-310j
        ops[:, 0, 1] = 3e-310 + 2e-310j
    amps = rng.uniform(-1.0, 1.0, (n_channels, n_slices))
    if gaps:  # zero-amplitude slices; theta = 0 there on a drift-free model
        amps[:, ::2] = 0.0
    hams = drift + np.einsum("cn,cij->nij", amps, ops)
    eigvals = np.linalg.eigvalsh(hams)
    radius = np.max(eigvals[:, 1] - eigvals[:, 0]) / 2  # max |h|
    dt = theta / radius if radius > 0 else 0.1
    target = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    return drift, ops, amps, dt, hams, target


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_channels=st.integers(1, 2),
    n_slices=st.integers(1, 6),
    drifted=st.booleans(),
    scale=st.sampled_from([1.0, 1e6]),
    theta=st.floats(1e-4, 3.0),
    coupling=st.sampled_from(["random", "subnormal"]),
    gaps=st.booleans(),
)
# theta = 0 on every slice; then either side of the series switch at 1e-2
@example(seed=1, n_channels=1, n_slices=4, drifted=False, scale=1.0, theta=1e-3,
         coupling="random", gaps=True)
@example(seed=2, n_channels=2, n_slices=5, drifted=True, scale=1.0,
         theta=SU2_SERIES_BELOW * 0.99, coupling="random", gaps=False)
@example(seed=3, n_channels=2, n_slices=5, drifted=True, scale=1.0,
         theta=SU2_SERIES_BELOW * 1.01, coupling="random", gaps=False)
@example(seed=4, n_channels=1, n_slices=3, drifted=True, scale=1e6, theta=2.0,
         coupling="subnormal", gaps=True)
def test_qubit_kernels_match_expm_the_loop_reference_and_finite_differences(
    seed, n_channels, n_slices, drifted, scale, theta, coupling, gaps
):
    from scipy.linalg import expm

    drift, ops, amps, dt, hams, target = _qubit_case(
        seed, n_channels, n_slices, drifted, scale, theta, coupling, gaps
    )
    state = _propagate(drift, ops, amps, dt)
    for h, u in zip(hams, state.umats):
        assert np.max(np.abs(u - expm(-1j * dt * h))) <= 1e-10
    reference = _loop_gradient(state, ops, target, dt)  # reads state.hams
    grad = _gradient_from_state(state, ops, target, dt)
    # relative to the larger of the gradient and dt ||Op||, a bound on each
    # entry's terms: the reference sums the global phase's terms too, and
    # they cancel only to round-off of that size when the gradient is small
    bound = max(np.max(np.abs(reference)), dt * np.max(np.linalg.norm(ops, 2, (1, 2))))
    assert np.max(np.abs(grad - reference)) <= 1e-12 * bound

    def loss(a):
        return _trace_loss(_propagate(drift, ops, a, dt).total, target)[1]

    step = 1e-6 / (scale * dt)  # moves each slice's theta by about 1e-6
    fd = np.zeros_like(amps)
    for index in np.ndindex(amps.shape):
        up, down = amps.copy(), amps.copy()
        up[index] += step
        down[index] -= step
        fd[index] = (loss(up) - loss(down)) / (2 * step)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * bound


def test_grape_reaches_x_gate():
    res = grape_optimize(x_problem(seed=1, tol=1e-6))
    assert res.status == "converged"
    assert res.final_infidelity <= 1e-6
    sig = ControlSignal.from_samples(res.synthesized_samples, res.dt)
    u = piecewise_propagator(x_problem().model, sig)
    assert infidelity(u, X) == pytest.approx(res.final_infidelity, abs=1e-12)


def test_grape_trace_is_non_increasing():
    res = grape_optimize(h_problem(seed=3, tol=1e-5))
    trace = np.asarray(res.trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert trace[0] > trace[-1]


def test_grape_respects_amplitude_bound():
    res = grape_optimize(x_problem(seed=1, amplitude_bound=0.05, max_iters=50))
    for arr in res.synthesized_samples.values():
        assert np.max(np.abs(arr)) <= 0.05 + 1e-15


def test_grape_converged_start_returns_zero_iterations():
    # exact pi/2 pulse area: a * T = pi/2
    a = np.full(50, np.pi / 2 / 10.0)
    res = grape_optimize(x_problem(initial_guess={"dx": a}))
    assert res.iterations == 0
    assert res.status == "converged"


def test_grape_hits_iteration_cap():
    res = grape_optimize(h_problem(seed=3, tol=1e-14, max_iters=5))
    assert res.status == "max-iters"
    assert res.iterations == 5


def test_grape_is_deterministic():
    a = grape_optimize(h_problem(seed=9, tol=1e-5))
    b = grape_optimize(h_problem(seed=9, tol=1e-5))
    assert np.array_equal(a.optimal_params, b.optimal_params)
    assert a.trace == b.trace
    assert a.final_infidelity == b.final_infidelity


# -------------------------------------------------------------------- GOAT


def test_parse_control_func_fixed_amplitude_form():
    terms = parse_control_func("exp(-t^2/(2*sigma^2))")
    assert len(terms) == 1
    t = terms[0]
    assert t.amplitude == 1.0 and t.center == 0.0 and t.width == "sigma"


def test_parse_control_func_general_form():
    terms = parse_control_func("a*exp(-(t-c)^2/(2*s^2))")
    assert terms[0].amplitude == "a"
    assert terms[0].center == "c"
    assert terms[0].width == "s"


def test_parse_control_func_rejects_garbage():
    with pytest.raises(OptimizationError):
        parse_control_func("sin(t)")


_POSITION = r"\(line \d+, column \d+\)$"
# "exp" and "t" are names too, and may name a slot
_NAMES = st.sampled_from(["a", "s", "sigma", "c_1", "_w", "\u03c3", "exp", "t"])
_SPACES = st.sampled_from(["", " ", "\t", "\n", " \n\t "])


def _slots(positive: bool):
    low = 1e-3 if positive else 0.0
    numbers = st.floats(low, 1e6, allow_nan=False, allow_infinity=False)
    return st.one_of(_NAMES, numbers)


def _slot_text(slot) -> str:
    return slot if isinstance(slot, str) else repr(slot)


@st.composite
def _templates(draw):
    """(template text, its terms): tokens of the grammar joined by random
    whitespace, numbers written as repr(float), which reads back exactly."""
    tokens, terms = [], []
    for i in range(draw(st.integers(1, 3))):
        amplitude = draw(st.none() | _slots(False))
        center = draw(st.none() | _slots(False))
        width = draw(_slots(True))
        tokens += [] if i == 0 else ["+"]
        tokens += [] if amplitude is None else [_slot_text(amplitude), "*"]
        tokens += ["exp", "(", "-"]
        tokens += ["t"] if center is None else ["(", "t", "-", _slot_text(center), ")"]
        tokens += ["^", "2", "/", "(", "2", "*", _slot_text(width), "^", "2", ")", ")"]
        terms.append(GaussianTerm(
            1.0 if amplitude is None else amplitude,
            0.0 if center is None else center,
            width,
        ))
    gaps = draw(st.lists(_SPACES, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))
    return text, terms


@settings(max_examples=100, deadline=None)
@given(_templates())
def test_parse_control_func_reads_generated_templates(case):
    text, terms = case
    assert parse_control_func(text) == terms


@settings(max_examples=200, deadline=None)
@given(_templates(), st.data())
def test_parse_control_func_mutations_parse_or_raise_positioned(case, data):
    """One character replaced, inserted or deleted: the result parses to
    finite fixed slots, or is an OptimizationError at a line and column."""
    text = case[0]
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from("0123456789.eE+-*/^()[],;: \t\natsxp_\u00e9"))
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "insert":
        mutated = text[:at] + char + text[at:]
    else:
        mutated = text[:at] + (char if edit == "replace" else "") + text[at + 1:]
    try:
        terms = parse_control_func(mutated)
    except OptimizationError as exc:
        assert re.search(_POSITION, str(exc)), str(exc)
        return
    for term in terms:
        for slot in (term.amplitude, term.center, term.width):
            assert isinstance(slot, str) or np.isfinite(slot)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        # whitespace once vanished: these read as amplitude 10, the
        # parameter "sigma" and a width of inf
        ("1 0*exp(-t^2/(2*s^2))", "expected '*', found '0'", 1, 3),
        ("exp(-t^2/(2*sig ma^2))", "expected '^', found 'ma'", 1, 17),
        ("exp(-t^2/(2*1e999^2))", "width must be a positive number or a name", 1, 13),
        ("exp(-t^2/(2*0^2))", "width must be a positive number or a name", 1, 13),
        ("1e999*exp(-t^2/(2*s^2))", "amplitude must be a finite number", 1, 1),
        ("exp(-(t-+)^2/(2*s^2))", "center must be a finite number or a name, not '+'", 1, 9),
        ("1.2.3", "bad number literal '1.2.3'", 1, 1),
        ("sin(t)", "expected '*', found '('", 1, 4),
        ("exp(-t^2/(2*s^2)) +", "unexpected end of input", 1, 19),
        ("exp(-t^2/(2*s^2))\n  exp(-t^2/(2*s^2))", "expected '+' or the end", 2, 3),
        ("", "unexpected end of input", 1, 1),
    ],
)
def test_parse_control_func_errors_are_positioned(text, message, line, column):
    with pytest.raises(OptimizationError) as err:
        parse_control_func(text)
    assert message in str(err.value)
    assert str(err.value).endswith(f"(line {line}, column {column})")


def test_parse_control_func_takes_the_shared_number_rule():
    assert parse_control_func(".5*exp(-t^2/(2*s^2))") == [GaussianTerm(0.5, 0.0, "s")]
    terms = parse_control_func("a*exp(-(t - 5)^2/(2*s^2))\n+ 2.*exp(-t ^ 2/(2*1e-1^2))")
    assert terms == [GaussianTerm("a", 5.0, "s"), GaussianTerm(2.0, 0.0, 0.1)]


def _central_differences(objective, x, h=1e-6):
    fd = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (objective(up, grad=False)[0] - objective(dn, grad=False)[0]) / (2 * h)
    return fd


def test_goat_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    p = random_problem(rng, n_channels=1, n_samples=10)
    spec, x0 = default_envelope_spec(p)
    objective = _cf4_objective(p, spec.evaluator(), p.model.control_stack, SUBSTEPS)
    x = x0 + rng.uniform(-0.02, 0.02, x0.shape)
    _, grad = objective(x)
    fd = _central_differences(objective, x)
    denom = max(np.max(np.abs(fd)), 1e-12)
    assert np.max(np.abs(grad - fd)) / denom <= 1e-5


def test_goat_multi_term_spec_gradient_values_and_envelopes():
    # two terms on dx and one on dy; amplitude, center and width slots are
    # trainable, "c" and "s" are shared by both channels, and the second
    # dx term has a fixed center
    p = h_problem(max_time=4.0, max_iters=3)
    spec = GoatEnvelopeSpec(
        terms=(
            ("dx", GaussianTerm("a", "c", "s")),
            ("dx", GaussianTerm("b", 3.0, "w")),
            ("dy", GaussianTerm("e", "c", "s")),
        ),
        param_names=("a", "c", "s", "b", "w", "e"),
    )
    x = np.array([0.4, 1.7, 0.9, -0.3, 0.6, 0.25])
    evaluate = spec.evaluator()
    objective = _cf4_objective(p, evaluate, p.model.control_stack, SUBSTEPS)
    _, grad = objective(x)
    fd = _central_differences(objective, x)
    assert np.all(grad != 0.0)
    assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) <= 1e-5

    t = np.linspace(0.0, 4.0, 41)
    a, c, s, b, w, e = x

    def gauss(amp, center, width):
        return amp * np.exp(-((t - center) ** 2) / (2.0 * width**2))

    direct = np.stack([gauss(a, c, s) + gauss(b, 3.0, w), gauss(e, c, s)])
    values, _ = evaluate(x, t)
    assert np.max(np.abs(values - direct)) <= 1e-12 * np.max(np.abs(direct))

    res = goat_optimize(p, spec=spec, initial_parameters=x)
    for ch, samples in res.synthesized_samples.items():
        emitted = [res.envelopes[ch](k * p.dt) for k in range(p.n_samples)]
        assert np.max(np.abs(np.asarray(emitted) - samples)) <= 1e-12


def test_goat_reaches_x_gate_and_resimulates():
    p = x_problem(tol=1e-7)
    res = goat_optimize(p)
    assert res.final_infidelity <= 1e-7
    sig = ControlSignal.from_envelopes(res.envelopes, duration=10.0, dt=0.2)
    u = evolve_continuous(p.model, sig)
    assert abs(infidelity(u, X) - res.final_infidelity) <= 1e-6


def test_goat_drifted_two_channel_resimulates():
    # drift Z0 plus X and Y drives: exercises the CF4 mix of two channels
    p = h_problem(max_time=5.0, tol=1e-7)
    spec = GoatEnvelopeSpec(
        terms=(
            ("dx", GaussianTerm("a", "c", "s")),
            ("dy", GaussianTerm("b", "e", "w")),
        ),
        param_names=("a", "c", "s", "b", "e", "w"),
    )
    x0 = np.array([0.3, 3.0, 1.0, 0.3, 3.5, 1.0])
    res = goat_optimize(p, spec=spec, initial_parameters=x0)
    assert res.final_infidelity <= 1e-7
    sig = ControlSignal.from_envelopes(res.envelopes, duration=5.0, dt=p.dt)
    u = evolve_continuous(p.model, sig)
    assert abs(infidelity(u, H) - res.final_infidelity) <= 1e-6


def test_goat_cf4_steps_converge_at_fourth_order(monkeypatch):
    # a Z drift and X and Y drives that do not commute with it: each halving
    # of the CF4 step cuts the change of the total propagator 16 times, where
    # a second-order mix of the node samples (the weights swapped) cuts it 4
    p = h_problem(max_time=5.0)
    spec = GoatEnvelopeSpec(
        terms=(("dx", GaussianTerm("a", 2.0, 0.7)), ("dy", GaussianTerm(0.5, 3.0, 0.9))),
        param_names=("a",),
    )
    totals = []

    def recording(drift, ops, amps, dt, out=None):
        state = _propagate(drift, ops, amps, dt)
        totals.append(state.total)
        return state

    monkeypatch.setattr(problem_module, "_propagate", recording)
    for substeps in (1, 2, 4, 8):
        objective = _cf4_objective(p, spec.evaluator(), p.model.control_stack, substeps)
        objective(np.array([0.8]), grad=False)
    changes = [np.max(np.abs(a - b)) for a, b in zip(totals, totals[1:])]
    for coarse, fine in zip(changes, changes[1:]):
        assert 12 < coarse / fine < 20


def test_goat_default_family_leaves_the_plateau_on_a_drifted_qubit(fixtures):
    # The default start (a = 0.1, sigma = 8 dt) sits on a plateau at
    # infidelity 1 - 5e-6 with a gradient of 7e-5. Descent leads to the
    # first local minimum: a kick of area ~pi/2 at the width floor dt,
    # where the drift acting during the kick leaves 0.163. Deeper minima
    # sit at larger amplitudes (a = 9.35, 15.6, ... at sigma = dt) or at a
    # near-constant drive (sigma >> T), off the descent path.
    model = load_model(fixtures / "model_1q_x.json")
    res = goat_optimize(ControlProblem(model=model, target_u=X, max_time=10.0))
    amplitude, sigma = res.optimal_params
    assert res.final_infidelity <= 0.17
    assert res.iterations <= 30
    assert sigma == pytest.approx(model.dt)
    assert amplitude * sigma * np.sqrt(2 * np.pi) == pytest.approx(np.pi / 2, rel=0.02)


def refining_problem():
    """A drifted qubit on which GOAT's first result moves on the finer grid,
    so GOAT refines once.

    The target is what two Gaussians of width 1.2 give, sampled on a grid
    32 times as fine, so GOAT converges: its first run stops at infidelity
    4.4e-7, whose loss moves by 1.7e-8 on the finer grid. A target such as
    X, which the default envelopes cannot reach, leaves GOAT stalled on a
    plateau, where the last bits of the gradient decide whether the stalled
    point moves on the finer grid.
    """
    model = SystemModel(
        n_qubits=1, dt=1.0, drift=((3.0, "Z0"),),
        control=(("dx", "X0"), ("dy", "Y0")),
    )
    fine = replace(model, dt=model.dt / 32)
    t = (np.arange(320) + 0.5) * fine.dt
    gauss = np.exp(-((t - 5.0) ** 2) / (2 * 1.2**2))
    signal = ControlSignal.from_samples({"dx": 0.5 * gauss, "dy": 0.1 * gauss}, fine.dt)
    target = piecewise_propagator(fine, signal)
    return ControlProblem(model=model, target_u=target, max_time=10.0, tol=1e-6)


def test_goat_builds_each_grid_objective_once(monkeypatch):
    # runs on 2 and 4 substeps, each checked on the grid twice as fine, and
    # the check's objective is the next run's
    problem = refining_problem()
    grids = []
    original = goat_module._cf4_objective

    def counted(problem, evaluate, ops, substeps):
        grids.append(substeps)
        return original(problem, evaluate, ops, substeps)

    monkeypatch.setattr(goat_module, "_cf4_objective", counted)
    goat_optimize(problem)
    assert grids == [SUBSTEPS, 2 * SUBSTEPS, 4 * SUBSTEPS]


def _dy_only(problem):
    spec = GoatEnvelopeSpec(
        terms=(("dy", GaussianTerm("a", 5.0, 2.0)),), param_names=("a",)
    )
    return goat_optimize(problem, spec=spec, initial_parameters=np.array([0.1]))


@pytest.mark.parametrize(
    "run, build, emitted",
    [
        (grape_optimize, x_problem, ("dx",)),
        (krotov_optimize, x_problem, ("dx",)),
        (grape_optimize, refining_problem, ("dx", "dy")),
        (krotov_optimize, refining_problem, ("dx", "dy")),
        (goat_optimize, x_problem, ("dx",)),
        (goat_optimize, refining_problem, ("dx", "dy")),
        (_dy_only, refining_problem, ("dy",)),
    ],
    ids=[
        "GRAPE", "krotov", "GRAPE-drifted", "krotov-drifted", "GOAT",
        "GOAT-refining", "GOAT-one-channel",
    ],
)
def test_every_method_keeps_the_result_contract(monkeypatch, run, build, emitted):
    runs = []  # GOAT's minimizer runs, one per grid

    def counted(*args):
        runs.append(args)
        return problem_module.minimize(*args)

    monkeypatch.setattr(goat_module, "minimize", counted)
    problem = build()
    result = run(problem)
    assert result.trace[-1] == result.final_infidelity
    assert result.evaluations >= result.iterations
    assert tuple(result.synthesized_samples) == emitted
    for row in result.synthesized_samples.values():
        assert row.dtype == complex and row.shape == (problem.n_samples,)
        assert not np.any(row.imag)
    # each GOAT run starts its trace segment with its start loss on its grid
    grids = len(runs) if result.method == "GOAT" else 1
    assert len(result.trace) == result.iterations + grids
    if run is goat_optimize and build is refining_problem:
        assert len(runs) == 2  # the contract covers a refined run too


def test_goat_width_floor():
    p = x_problem(max_iters=5)
    spec, x0 = default_envelope_spec(p)
    x0 = x0.copy()
    x0[1] = 1e-6  # below the width floor dt; must be clipped, not crash
    res = goat_optimize(p, spec=spec, initial_parameters=x0)
    assert res.optimal_params[1] >= p.dt


def test_goat_is_deterministic():
    a = goat_optimize(x_problem(tol=1e-6))
    b = goat_optimize(x_problem(tol=1e-6))
    assert np.array_equal(a.optimal_params, b.optimal_params)
    assert a.final_infidelity == b.final_infidelity


def test_goat_custom_spec_needs_initial_parameters():
    p = x_problem()
    spec = GoatEnvelopeSpec(
        terms=(("dx", GaussianTerm("amp", 5.0, 2.0)),), param_names=("amp",)
    )
    with pytest.raises(OptimizationError):
        goat_optimize(p, spec=spec)
    res = goat_optimize(p, spec=spec, initial_parameters=np.array([0.1]))
    assert res.method == "GOAT"


@pytest.mark.parametrize("width", [-2, 0, -2.0, 0.0, float("nan")])
def test_goat_fixed_width_must_be_positive(width):
    with pytest.raises(OptimizationError, match="width"):
        GaussianTerm("amp", 5.0, width)


def test_goat_integer_fixed_width_runs_as_float():
    p = x_problem(max_iters=3)
    runs = [
        goat_optimize(
            p,
            spec=GoatEnvelopeSpec(
                terms=(("dx", GaussianTerm("amp", 5.0, width)),), param_names=("amp",)
            ),
            initial_parameters=np.array([0.1]),
        )
        for width in (2, 2.0)
    ]
    assert np.array_equal(runs[0].optimal_params, runs[1].optimal_params)
    assert runs[0].final_infidelity == runs[1].final_infidelity
    assert np.array_equal(
        runs[0].synthesized_samples["dx"], runs[1].synthesized_samples["dx"]
    )


# ------------------------------------------------------------------ Krotov


def test_krotov_monotone_trace_over_seeds():
    for seed in range(8):
        p = h_problem(seed=seed, tol=1e-5)
        res = krotov_optimize(p)
        trace = np.asarray(res.trace)
        assert np.all(np.diff(trace) <= 1e-10), f"seed {seed}"


def test_krotov_reaches_x_gate():
    res = krotov_optimize(x_problem(tol=1e-8))
    assert res.status == "converged"
    assert res.final_infidelity <= 1e-8
    sig = ControlSignal.from_samples(res.synthesized_samples, res.dt)
    u = piecewise_propagator(x_problem().model, sig)
    assert infidelity(u, X) == pytest.approx(res.final_infidelity, abs=1e-12)


def test_krotov_starts_from_the_seeded_random_guess():
    for seed in (0, 5):
        res = krotov_optimize(x_problem(seed=seed, max_iters=1))
        start = initial_amplitudes(x_problem(seed=seed))
        sig = ControlSignal.from_samples({"dx": start[0]}, 0.2)
        u = piecewise_propagator(x_problem().model, sig)
        assert res.trace[0] == pytest.approx(infidelity(u, X), abs=1e-12)


def _loop_costates(umats, target, overlap):
    """chi_n^+ back-propagated one slice at a time: chi_N = (g/d^2) target,
    chi_n = U_n^+ chi_{n+1}."""
    d = target.shape[0]
    chi_h = np.empty_like(umats)
    back = (np.conj(overlap) / d**2) * target.conj().T
    for k in range(len(umats) - 1, -1, -1):
        back = back @ umats[k]
        chi_h[k] = back
    return chi_h


def test_krotov_costates_match_the_back_propagation_loop(fixtures):
    model = load_model(fixtures / "model_2q_12ch.json")
    target = circuit_unitary(parse_circuit((fixtures / "qft2.xasm").read_text()))
    qft2 = ControlProblem(model=model, target_u=target, max_time=10.0, seed=5)
    # a long drifted qubit grid: 4,000 non-commuting slices
    drifted = ControlProblem(
        model=SystemModel(
            n_qubits=1, dt=0.025, drift=((1.0, "Z0"),),
            control=(("dx", "X0"), ("dy", "Y0")),
        ),
        target_u=H, max_time=100.0, seed=9,
    )
    assert drifted.n_samples == 4000
    for problem in (qft2, drifted):
        drift, ops = problem.model.drift_matrix(), problem.model.control_stack
        amps = initial_amplitudes(problem)
        state = _propagate(drift, ops, amps, problem.dt)
        overlap = _trace_loss(state.total, problem.target_u)[0]
        reference = _loop_costates(state.umats, problem.target_u, overlap)
        # forward products as the start builds them, and as a sweep does
        sequential = [np.eye(problem.dim, dtype=complex)]
        for u in state.umats[:-1]:
            sequential.append(u @ sequential[-1])
        for fwd in (state.fwd[:-1], np.array(sequential)):
            chi_h = krotov_module._costates(
                fwd, state.total, problem.target_u, overlap
            )
            error = np.max(np.abs(chi_h - reference))
            assert error <= 1e-12 * np.max(np.abs(reference))


def _reference_krotov(problem):
    """The per-channel sweep: one trace per channel and slice, and a full
    re-propagation after every accepted sweep."""
    tol = 1e-4 if problem.tol is None else problem.tol
    max_sweeps = 200 if problem.max_iters is None else problem.max_iters
    n, dt, d, target = problem.n_samples, problem.dt, problem.dim, problem.target_u
    drift, ops = problem.model.drift_matrix(), problem.model.control_stack
    amps = clip_amplitudes(initial_amplitudes(problem), problem.amplitude_bound)
    state = _propagate(drift, ops, amps, dt)
    overlap, loss = _trace_loss(state.total, target)
    trace, status, sweeps, lam = [loss], "max-iters", 0, 1.0
    if loss <= tol:
        return amps, 0, "converged"
    while sweeps < max_sweeps:
        # chi_k = (U_{N-1}...U_k)^+ (g/d^2) target, with U_{N-1}...U_k = total fwd[k]^+
        costates = state.fwd @ state.total.conj().T @ ((overlap / d**2) * target)
        for _ in range(60):
            new_amps = amps.copy()
            psi = np.eye(d, dtype=complex)
            for k in range(n):
                for c in range(len(ops)):
                    overlap = np.trace(costates[k].conj().T @ ops[c] @ psi)
                    new_amps[c, k] += float(overlap.imag) / lam
                new_amps[:, k] = clip_amplitudes(new_amps[:, k], problem.amplitude_bound)
                ham = _stacked_hamiltonians(drift, ops, new_amps[:, k : k + 1])
                psi = slice_propagators(ham[0], dt)[0] @ psi
            if 1.0 - abs(np.trace(target.conj().T @ psi)) ** 2 / d**2 <= loss + 1e-10:
                break
            lam *= 2.0
        amps = new_amps
        state = _propagate(drift, ops, amps, dt)
        overlap, loss = _trace_loss(state.total, target)
        sweeps += 1
        trace.append(loss)
        if loss <= tol:
            status = "converged"
            break
        if trace[-2] - trace[-1] < 1e-10:
            status = "stalled"
            break
    return amps, sweeps, status


@pytest.mark.parametrize("guess", ["square", "random"])
@pytest.mark.parametrize("case", ["H", "X", "QFT2", "QFT2-bounded", "3q"])
def test_krotov_sweep_matches_the_per_channel_reference(fixtures, case, guess):
    if case.startswith("QFT2"):
        model = load_model(fixtures / "model_2q_12ch.json")
        target = circuit_unitary(parse_circuit((fixtures / "qft2.xasm").read_text()))
        bound = 0.3 if case == "QFT2-bounded" else 0.0  # the clip branch
        problem = ControlProblem(
            model=model, target_u=target, max_time=10.0, seed=3, amplitude_bound=bound
        )
    elif case == "3q":  # d = 8
        problem = replace(
            random_problem(np.random.default_rng(8), n_channels=6, n_qubits=3),
            max_iters=3,
        )
    else:
        build = h_problem if case == "H" else x_problem
        problem = build(seed=3, tol=1e-6)
    if guess == "square":  # a constant 0.1 on every channel
        square = np.full(problem.n_samples, 0.1)
        problem = replace(
            problem, initial_guess={ch: square for ch in problem.model.channels}
        )
    res = krotov_optimize(problem)
    amps, sweeps, status = _reference_krotov(problem)
    assert res.iterations == sweeps and res.status == status
    scale = np.max(np.abs(amps))
    assert np.max(np.abs(res.optimal_params - amps.ravel())) <= 1e-10 * scale


def test_krotov_respects_amplitude_bound():
    res = krotov_optimize(x_problem(amplitude_bound=0.12, tol=1e-6))
    for arr in res.synthesized_samples.values():
        assert np.max(np.abs(arr)) <= 0.12 + 1e-15


@pytest.mark.parametrize("nudge", [1e-13, -1e-13])
def test_krotov_stall_does_not_turn_on_round_off(fixtures, nudge):
    # an X-only, drift-free qubit cannot make H: the loss plateaus at 0.5,
    # and a 1e-13 change to the start moves the plateau's losses by 1e-14
    model = load_model(fixtures / "model_1q_x_nodrift.json")
    target = circuit_unitary(parse_circuit((fixtures / "h.xasm").read_text()))
    problem = ControlProblem(model=model, target_u=target, max_time=10.0)
    start = initial_amplitudes(problem)
    nudged = {ch: start[i] + nudge for i, ch in enumerate(model.channels)}
    base = krotov_optimize(problem)
    moved = krotov_optimize(replace(problem, initial_guess=nudged))
    assert base.status == moved.status == "stalled"
    assert base.iterations == moved.iterations


def test_krotov_is_deterministic():
    a = krotov_optimize(h_problem(tol=1e-5))
    b = krotov_optimize(h_problem(tol=1e-5))
    assert np.array_equal(a.optimal_params, b.optimal_params)
    assert a.trace == b.trace


# ------------------------------------------------------------ cross-method


def test_all_methods_compile_the_same_x_gate():
    target_tol = 1e-3
    model = x_problem().model
    results = {
        "GRAPE": grape_optimize(x_problem(seed=1, tol=target_tol)),
        "krotov": krotov_optimize(x_problem(tol=target_tol)),
        "GOAT": goat_optimize(x_problem(tol=target_tol)),
    }
    for name, res in results.items():
        assert res.final_infidelity <= target_tol, name
        sig = ControlSignal.from_samples(res.synthesized_samples, res.dt)
        u = piecewise_propagator(model, sig)
        gap = abs(infidelity(u, X) - res.final_infidelity)
        # GOAT emits left-endpoint samples of an analytic envelope, so its
        # piecewise re-simulation differs by the discretization error
        assert gap <= (1e-5 if name == "GOAT" else 1e-12), name
