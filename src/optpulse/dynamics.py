"""Time-domain propagation engines.

Three solvers over a shared bilinear control system H(t) = H_drift +
sum_c s_c(t) * Op_c:

* ``piecewise_propagator`` / ``evolve_states`` -- exact products of slice
  exponentials for sampled (piecewise-constant) signals, closed systems
  only. The slice exponentials come from ``slice_propagators``, one stacked
  eigendecomposition that the GRAPE, GOAT and Krotov optimizers share.
* ``evolve_continuous`` -- fixed-step third-order Runge-Kutta integration of
  dU/dt = -i H(t) U for analytic envelopes, with step halving until the
  unitarity defect meets tolerance. It shares no exponential with the other
  engines, so the tests use it as an independent oracle.
* ``lindblad_evolve`` -- exact per-slice propagation of the Lindblad master
  equation for sampled signals: rho_{n+1} = exp(L_n dt) rho_n with the
  Liouvillian L_n constant inside each slice, applied to rho by a Taylor
  series on norm-bounded substeps (no d^2 x d^2 matrix is formed). Returns
  the density-matrix trajectory at every sample time.

Samples are complex for format compatibility, but with no quadrature
partner declared the imaginary part must vanish; only Re(s) drives Op_c.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DynamicsError
from .model import SystemModel, build_operator

HERMITICITY_TOL = 1e-8
IMAG_SAMPLE_TOL = 1e-12
UNITARITY_TOL = 1e-9  # stricter than the 1e-7 contract; keeps engines in step
MAX_STEP_HALVINGS = 12
MAX_LINDBLAD_SUBSTEPS = 1024  # per slice; more means the drive outruns dt
MAX_TAYLOR_TERMS = 24  # ample: at norm 1/2, term 17 is 2^-17/17! < 1e-20
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ControlSignal:
    """Per-channel drive over [0, duration], sampled or analytic.

    Exactly one of ``samples`` (channel -> complex array, one value per dt)
    and ``envelopes`` (channel -> callable of t) is set. All channels share
    ``n_samples`` and ``dt``; duration = n_samples * dt.
    """

    dt: float
    n_samples: int
    samples: Mapping[str, np.ndarray] | None = None
    envelopes: Mapping[str, Callable[[float], complex]] | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise DynamicsError(f"dt must be positive, got {self.dt}")
        if self.n_samples < 1:
            raise DynamicsError("signal must cover at least one sample")
        if (self.samples is None) == (self.envelopes is None):
            raise DynamicsError("signal needs samples or envelopes, not both")

    @classmethod
    def from_samples(cls, samples: Mapping[str, object], dt: float) -> "ControlSignal":
        arrays: dict[str, np.ndarray] = {}
        n = None
        for ch, values in samples.items():
            arr = np.asarray(values, dtype=complex)
            if arr.ndim != 1:
                raise DynamicsError(f"channel {ch!r} samples must be a 1-D array")
            if not np.all(np.isfinite(arr.view(float))):
                raise DynamicsError(f"channel {ch!r} has non-finite samples")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DynamicsError(
                    f"channel {ch!r} has {arr.size} samples, expected {n}"
                )
            arrays[ch] = arr
        if n is None or n == 0:
            raise DynamicsError("sampled signal needs at least one channel sample")
        return cls(dt=float(dt), n_samples=int(n), samples=arrays)

    @classmethod
    def from_envelopes(
        cls,
        envelopes: Mapping[str, Callable[[float], complex]],
        duration: float,
        dt: float,
    ) -> "ControlSignal":
        if not envelopes:
            raise DynamicsError("analytic signal needs at least one envelope")
        n = int(round(duration / dt))
        if n < 1 or abs(n * dt - duration) > 1e-9 * max(1.0, abs(duration)):
            raise DynamicsError(
                f"duration {duration} is not an integer multiple of dt={dt}"
            )
        return cls(dt=float(dt), n_samples=n, envelopes=dict(envelopes))

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    @property
    def is_sampled(self) -> bool:
        return self.samples is not None

    @property
    def channels(self) -> tuple[str, ...]:
        source = self.samples if self.is_sampled else self.envelopes
        return tuple(source.keys())

    def value(self, channel: str, t: float) -> complex:
        """Drive value at time t (left-constant rule for sampled signals)."""
        if self.is_sampled:
            arr = self.samples[channel]
            idx = int(np.floor(t / self.dt + 1e-12))
            if idx < 0 or idx >= arr.size:
                return 0.0
            return complex(arr[idx])
        return complex(self.envelopes[channel](t))


def _check_signal_channels(model: SystemModel, signal: ControlSignal) -> None:
    unknown = set(signal.channels) - set(model.channels)
    if unknown:
        raise DynamicsError(
            f"signal channel(s) {sorted(unknown)} not present in the model "
            f"(has {list(model.channels)})"
        )


def _real_samples(signal: ControlSignal, channel: str) -> np.ndarray:
    arr = signal.samples[channel]
    if np.max(np.abs(arr.imag), initial=0.0) > IMAG_SAMPLE_TOL:
        raise DynamicsError(
            f"channel {channel!r} has complex samples but no quadrature "
            "partner is declared; imaginary parts must be zero"
        )
    return arr.real


def slice_propagators(
    hams: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-i H dt) for one Hermitian H or a stack of them, by one eigh.

    Returns (umats, evals, evecs) with H = evecs diag(evals) evecs^+ per
    slice. Only the lower triangle of H is read; Hermiticity is the
    caller's guarantee.
    """
    evals, evecs = np.linalg.eigh(hams)
    phases = np.exp(-1j * evals * dt)
    umats = (evecs * phases[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
    return umats, evals, evecs


def matrix_exp_hermitian_skew(hamiltonian: np.ndarray, time: float) -> np.ndarray:
    """exp(-i * H * time) for Hermitian H, via eigendecomposition."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DynamicsError(f"expected a square matrix, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise DynamicsError("matrix is not Hermitian")
    return slice_propagators(h, time)[0]


def _stacked_hamiltonians(
    drift: np.ndarray, ops: np.ndarray, amps: np.ndarray
) -> np.ndarray:
    """H_n = drift + sum_c amps[c, n] ops[c]: (C, N) amplitudes -> (N, d, d)."""
    d = drift.shape[0]
    return drift + (amps.T @ ops.reshape(len(ops), d * d)).reshape(-1, d, d)


def _slice_hamiltonians(model: SystemModel, signal: ControlSignal) -> np.ndarray:
    """Stack of H(t_n) per slice, (N, dim, dim); checks the sampled signal."""
    if not signal.is_sampled:
        raise DynamicsError("this engine needs a sampled signal")
    _check_signal_channels(model, signal)
    if abs(signal.dt - model.dt) > 1e-12 * max(1.0, model.dt):
        raise DynamicsError(
            f"signal dt={signal.dt} does not match model dt={model.dt}"
        )
    amps = np.zeros((len(model.channels), signal.n_samples))
    for ch in signal.channels:
        amps[model.channels.index(ch)] = _real_samples(signal, ch)
    return _stacked_hamiltonians(model.drift_matrix(), model.control_stack, amps)


def piecewise_propagator(model: SystemModel, signal: ControlSignal) -> np.ndarray:
    """Total unitary for a sampled signal: product of slice exponentials."""
    if model.has_dissipation:
        raise DynamicsError(
            "model has collapse operators; use lindblad_evolve for open systems"
        )
    total = np.eye(model.dim, dtype=complex)
    for u in slice_propagators(_slice_hamiltonians(model, signal), signal.dt)[0]:
        total = u @ total
    return total


def evolve_states(
    model: SystemModel, signal: ControlSignal, psi0: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """State-vector trajectory at each sample time under a sampled signal."""
    if model.has_dissipation:
        raise DynamicsError("closed-system trajectory, but model has dissipation")
    psi = np.asarray(psi0, dtype=complex).ravel()
    if psi.size != model.dim:
        raise DynamicsError(f"state dim {psi.size} != model dim {model.dim}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise DynamicsError("initial state is not normalized")
    states = [psi.copy()]
    for u in slice_propagators(_slice_hamiltonians(model, signal), signal.dt)[0]:
        psi = u @ psi
        states.append(psi)
    times = np.arange(signal.n_samples + 1) * signal.dt
    return times, states


def _rk3_step(f, t: float, y: np.ndarray, h: float) -> np.ndarray:
    # classical Kutta tableau: nodes (0, 1/2, 1), weights (1/6, 2/3, 1/6)
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + h, y - h * k1 + 2.0 * h * k2)
    return y + (h / 6.0) * (k1 + 4.0 * k2 + k3)


def evolve_continuous(
    model: SystemModel,
    signal: ControlSignal,
    duration: float | None = None,
    step: float | None = None,
    unitarity_tol: float = UNITARITY_TOL,
) -> np.ndarray:
    """Integrate dU/dt = -i H(t) U with fixed-step RK3 over [0, duration].

    The step starts at dt/10 (or ``step``) and is halved until the unitarity
    defect of the result is within ``unitarity_tol``; running out of
    halvings raises. Sampled signals are integrated slice by slice with the
    Hamiltonian frozen inside each slice, so RK stages never straddle a
    sample discontinuity.
    """
    if model.has_dissipation:
        raise DynamicsError(
            "model has collapse operators; use lindblad_evolve for open systems"
        )
    _check_signal_channels(model, signal)
    tau = signal.duration if duration is None else float(duration)
    if tau <= 0:
        raise DynamicsError(f"duration must be positive, got {tau}")
    drift = model.drift_matrix()
    controls = model.control_matrices()
    chans = signal.channels
    eye = np.eye(model.dim, dtype=complex)
    h0 = signal.dt / 10.0 if step is None else float(step)

    def hamiltonian(t: float) -> np.ndarray:
        h = drift.copy()
        for ch in chans:
            value = signal.value(ch, t)
            if abs(value.imag) > IMAG_SAMPLE_TOL * max(1.0, abs(value)):
                raise DynamicsError(
                    f"channel {ch!r} envelope is complex at t={t}; no "
                    "quadrature partner is declared"
                )
            h += value.real * controls[ch]
        return h

    def integrate_smooth(h_trial: float) -> np.ndarray:
        def rhs(t: float, u: np.ndarray) -> np.ndarray:
            return -1j * (hamiltonian(t) @ u)

        n_steps = max(1, int(np.ceil(tau / h_trial - 1e-12)))
        h = tau / n_steps
        u = eye.copy()
        for k in range(n_steps):
            u = _rk3_step(rhs, k * h, u, h)
        return u

    def integrate_sliced(h_trial: float) -> np.ndarray:
        n_slices = int(round(tau / signal.dt))
        if abs(n_slices * signal.dt - tau) > 1e-9 * max(1.0, tau):
            raise DynamicsError(
                f"duration {tau} is not a multiple of dt={signal.dt} for a "
                "sampled signal"
            )
        per_slice = max(1, int(np.ceil(signal.dt / h_trial - 1e-12)))
        h = signal.dt / per_slice
        u = eye.copy()
        for n, h_slice in enumerate(_slice_hamiltonians(model, signal)[:n_slices]):
            def rhs(t: float, v: np.ndarray, hs=h_slice) -> np.ndarray:
                return -1j * (hs @ v)

            t0 = n * signal.dt
            for k in range(per_slice):
                u = _rk3_step(rhs, t0 + k * h, u, h)
        return u

    integrate = integrate_sliced if signal.is_sampled else integrate_smooth
    for _ in range(MAX_STEP_HALVINGS + 1):
        u = integrate(h0)
        defect = np.max(np.abs(u.conj().T @ u - eye))
        if defect <= unitarity_tol:
            return u
        h0 /= 2.0
    raise DynamicsError(
        f"step floor reached; unitarity defect {defect:.3e} > {unitarity_tol:.1e}"
    )


def lindblad_evolve(
    model: SystemModel,
    signal: ControlSignal,
    rho0: np.ndarray,
    duration: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Exact Lindblad propagation of a sampled signal; rho at sample times.

    drho/dt = L_n(rho) = -i[H_n, rho] + sum_j gamma_j (L_j rho L_j^+
    - {L_j^+ L_j, rho} / 2) has a constant generator inside each slice, so
    rho_{n+1} = exp(L_n dt) rho_n. The exponential is applied to rho, never
    formed: each slice splits into substeps whose a-priori generator norm
    is at most 1/2, and each substep sums the Taylor series of
    exp(h L_n) rho until a term drops below round-off. The drive is off
    past the end of the signal. A slice that would need more than
    ``MAX_LINDBLAD_SUBSTEPS`` substeps raises ``DynamicsError``.
    """
    rho_init = np.asarray(rho0, dtype=complex)
    if rho_init.ndim == 1:  # pure state given as a vector
        rho_init = np.outer(rho_init, rho_init.conj())
    if rho_init.shape != (model.dim, model.dim):
        raise DynamicsError(
            f"rho0 shape {rho_init.shape} != ({model.dim}, {model.dim})"
        )
    trace = complex(np.trace(rho_init))
    if abs(trace - 1.0) > 1e-9:
        raise DynamicsError("rho0 must have unit trace")
    if np.max(np.abs(rho_init - rho_init.conj().T)) > 1e-9:
        raise DynamicsError("rho0 must be Hermitian")

    tau = signal.duration if duration is None else float(duration)
    n_samples = int(round(tau / signal.dt))
    if n_samples < 1 or abs(n_samples * signal.dt - tau) > 1e-9 * max(1.0, tau):
        raise DynamicsError(f"duration {tau} is not a multiple of dt={signal.dt}")
    d = model.dim
    hams = _slice_hamiltonians(model, signal)[:n_samples]
    if n_samples > len(hams):
        idle = np.broadcast_to(model.drift_matrix(), (n_samples - len(hams), d, d))
        hams = np.concatenate([hams, idle])
    jumps = np.array(
        [np.sqrt(rate) * op for rate, op in model.collapse_terms()], dtype=complex
    ).reshape(-1, d, d)
    jumps_dag = jumps.conj().swapaxes(-1, -2)
    # For Hermitian rho, L_n(rho) = W + W^+ with W = sum_j A_j rho B_j over
    # A = (G_n, J_1, ...), B = (I, J_1^+/2, ...) and G_n = -i H_n - sum_j J_j^+ J_j/2
    gens = -1j * hams - 0.5 * (jumps_dag @ jumps).sum(axis=0)
    rights = np.concatenate([np.eye(d, dtype=complex)[None], 0.5 * jumps_dag])
    bound = 2.0 * _norm_bound(gens) + np.sum(_norm_bound(jumps) ** 2)
    substeps = np.maximum(1, np.ceil(2.0 * bound * signal.dt)).astype(int)
    if substeps.max() > MAX_LINDBLAD_SUBSTEPS:
        raise DynamicsError(
            f"drive too strong for dt={signal.dt}: a slice needs {substeps.max()} "
            f"Lindblad substeps (cap {MAX_LINDBLAD_SUBSTEPS})"
        )
    rho = rho_init.copy()
    traj = [rho]
    for gen, steps in zip(gens, substeps):
        lefts = np.concatenate([gen[None], jumps])
        h = signal.dt / steps
        for _ in range(steps):
            rho = _lindblad_substep(lefts, rights, rho, h)
        rho = 0.5 * (rho + rho.conj().T)  # clip Hermiticity round-off
        traj.append(rho)
    times = np.arange(n_samples + 1) * signal.dt
    return times, traj


def _norm_bound(mats: np.ndarray) -> np.ndarray:
    """sqrt(||A||_1 ||A||_inf), an upper bound on ||A||_2, per matrix of a stack."""
    mag = np.abs(mats)
    return np.sqrt(mag.sum(axis=-2).max(axis=-1) * mag.sum(axis=-1).max(axis=-1))


def _lindblad_substep(
    lefts: np.ndarray, rights: np.ndarray, rho: np.ndarray, h: float
) -> np.ndarray:
    """exp(h L) rho for Hermitian rho by its Taylor series; L(r) = W + W^+.

    The caller keeps ||h L||_2 <= 1/2, so each term is at most half the one
    before it; the sum stops once a term is below round-off of rho.
    """
    floor = _EPS**2 * np.vdot(rho, rho).real
    total = term = rho
    for k in range(1, MAX_TAYLOR_TERMS + 1):
        w = (lefts @ term @ rights).sum(axis=0)
        term = (h / k) * (w + w.conj().T)
        total = total + term
        if np.vdot(term, term).real <= floor:
            break
    return total


def expectation(operator: np.ndarray, state: np.ndarray) -> float:
    """<psi|A|psi> for a vector or Tr(A rho) for a density matrix."""
    return float(_expectations([operator], [state])[0, 0])


def _expectations(operators, states) -> np.ndarray:
    """Real <A> per state (rows) and Hermitian operator (columns); kets or rhos."""
    try:
        ops = np.array(operators, dtype=complex)
        block = np.array(states, dtype=complex)
    except ValueError:
        raise DynamicsError("observables or states differ in shape") from None
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DynamicsError(f"observable shape {ops.shape[1:]} is not square")
    if np.max(np.abs(ops - ops.conj().swapaxes(1, 2)), initial=0.0) > HERMITICITY_TOL:
        raise DynamicsError("observable is not Hermitian")
    dim = ops.shape[1]
    # stacked matmuls sum in the same order as one op @ state at a time
    if block.shape[1:] == (dim,):
        bras = block.conj()[:, None, None, :]
        values = (bras @ ops @ block[:, None, :, None])[..., 0, 0]
    elif block.shape[1:] == (dim, dim):
        values = np.trace(ops @ block[:, None], axis1=-2, axis2=-1)
    else:
        raise DynamicsError(f"state shape {block.shape[1:]} does not fit dim {dim}")
    residual = np.max(np.abs(values.imag), initial=0.0)
    if residual > 1e-9:
        raise DynamicsError(f"expectation has imaginary residual {residual:.3e}")
    return values.real + 0.0  # turns -0.0, which prints as "-0", into 0.0


@lru_cache(maxsize=8)
def _pauli_stack(n_qubits: int) -> np.ndarray:
    """X0, Y0, Z0, X1, ... as one read-only (3n, 2^n, 2^n) stack."""
    stack = np.array(
        [build_operator(f"{p}{q}", n_qubits) for q in range(n_qubits) for p in "XYZ"]
    )
    stack.flags.writeable = False
    return stack


def trajectory_csv(
    times: np.ndarray,
    states: list[np.ndarray],
    n_qubits: int,
    extra: Mapping[str, np.ndarray] | None = None,
) -> str:
    """CSV dump of per-qubit Pauli expectations and excited populations.

    Columns: ``t, <X0>, <Y0>, <Z0>, p_excited`` and for each further qubit i
    ``<Xi>, <Yi>, <Zi>, p_excited{i}``; optional extra observables append
    their label as-is. 12 significant digits.
    """
    extra = dict(extra or {})
    values = _expectations([*_pauli_stack(n_qubits), *extra.values()], states)
    header = ["t"]
    for q in range(n_qubits):
        suffix = "" if q == 0 else str(q)
        header += [f"<X{q}>", f"<Y{q}>", f"<Z{q}>", f"p_excited{suffix}"]
    header += list(extra.keys())
    lines = [", ".join(header)]
    for t, row_values in zip(times, values.tolist()):
        row = [t]
        for q in range(n_qubits):
            x, y, z = row_values[3 * q : 3 * q + 3]
            row += [x, y, z, (1.0 - z) / 2.0]
        row += row_values[3 * n_qubits :]
        lines.append(", ".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"
