"""Time-domain propagation engines.

Three solvers over a shared bilinear control system H(t) = H_drift +
sum_c s_c(t) * Op_c; each covers exactly the signal's [0, n_samples * dt]:

* ``piecewise_propagator`` / ``evolve_states`` -- exact products of slice
  exponentials for sampled (piecewise-constant) signals, closed systems
  only. Both run ``_propagate``, the one propagation core, which the
  GRAPE, GOAT and Krotov optimizers share: slice exponentials from one
  stacked eigendecomposition (``slice_propagators``), then every partial
  product by a pairwise recursion (``ordered_products``), about 2 log2(N)
  stacked matmuls, in buffers a ``_Propagation`` owns. Qubit stacks (d = 2)
  take a path of plain elementwise arithmetic: the eigendecomposition in
  closed form and every stacked 2x2 product written out (``_matmul``),
  since numpy spends one BLAS call per matrix on a stacked matmul. Their
  (N, 2, 2) stacks keep the slice index as the contiguous axis (Fortran
  order), so each elementwise operation runs over one entry of every
  slice at once; larger stacks stay in C order for eigh and BLAS. Krotov's
  sweep, which sets each slice's amplitudes only after propagating the
  slice before, steps one slice at a time through ``_slice_step`` instead.
* ``evolve_continuous`` -- fixed-step third-order Runge-Kutta integration of
  dU/dt = -i H(t) U for analytic envelopes, with step halving until the
  unitarity defect meets tolerance. It shares no exponential with the other
  engines, so the tests use it as an independent oracle.
* ``lindblad_evolve`` -- exact per-slice propagation of the Lindblad master
  equation for sampled signals: rho_{n+1} = exp(L_n dt) rho_n with the
  Liouvillian L_n constant inside each slice, by Taylor series on
  norm-bounded substeps. The kernel is chosen by d. Up to four levels
  (``_lindblad_superoperators``) every slice's d^2 x d^2 superoperator is
  formed, one stacked Taylor series and a few stacked squarings give all
  their exponentials at once, and each slice costs one matvec: at these
  sizes numpy's per-call overhead, not arithmetic, sets the cost. From
  eight levels on (``_lindblad_factors``) the exponential is applied to rho
  and never formed, each Taylor term being two plain GEMMs:
  L_n(rho) = sum_a A_a rho B_a, with the factors A_a stacked into one left
  matrix and the B_a into one right matrix. Returns the density-matrix
  trajectory at every sample time.

Samples are complex for format compatibility, but with no quadrature
partner declared the imaginary part must vanish; only Re(s) drives Op_c.
"""

from __future__ import annotations

import math
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
MAX_LINDBLAD_SUBSTEPS = 512  # per slice; more means the drive outruns dt
# ample: at substep norm 1 term k is at most 1/k!, below round-off (eps) from
# k = 18, and the Frobenius stop over a superoperator block, at most
# sqrt(256 * 16)/k!, from k = 20
MAX_TAYLOR_TERMS = 24
# Lindblad slices up to this dimension take stacked d^2 x d^2 exponentials;
# at d = 8 the 64 x 64 superoperator products cost about 5x the factor form
MAX_SUPEROPERATOR_DIM = 4
SUPEROPERATOR_BLOCK = 256  # slices per superoperator stack: 1 MiB at d = 4
# slices x d^2 of one grid: at most 64 MiB per (N, d, d) complex slice stack
MAX_SLICE_ENTRIES = 2**22
_EPS = np.finfo(float).eps


@lru_cache(maxsize=16)
def _identity(d: int) -> np.ndarray:
    """The d x d identity, one read-only array shared by every caller."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _check_grid(slices: float, dim: int, error: type[Exception]) -> None:
    """Raise ``error`` unless ``slices`` slices of a dim-level system stay
    within ``MAX_SLICE_ENTRIES``; checked on the float count, so an infinite
    or oversize grid fails before any int() of it or allocation."""
    if not slices * dim**2 <= MAX_SLICE_ENTRIES:  # NaN and inf fail too
        raise error(
            f"{slices:.4g} slices of a {dim}-level system exceed the limit of "
            f"{MAX_SLICE_ENTRIES} slices x d^2"
        )


def _sample_count(duration: float, dt: float, dim: int, error: type[Exception]) -> int:
    """The number of dt slices that tile ``duration``; raise ``error`` unless
    they stay within the grid limit of a dim-level system (``_check_grid``)
    and their total is ``duration`` to 1e-9 relative. Both times must be
    positive and finite."""
    _check_grid(float(duration) / float(dt), dim, error)
    n = int(round(duration / dt))
    if n < 1 or abs(n * dt - duration) > 1e-9 * max(1.0, duration):
        raise error(f"horizon {duration} does not tile into samples of dt={dt}")
    return n


@dataclass(frozen=True)
class ControlSignal:
    """Per-channel drive over [0, duration], sampled or analytic.

    Exactly one of ``samples`` (channel -> complex array, one value per dt)
    and ``envelopes`` (channel -> callable of t) is set. All channels share
    ``n_samples`` and ``dt``; duration = n_samples * dt. The engines take
    at most ``MAX_SLICE_ENTRIES`` slices x d^2 of the model they run on.
    """

    dt: float
    n_samples: int
    samples: Mapping[str, np.ndarray] | None = None
    envelopes: Mapping[str, Callable[[float], complex]] | None = None

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise DynamicsError(f"dt must be positive and finite, got {self.dt}")
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
        if not (0 < duration < np.inf and 0 < dt < np.inf):
            raise DynamicsError(
                f"duration and dt must be positive and finite, got {duration} "
                f"and {dt}"
            )
        n = _sample_count(duration, dt, 1, DynamicsError)
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


def _check_signal(model: SystemModel, signal: ControlSignal) -> None:
    """The signal drives only model channels, on a grid within the limit."""
    _check_grid(signal.n_samples, model.dim, DynamicsError)
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


def _empty(shape: tuple[int, ...], dtype=complex, buffer=None, offset=0) -> np.ndarray:
    """An uninitialised stack in the layout of its matrix size: the slice axis
    contiguous (Fortran order) for qubits, C order otherwise. A 4-D shape is
    a set of (N, d, d) stacks along its first axis, each laid out so. It is
    a new array, or a view of ``buffer`` from byte ``offset`` on."""
    if shape[-1] != 2:
        return np.ndarray(shape, dtype, buffer, offset)
    if len(shape) == 4:
        count, n, d, _ = shape
        stacks = np.ndarray((count, d, d, n), dtype, buffer, offset)
        return stacks.transpose(0, 3, 2, 1)
    return np.ndarray(shape, dtype, buffer, offset, order="F")


def slice_propagators(
    hams: np.ndarray, dt: float, out: tuple | None = None, work: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-i H dt) for one Hermitian H or a stack of them.

    Returns (umats, evals, evecs) with H = evecs diag(evals) evecs^+ per
    slice and evals ascending. Qubit stacks (d = 2) take their
    eigendecomposition in closed form (``_eigh2``) and come back with the
    slice axis contiguous, whatever the input's layout; larger ones come
    from one stacked eigh, in C order, which allocates its evals and evecs.
    Only the lower triangle of H is read; Hermiticity is the caller's
    guarantee. ``out`` = (umats, evals, evecs) and ``work`` = (phases,
    left, right), stacks shaped like evals and like H, are overwritten
    when given and allocated when not.
    """
    umats, evals, evecs = out or (None, None, None)
    phases, left, right = work or (None, None, None)
    if hams.shape[-1] == 2:
        evals, evecs = _eigh2(hams, None if out is None else out[1:])
    else:
        evals, evecs = np.linalg.eigh(hams)
    phases = np.multiply(-1j, evals, out=phases)
    phases *= dt
    np.exp(phases, out=phases)
    left = np.multiply(evecs, phases[..., None, :], out=left)
    right = np.conjugate(evecs, out=right).swapaxes(-1, -2)
    return _matmul(left, right, umats), evals, evecs


def _eigh2(hams: np.ndarray, out: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """eigh of Hermitian 2x2 matrices in closed form, from the lower triangle.

    With H = [[a, b*], [b, c]], mean m = (a + c)/2, half-difference
    h = (a - c)/2, r = hypot(h, |b|) and t = arctan2(|b|, h)/2, the
    eigenvalues are m - r <= m + r, with eigenvectors (-sin t, e^{i arg b}
    cos t) and (cos t, e^{i arg b} sin t). The phase comes from arg b, not
    b/|b|, which overflows when |b| is subnormal; b = 0 gives phase 1.
    Both results are in Fortran order, the slice axis contiguous, and are
    written into ``out`` = (evals, evecs) when given.
    """
    a, c, b = hams[..., 0, 0].real, hams[..., 1, 1].real, hams[..., 1, 0]
    mean, half, mod = 0.5 * (a + c), 0.5 * (a - c), np.abs(b)
    radius = np.hypot(half, mod)
    t = 0.5 * np.arctan2(mod, half)
    cos, sin, phase = np.cos(t), np.sin(t), np.exp(1j * np.angle(b))
    evals, evecs = out or (_empty(hams.shape[:-1], float), _empty(hams.shape))
    evals[..., 0], evals[..., 1] = mean - radius, mean + radius
    evecs[..., 0, 0], evecs[..., 0, 1] = -sin, cos
    evecs[..., 1, 0], evecs[..., 1, 1] = phase * cos, phase * sin
    return evals, evecs


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over stacks, into ``out`` when given; 2x2 stacks as two
    broadcast multiply-adds.

    numpy runs a stacked matmul as one BLAS call per matrix, which for
    d = 2 costs several times the arithmetic written out; from d = 4 on the
    BLAS calls are the faster form. The 2x2 products are formed in Fortran
    order, so each ufunc's inner loop runs along the slice axis, and a new
    result has the slice axis contiguous for operands of any layout, one
    broadcast (2, 2) matrix included. Larger products come back from ``@``
    in C order; a C-order stack times one d x d matrix is one
    (N d, d) x (d, d) GEMM. ``out`` must not overlap a or b.
    """
    if (d := a.shape[-1]) != 2:
        if a.ndim == 3 and b.ndim == 2 and all(
            m is None or m.flags.c_contiguous for m in (a, out)
        ):
            rows = None if out is None else out.reshape(-1, d)
            return np.matmul(a.reshape(-1, d), b, out=rows).reshape(a.shape)
        return np.matmul(a, b, out=out)
    out = np.multiply(a[..., :, 0, None], b[..., None, 0, :], out=out, order="F")
    out += np.multiply(a[..., :, 1, None], b[..., None, 1, :], order="F")
    return out


def ordered_products(
    umats: np.ndarray, out: np.ndarray | None = None, work: list | None = None
) -> np.ndarray:
    """prods[k] = U_k ... U_0 for an (N, d, d) stack of slice propagators.

    A pairwise prefix product (Blelloch, "Prefix sums and their
    applications", 1990): multiply neighbours into pairs U_{2k+1} U_{2k},
    recurse on the N/2 pairs, whose products are the odd entries, and fill
    in each even entry as U_{2k} times the odd entry before it. That is
    about 2 log2(N) stacked products, for twice the flops of the sequential
    loop. Every product is formed in a compact stack, the pairs in place
    of their own prefix products, and reaches ``out`` in one strided copy
    per level: written straight into the strided entries, the products
    run slower. ``out`` may be umats itself. ``work`` holds each level's
    stacks (``_product_work``); without it each level allocates them, and
    without ``out`` the result is new, in the input's layout:
    slice-contiguous for the qubit stacks of ``slice_propagators``, C order
    for larger ones.
    """
    out = np.empty_like(umats) if out is None else out
    out[0] = umats[0]
    if len(umats) > 1:
        (pairs, even), *deeper = work or [(None, None)]
        pairs = _matmul(umats[1::2], umats[:-1:2], pairs)
        ordered_products(pairs, pairs, deeper)  # the odd entries, in place
        out[1::2] = pairs
        out[2::2] = _matmul(umats[2::2], pairs[: (len(umats) - 1) // 2], even)
    return out


def _product_work(
    n: int, d: int, pairs: np.ndarray, even: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The scratch of ``ordered_products`` on n slices: per level, compact
    stacks for the pairs and for the even entries. The levels hold fewer
    than n matrices each way, so they are carved one after the other from
    the memory of two (n, d, d) stacks, ``pairs`` and ``even``, laid out as
    ``_empty`` lays them out: C-order levels are slices of the stacks, and
    qubit levels, slice-contiguous, views of their flat memory.
    """
    if d == 2:
        pairs, even = (w.T.reshape(-1) for w in (pairs, even))  # flat views

    def level(w: np.ndarray, count: int) -> np.ndarray:
        if d == 2:
            return w[4 * first : 4 * (first + count)].reshape(2, 2, count).T
        return w[first : first + count]

    levels, first = [], 0
    while n > 1:
        h, e = n // 2, (n - 1) // 2
        levels.append((level(pairs, h), level(even, e)))
        first += h
        n = h
    return levels


def _times_inverse(
    c: np.ndarray, f: np.ndarray, out: np.ndarray | None = None, work=(None,) * 3
) -> np.ndarray:
    """c F^-1 for a stack F unitary up to round-off, as (c F^+)(2 - F F^+).

    That is one Newton step from the adjoint towards the inverse, exact to
    the square of F's unitarity defect; c may be one matrix or a stack.
    ``out`` and the three stacks of ``work``, shaped like the result, are
    overwritten when given; out may be c itself.
    """
    fh = np.conjugate(f, out=work[0]).swapaxes(-1, -2)
    left = _matmul(c, fh, work[1])
    right = _matmul(f, fh, work[2])
    np.subtract(2.0 * _identity(f.shape[-1]), right, out=right)
    return _matmul(left, right, out)


def _block(*specs: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """Uninitialised arrays of the given (shape, dtype), laid out as
    ``_empty`` lays them out, carved from one allocation at 64-byte offsets.

    One block per buffer set, not one allocation per stack: glibc hands
    freed stacks of a few hundred KB back to the operating system, and the
    next set of the same size faults every page in again, while a freed
    block of a few MB stays in the heap for the next one.
    """
    sizes = [-(-np.dtype(t).itemsize * math.prod(s) // 64) * 64 for s, t in specs]
    block = np.empty(sum(sizes), np.uint8)
    arrays, offset = [], 0
    for (shape, dtype), size in zip(specs, sizes):
        arrays.append(_empty(shape, dtype, block, offset))
        offset += size
    return arrays


def _stacked_hamiltonians(
    drift: np.ndarray, ops: np.ndarray, amps: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """H_n = drift + sum_c amps[c, n] ops[c]: (C, N) amplitudes -> (N, d, d).

    Qubit stacks (d = 2) come out with the slice axis contiguous (Fortran
    order), the layout of the 2x2 path; larger ones in C order for eigh.
    ``out``, laid out so, is overwritten when given. A drive that overflows
    a slice Hamiltonian raises ``DynamicsError``, before any exponential or
    Taylor series sees it, and leaves no RuntimeWarning.
    """
    d = drift.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the result
        if d == 2:
            # row 2j + i of ops.T.reshape(4, C) is entry (i, j) of every op, so
            # the (4, N) product read as [j, i, n] and transposed is [n, i, j]
            rows = None if out is None else out.T.reshape(4, -1)
            hams = np.matmul(ops.T.reshape(4, -1), amps, out=rows).reshape(2, 2, -1).T
        else:
            rows = None if out is None else out.reshape(-1, d * d)
            hams = np.matmul(amps.T, ops.reshape(len(ops), d * d), out=rows)
            hams = hams.reshape(-1, d, d)
        hams += drift
    if not np.isfinite(hams).all():
        raise DynamicsError("the drive overflows: a slice Hamiltonian is not finite")
    return hams


class _Propagation:
    """Slice Hamiltonians, propagators and their forward partial products for
    N slices of a d-level system, in buffers that the instance owns.

    ``_propagate`` overwrites them, so an owner that propagates on one grid
    again and again allocates them once. Fields after each ``_propagate``:
      hams (N,d,d), umats (N,d,d), evals (N,d), evecs (N,d,d),
      fwd (N+1,d,d) with fwd[n] = U_{n-1}...U_0 and fwd[0] = I,
      total = fwd[N].
    Stacks are laid out like umats: for d = 2 with the slice axis
    contiguous. Slice exponentials come from one stacked
    ``slice_propagators`` call and the products from ``ordered_products``.
    The backward products U_{N-1}...U_n are total fwd[n]^-1 by unitarity,
    so they are never formed (see ``_times_inverse``). The gradient's own
    stacks are allocated at its first use, so an objective that is only
    checked never holds them.
    """

    def __init__(self, n: int, d: int):
        # only the qubit path writes evals and evecs in place; eigh has no
        # out=, so larger stacks take the ones each call returns
        eig = (((n, d), float),) if d == 2 else ()
        stacks, self.fwd, phases, *evals = _block(
            ((4 + len(eig), n, d, d), complex), ((n + 1, d, d), complex),
            ((n, d), complex), *eig,
        )
        self.hams, self.umats, left, right, *evecs = stacks
        self.work = (phases, left, right)
        self.evecs, self.evals = (evecs[0], evals[0]) if eig else (None, None)
        self.fwd[0] = _identity(d)
        self.total = self.fwd[-1]
        # the products' scratch lives in the exponentials' left and right
        # factors, spent once umats is formed
        self.product_work = _product_work(n, d, left, right)
        self.gradient_work = None

    def gradient_buffers(self) -> tuple[np.ndarray, ...]:
        """(a, half_sum, half_diff, phi, vh, c, w1, w2, w3) for the gradient.

        w1, w2 and w3 are the propagation's hams and scratch, spent by the
        time a gradient is formed; the rest is allocated at the first one.
        """
        if self.gradient_work is None:
            n, d = self.umats.shape[:2]
            real, stack = ((n, d, d), float), ((n, d, d), complex)
            allocated = _block(((n, d), float), real, real, stack, stack, stack)
            self.gradient_work = (*allocated, self.hams, *self.work[1:])
        return self.gradient_work


def _propagate(
    drift: np.ndarray, ops: np.ndarray, amps: np.ndarray, dt: float,
    out: _Propagation | None = None,
) -> _Propagation:
    """The propagation of (C, N) amplitudes into ``out``, or into new buffers."""
    out = out or _Propagation(amps.shape[1], drift.shape[0])
    hams = _stacked_hamiltonians(drift, ops, amps, out.hams)
    out.umats, out.evals, out.evecs = slice_propagators(
        hams, dt, (out.umats, out.evals, out.evecs), out.work
    )
    ordered_products(out.umats, out.fwd[1:], out.product_work)
    return out


def _slice_step(
    drift: np.ndarray, op_flat: np.ndarray, amps: np.ndarray, dt: float,
    psi: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """out = exp(-i dt H) psi for one slice, H = drift + sum_c amps[c] Op_c.

    The core's slice exponential for one amplitude vector, for a caller
    that must set each slice's amplitudes after the slice before it is
    propagated (Krotov's sweep). ``op_flat`` holds the (C, d^2) flattened
    operators. One product gives H, one LAPACK eigh its eigenbasis, and
    u = (V e^{-i w dt}) V^+ is applied to psi straight into ``out``, which
    must not overlap psi. Qubits take the same eigh: on a single matrix it
    costs fewer numpy calls than the closed form of the stacks. Only the
    lower triangle of H is read.
    """
    ham = (amps @ op_flat).reshape(drift.shape)
    ham += drift
    evals, evecs = np.linalg.eigh(ham)
    left = evecs * np.exp(evals * (-1j * dt))
    return np.matmul(left @ evecs.conj().T, psi, out=out)


def _signal_amplitudes(model: SystemModel, signal: ControlSignal) -> np.ndarray:
    """(C, N) amplitudes of the model's channels; checks the sampled signal."""
    if not signal.is_sampled:
        raise DynamicsError("this engine needs a sampled signal")
    _check_signal(model, signal)
    if abs(signal.dt - model.dt) > 1e-12 * max(1.0, model.dt):
        raise DynamicsError(
            f"signal dt={signal.dt} does not match model dt={model.dt}"
        )
    amps = np.zeros((len(model.channels), signal.n_samples))
    for ch in signal.channels:
        amps[model.channels.index(ch)] = _real_samples(signal, ch)
    return amps


def _slice_hamiltonians(model: SystemModel, signal: ControlSignal) -> np.ndarray:
    """Stack of H(t_n) per slice, (N, dim, dim); checks the sampled signal."""
    amps = _signal_amplitudes(model, signal)
    return _stacked_hamiltonians(model.drift_matrix(), model.control_stack, amps)


def _closed_propagation(model: SystemModel, signal: ControlSignal) -> _Propagation:
    """The core's propagation of a sampled signal on a closed-system model."""
    if model.has_dissipation:
        raise DynamicsError(
            "model has collapse operators; use lindblad_evolve for open systems"
        )
    amps = _signal_amplitudes(model, signal)
    return _propagate(model.drift_matrix(), model.control_stack, amps, signal.dt)


def piecewise_propagator(model: SystemModel, signal: ControlSignal) -> np.ndarray:
    """Total unitary for a sampled signal: product of slice exponentials."""
    return _closed_propagation(model, signal).total.copy()


def evolve_states(
    model: SystemModel, signal: ControlSignal, psi0: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """State-vector trajectory at each sample time under a sampled signal.

    psi(t_{n+1}) = (U_n ... U_0) psi0, every partial product from one run of
    the propagation core.
    """
    psi = np.asarray(psi0, dtype=complex).ravel()
    if psi.size != model.dim:
        raise DynamicsError(f"state dim {psi.size} != model dim {model.dim}")
    if not np.all(np.isfinite(psi)):
        raise DynamicsError("initial state has non-finite entries")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise DynamicsError("initial state is not normalized")
    # numpy picks matmul kernels by stride: apply a compact copy of the products
    states = [psi.copy(), *(np.copy(_closed_propagation(model, signal).fwd[1:]) @ psi)]
    times = np.arange(signal.n_samples + 1) * signal.dt
    return times, states


def _rk3_step(f, t: float, y: np.ndarray, h: float) -> np.ndarray:
    # classical Kutta tableau: nodes (0, 1/2, 1), weights (1/6, 2/3, 1/6)
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + h, y - h * k1 + 2.0 * h * k2)
    return y + (h / 6.0) * (k1 + 4.0 * k2 + k3)


def evolve_continuous(model: SystemModel, signal: ControlSignal) -> np.ndarray:
    """Integrate dU/dt = -i H(t) U with fixed-step RK3 over the signal.

    The step starts at dt/10 and is halved until the unitarity defect of
    the result is within ``UNITARITY_TOL``; running out of halvings, or a
    non-finite result, raises.
    Sampled signals are integrated slice by slice with the Hamiltonian
    frozen inside each slice, so RK stages never straddle a sample
    discontinuity.
    """
    if model.has_dissipation:
        raise DynamicsError(
            "model has collapse operators; use lindblad_evolve for open systems"
        )
    _check_signal(model, signal)
    tau = signal.duration
    drift = model.drift_matrix()
    controls = model.control_matrices()
    chans = signal.channels
    eye = np.eye(model.dim, dtype=complex)
    h0 = signal.dt / 10.0

    def hamiltonian(t: float) -> np.ndarray:
        h = drift.copy()
        for ch in chans:
            value = complex(signal.envelopes[ch](t))
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
        per_slice = max(1, int(np.ceil(signal.dt / h_trial - 1e-12)))
        h = signal.dt / per_slice
        u = eye.copy()
        for n, h_slice in enumerate(_slice_hamiltonians(model, signal)):
            def rhs(t: float, v: np.ndarray, hs=h_slice) -> np.ndarray:
                return -1j * (hs @ v)

            t0 = n * signal.dt
            for k in range(per_slice):
                u = _rk3_step(rhs, t0 + k * h, u, h)
        return u

    integrate = integrate_sliced if signal.is_sampled else integrate_smooth
    for _ in range(MAX_STEP_HALVINGS + 1):
        u = integrate(h0)
        if not np.all(np.isfinite(u)):  # no smaller step mends NaN or inf
            raise DynamicsError("RK3 propagator has non-finite entries")
        defect = np.max(np.abs(u.conj().T @ u - eye))
        if defect <= UNITARITY_TOL:
            return u
        h0 /= 2.0
    raise DynamicsError(
        f"step floor reached; unitarity defect {defect:.3e} > {UNITARITY_TOL:.1e}"
    )


def lindblad_evolve(
    model: SystemModel, signal: ControlSignal, rho0: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Exact Lindblad propagation of a sampled signal; rho at sample times.

    drho/dt = L_n(rho) = -i[H_n, rho] + sum_j gamma_j (L_j rho L_j^+
    - {L_j^+ L_j, rho} / 2) has a constant generator inside each slice, so
    rho_{n+1} = exp(L_n dt) rho_n. With J_j = sqrt(gamma_j) L_j and
    G_n = -i H_n - sum_j J_j^+ J_j / 2, the generator is
    L_n(rho) = G_n rho + rho G_n^+ + sum_j J_j rho J_j^+. Each slice splits
    into substeps whose a-priori generator norm is at most 1; a slice that
    would need more than ``MAX_LINDBLAD_SUBSTEPS`` substeps, or an unbounded
    number, raises ``DynamicsError`` before either kernel runs. The kernel
    is chosen by d: up to ``MAX_SUPEROPERATOR_DIM`` levels every slice's
    d^2 x d^2 exponential is formed at once (``_lindblad_superoperators``);
    larger systems apply the exponential to rho, never forming it
    (``_lindblad_factors``). Both sum Taylor series on the same substep
    bound and clip the Hermiticity round-off of every slice's rho.
    """
    rho_init = np.asarray(rho0, dtype=complex)
    if rho_init.ndim == 1:  # pure state given as a vector
        rho_init = np.outer(rho_init, rho_init.conj())
    if rho_init.shape != (model.dim, model.dim):
        raise DynamicsError(
            f"rho0 shape {rho_init.shape} != ({model.dim}, {model.dim})"
        )
    if not np.all(np.isfinite(rho_init)):
        raise DynamicsError("rho0 has non-finite entries")
    trace = complex(np.trace(rho_init))
    if abs(trace - 1.0) > 1e-9:
        raise DynamicsError("rho0 must have unit trace")
    if np.max(np.abs(rho_init - rho_init.conj().T)) > 1e-9:
        raise DynamicsError("rho0 must be Hermitian")

    gens, jumps, substeps = _lindblad_generators(model, signal)
    kernel = (
        _lindblad_superoperators if model.dim <= MAX_SUPEROPERATOR_DIM
        else _lindblad_factors
    )
    traj = kernel(gens, jumps, substeps, signal.dt, rho_init)
    times = np.arange(signal.n_samples + 1) * signal.dt
    return times, traj


def _lindblad_generators(
    model: SystemModel, signal: ControlSignal
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G_n, J_j, substeps per slice) of a sampled signal on ``model``.

    The guard both Lindblad kernels share: it checks the signal and raises
    ``DynamicsError`` when a slice needs more than ``MAX_LINDBLAD_SUBSTEPS``
    substeps of a-priori generator norm at most 1, or an unbounded number.
    At norm 1 every Taylor term from the second on is at most half the one
    before it, and a slice's series stops on round-off after about 14 terms,
    where substeps of norm 1/2 would take two of about 11: substeps times
    terms is the cost to cut (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
    488 (2011)).
    """
    d = model.dim
    hams = _slice_hamiltonians(model, signal)
    jumps = np.array(
        [np.sqrt(rate) * op for rate, op in model.collapse_terms()], dtype=complex
    ).reshape(-1, d, d)
    jumps_dag = jumps.conj().swapaxes(-1, -2)
    gens = -1j * hams - 0.5 * (jumps_dag @ jumps).sum(axis=0)
    bound = 2.0 * _norm_bound(gens) + np.sum(_norm_bound(jumps) ** 2)
    substeps = np.maximum(1.0, np.ceil(bound * signal.dt))
    if not np.all(substeps <= MAX_LINDBLAD_SUBSTEPS):  # NaN and inf fail too
        raise DynamicsError(
            f"drive too strong for dt={signal.dt}: a slice needs "
            f"{np.max(substeps):.4g} Lindblad substeps (cap {MAX_LINDBLAD_SUBSTEPS})"
        )
    return gens, jumps, substeps.astype(int)


def _lindblad_superoperators(
    gens: np.ndarray, jumps: np.ndarray, substeps: np.ndarray, dt: float,
    rho: np.ndarray,
) -> list[np.ndarray]:
    """rho at every slice boundary from stacked superoperator exponentials.

    On row-major vec(rho), vec(A rho B) = (A kron B^T) vec(rho), so slice n
    has the d^2 x d^2 Liouvillian L_n = G_n kron I + I kron conj(G_n)
    + sum_j J_j kron conj(J_j). Scaling and squaring (Moler and Van Loan,
    SIAM Rev. 45, 3 (2003)): with 2^s at least the largest substep count,
    h = dt / 2^s keeps every ||h L_n|| <= 1, one stacked Taylor series
    gives every exp(h L_n) and s stacked squarings give exp(dt L_n). The
    series stops once a term's Frobenius norm over the stack, which bounds
    each of its entries, is below round-off, or after ``MAX_TAYLOR_TERMS``
    terms. Each slice then costs one matvec. The stacks are formed
    ``SUPEROPERATOR_BLOCK`` slices at a time, so they take a few MB at
    most whatever the slice count.
    """
    d = rho.shape[0]
    squarings = (int(substeps.max()) - 1).bit_length()
    h = dt / 2**squarings
    eye = _identity(d)
    # [a, b, c, e] is row a d + b, column c d + e of the superoperator
    jump_part = jumps[:, :, None, :, None] * jumps.conj()[:, None, :, None, :]
    jump_part = h * jump_part.sum(axis=0)
    vecs = np.empty((len(gens) + 1, d * d), dtype=complex)  # vec(rho) per boundary
    vecs[0] = rho.reshape(-1)
    for first in range(0, len(gens), SUPEROPERATOR_BLOCK):
        g = h * gens[first : first + SUPEROPERATOR_BLOCK]
        sup = g[:, :, None, :, None] * eye[:, None, :]
        sup += eye[:, None, :, None] * g.conj()[:, None, :, None, :]
        sup += jump_part
        sup = sup.reshape(len(g), d * d, d * d)
        term, props = sup, sup + _identity(d * d)
        for k in range(2, MAX_TAYLOR_TERMS + 1):
            if np.vdot(term, term).real <= _EPS**2:
                break
            term = term @ sup
            term *= 1.0 / k
            props += term
        for _ in range(squarings):
            props = props @ props
        for n, prop in enumerate(props, first):
            np.dot(prop, vecs[n], out=vecs[n + 1])
    rhos = vecs[1:].reshape(-1, d, d)
    # the maps keep Hermitian and anti-Hermitian parts apart, so the round-off
    # of every slice is clipped at the end, in one operation
    rhos = 0.5 * (rhos + rhos.conj().swapaxes(1, 2))
    return [rho.copy(), *rhos]


def _lindblad_factors(
    gens: np.ndarray, jumps: np.ndarray, substeps: np.ndarray, dt: float,
    rho: np.ndarray,
) -> list[np.ndarray]:
    """rho at every slice boundary, exp(L_n dt) applied to rho unformed.

    L_n(rho) = sum_a A_a rho B_a over A = (G_n, I, J_1, ...) and
    B = (I, G_n^+, J_1^+, ...). The A_a are laid out as one (d (m+2), d)
    left factor and the B_a as one ((m+2) d, d) right factor, so a Taylor
    term is two GEMMs (``_lindblad_substep``); only the G_n and G_n^+
    blocks change from slice to slice, and each slice takes its own
    substep count.
    """
    d = rho.shape[0]
    factors = len(jumps) + 2
    left = np.empty((d, factors, d), dtype=complex)
    left[:, 1], left[:, 2:] = np.eye(d), jumps.swapaxes(0, 1)
    right = np.empty((factors, d, d), dtype=complex)
    right[0], right[2:] = np.eye(d), jumps.conj().swapaxes(-1, -2)
    left_rows, right_rows = left.reshape(-1, d), right.reshape(-1, d)
    rho = rho.copy()
    traj = [rho]
    for gen, steps in zip(gens, substeps):
        left[:, 0], right[1] = gen, gen.conj().T
        h = dt / steps
        for _ in range(steps):
            rho = _lindblad_substep(left_rows, right_rows, rho, h)
        rho = 0.5 * (rho + rho.conj().T)  # clip Hermiticity round-off
        traj.append(rho)
    return traj


def _norm_bound(mats: np.ndarray) -> np.ndarray:
    """sqrt(||A||_1 ||A||_inf), an upper bound on ||A||_2, per matrix of a stack.

    Each norm takes its own square root, so the product overflows only when
    the bound itself does.
    """
    mag = np.abs(mats)
    cols, rows = mag.sum(axis=-2).max(axis=-1), mag.sum(axis=-1).max(axis=-1)
    return np.sqrt(cols) * np.sqrt(rows)


def _lindblad_substep(
    left: np.ndarray, right: np.ndarray, rho: np.ndarray, h: float
) -> np.ndarray:
    """exp(h L) rho by its Taylor series; L(r) = sum_a A_a r B_a.

    ``left`` is (d (m+2), d) with row i (m+2) + a holding row i of A_a;
    ``right`` is ((m+2) d, d) with the B_a stacked. left r, read as
    (d, (m+2) d), holds the A_a r side by side, so its product with
    ``right`` sums the A_a r B_a. The caller keeps ||h L||_2 <= 1, so term
    k is at most 1/k times the one before it, half or less from the second
    on; the sum stops once a term is below round-off of rho.
    """
    d = rho.shape[0]
    floor = _EPS**2 * np.vdot(rho, rho).real
    total, term = rho.copy(), rho
    for k in range(1, MAX_TAYLOR_TERMS + 1):
        # np.dot: the same GEMMs as @, without matmul's ufunc dispatch
        term = np.dot(np.dot(left, term).reshape(d, -1), right)
        term *= h / k
        total += term
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
    if not np.all(np.isfinite(ops)):
        raise DynamicsError("observable has non-finite entries")
    asymmetry = np.max(np.abs(ops - ops.conj().swapaxes(1, 2)), initial=0.0)
    if not asymmetry <= HERMITICITY_TOL:
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
    if not residual <= 1e-9:
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
    row_format = ", ".join(["%.12g"] * len(header))
    for t, row_values in zip(times, values.tolist()):
        row = [t]
        for q in range(n_qubits):
            x, y, z = row_values[3 * q : 3 * q + 3]
            row += [x, y, z, (1.0 - z) / 2.0]
        row += row_values[3 * n_qubits :]
        lines.append(row_format % tuple(row))
    return "\n".join(lines) + "\n"
