"""Time-domain propagation engines.

Three solvers over a shared bilinear control system H(t) = H_drift +
sum_c s_c(t) * Op_c; each covers exactly the signal's [0, n_samples * dt]:

* ``piecewise_propagator`` / ``evolve_states`` -- exact products of slice
  exponentials for sampled (piecewise-constant) signals, closed systems
  only. Both run ``_propagate``, the one propagation core, which the
  GRAPE, GOAT and Krotov optimizers share: slice exponentials from one
  stacked call (``slice_propagators``), then every partial product by a
  pairwise recursion (``ordered_products``), about 2 log2(N) stacked
  matmuls, in buffers a ``_Propagation`` owns. Larger systems take their
  exponentials from one stacked eigendecomposition. Qubit stacks (d = 2)
  take a path of plain elementwise arithmetic and form no
  eigendecomposition: each slice exponential comes from the su(2)
  exponential map, e^{-i h0 dt}(cos(theta) I - i s h.sigma)
  (``_su2_propagators``), and every stacked 2x2 product is written out
  (``_matmul``), since numpy spends one BLAS call per matrix on a stacked
  matmul. Their (N, 2, 2) stacks keep the slice index as the contiguous
  axis (Fortran order), so each elementwise operation runs over one entry
  of every slice at once; larger stacks stay in C order for eigh and BLAS.
  The core also forms the exact gradient of the trace infidelity in every
  slice amplitude (``_Propagation.gradient``), from the derivative of the
  map that formed each slice; GRAPE and GOAT take it whole. Krotov's
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
from .limits import (
    EXPECTATION_IMAG_TOL, OBSERVABLE_HERMITICITY_TOL, ORACLE_UNITARITY_TOL, STATE_TOL,
    check_grid, check_positive_finite, dt_matches, hermitian_defect, imag_negligible,
    sample_count, unitarity_defect,
)
from .model import SystemModel, build_operator

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
# theta below which the su(2) gradient takes f from its series: the closed
# form loses about eps / theta^2 to cancellation, the series' first omitted
# term, theta^6 / 45360, is below 1e-16 there
SU2_SERIES_BELOW = 1e-2
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ControlSignal:
    """Per-channel drive over [0, duration], sampled or analytic.

    Exactly one of ``samples`` (channel -> complex array, one value per dt)
    and ``envelopes`` (channel -> callable of t) is set. All channels share
    ``n_samples`` and ``dt``; duration = n_samples * dt. The engines take at
    most ``limits.MAX_SLICE_ENTRIES`` slices x d^2 of the model they run on.
    """

    dt: float
    n_samples: int
    samples: Mapping[str, np.ndarray] | None = None
    envelopes: Mapping[str, Callable[[float], complex]] | None = None

    def __post_init__(self):
        check_positive_finite(self.dt, "dt", DynamicsError)
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
        check_positive_finite(duration, "duration", DynamicsError)
        check_positive_finite(dt, "dt", DynamicsError)
        n = sample_count(duration, dt, 1, DynamicsError)
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
    check_grid(signal.n_samples, model.dim, DynamicsError)
    unknown = set(signal.channels) - set(model.channels)
    if unknown:
        raise DynamicsError(
            f"signal channel(s) {sorted(unknown)} not present in the model "
            f"(has {list(model.channels)})"
        )


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
    hams: np.ndarray, dt: float, out: np.ndarray | None = None,
    work: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """exp(-i H dt) for one Hermitian H or a stack of them.

    Returns (umats, evals, evecs). Qubit stacks (d = 2) take the su(2)
    exponential map (``_su2_propagators``) and come back with the slice axis
    contiguous, whatever the input's layout; they return no
    eigendecomposition, so evals and evecs are None. Larger ones come from
    one stacked eigh, in C order: H = evecs diag(evals) evecs^+ per slice,
    evals ascending. Only the lower triangle of H is read; Hermiticity is
    the caller's guarantee. ``out``, the umats stack, and the stacks of
    ``work`` are overwritten when given and allocated when not: for qubits
    ``work`` = (coords, phases) as ``_su2_propagators`` fills them, else
    (phases, left, right), shaped like evals and like H.
    """
    if hams.shape[-1] == 2:
        if hams.ndim == 2:  # one matrix, as a stack of one
            return slice_propagators(hams[None], dt)[0][0], None, None
        return _su2_propagators(hams, dt, out, *(work or ())), None, None
    phases, left, right = work or (None, None, None)
    evals, evecs = np.linalg.eigh(hams)
    phases = np.multiply(-1j, evals, out=phases)
    phases *= dt
    np.exp(phases, out=phases)
    left = np.multiply(evecs, phases[..., None, :], out=left)
    right = np.conjugate(evecs, out=right).swapaxes(-1, -2)
    return _matmul(left, right, out), evals, evecs


def _su2_propagators(
    hams: np.ndarray, dt: float, out: np.ndarray | None = None,
    coords: np.ndarray | None = None, phases: np.ndarray | None = None,
) -> np.ndarray:
    """exp(-i H dt) of an (N, 2, 2) Hermitian stack by the su(2) exponential map.

    The lower triangle [[a, .], [b, c]] reads as H = h0 I + h.sigma with
    h0 = (a + c)/2 and h = (Re b, Im b, (a - c)/2). With r = |h|, a hypot
    chain, theta = r dt and s = sin(theta)/r (s = dt at r = 0),

        exp(-i H dt) = e^{-i h0 dt} (cos(theta) I - i s h.sigma),

    written entry by entry into ``out``, the slice axis contiguous, and
    returned. ``phases`` receives e^{-i h0 dt} and the rows of ``coords``
    hx, hy, hz, cos(theta), s, x = max(theta, eps) and sin(x), what
    ``_su2_gradient`` reads of each slice. All three are overwritten when
    given, coords shaped (7, N) and phases (N,). A slice whose exponent
    overflows raises ``DynamicsError``, and leaves no RuntimeWarning.
    """
    a, c, b = hams[:, 0, 0].real, hams[:, 1, 1].real, hams[:, 1, 0]
    if coords is None:
        coords, phases = np.empty((7, len(hams))), np.empty(len(hams), complex)
    umats = _empty(hams.shape) if out is None else out
    u00, u01, u10, u11 = (umats[:, i, j] for i in (0, 1) for j in (0, 1))
    hx, hy, hz, cos, s, x, sin = coords
    # Every product below has a real factor: numpy may round a complex
    # product by the array's layout and length, and then a slice would not
    # come out the same in every stack. u00 is scratch until U is written.
    np.copyto(u00, b)  # b in the contiguous layout of the rows
    np.copyto(hx, u00.real)
    np.copyto(hy, u00.imag)
    # halved before they are combined, so a finite H gives finite h0 and hz
    angle = np.multiply(c, 0.5, out=x)
    np.multiply(a, 0.5, out=hz)
    hz -= angle
    angle += a * 0.5  # h0, then -h0 dt
    # r = hypot(hypot(hx, hy), hz), each hypot the modulus of a complex
    # number: numpy's is overflow-safe, and several times faster than np.hypot
    np.abs(u00, out=sin)
    np.copyto(u00.real, sin)
    np.copyto(u00.imag, hz)
    with np.errstate(over="ignore"):
        theta = np.abs(u00, out=sin)
        theta *= dt
        angle *= -dt
    if not (np.isfinite(theta).all() and np.isfinite(angle).all()):
        raise DynamicsError("the drive overflows: a slice exponent is not finite")
    if angle.any():
        np.cos(angle, out=phases.real)
        np.sin(angle, out=phases.imag)
    else:  # traceless slices, as on every model without an identity term
        phases.fill(1.0)
    np.cos(theta, out=cos)
    # sin(x)/x rounds to 1 for x below eps, so x = max(theta, eps) gives
    # s = dt at theta = 0 without a division by zero
    np.maximum(theta, _EPS, out=x)
    np.sin(x, out=sin)
    np.divide(sin, x, out=s)
    s *= dt
    # with p = e^{-i h0 dt} and q = -i p: U00, U11 = p cos(theta) +- s hz q,
    # U10, U01 = s hx q +- s hy p
    q = np.multiply(phases, -1j)  # exact: a swap and a sign
    sp, sq = np.multiply(phases, s), np.multiply(q, s, out=q)
    np.multiply(phases, cos, out=u00)
    np.multiply(sq, hz, out=u01)
    np.subtract(u00, u01, out=u11)
    u00 += u01
    np.multiply(sq, hx, out=u10)
    sp *= hy
    np.subtract(u10, sp, out=u01)
    u10 += sp
    return umats


def _su2_gradient(
    state: _Propagation, ops: np.ndarray, c: np.ndarray, overlap: complex, dt: float
) -> np.ndarray:
    """The qubit gradient from the su(2) coordinates of each slice.

    U = e^{-i h0 dt} (cos(theta) I - i s h.sigma) with theta = |h| dt and
    s = sin(theta)/|h| (``_su2_propagators``). With c0 = Tr C_n,
    c_k = Tr(C_n sigma_k), hc = sum_k h_k c_k and
    f = (ds/d|h|) / |h| = dt^3 (theta cos(theta) - sin(theta)) / theta^3,

        Tr(C_n dU/dh0) = -i dt g,
        Tr(C_n dU/dh_k) = e^{-i h0 dt} (h_k (-dt s c0 - i f hc) - i s c_k).

    The first is g times an imaginary number, so h0, the global phase,
    drops out of the loss. With w = -(2/d^2) conj(g) e^{-i h0 dt}, the loss
    derivative along h_k is then real arithmetic on Re(w c0) and the
    I_k = Im(w c_k):

        h_k (f sum_m h_m I_m - dt s Re(w c0)) + s I_k,

    and one (C, 3) x (3, N) product with the Pauli coefficients of the
    control operators, read like H from their lower triangles, gives every
    channel. Below ``SU2_SERIES_BELOW``, f comes from its series
    dt^3 (-1/3 + theta^2/30 - theta^4/840).
    """
    coords, phases = state.work  # as _su2_propagators left them
    h, (cos, s, x, sin) = coords[:3], coords[3:]
    # w C_n, its entries as the rows c00, c10, c01, c11 (d = 2)
    weight = (-0.5 * overlap.conjugate()) * phases
    wc = c.T.reshape(4, -1) * weight
    re, im = wc.real, wc.imag
    along = np.add(re[0], re[3])  # Re(w c0), then the factor of h_k
    rows = np.empty_like(h)  # I_k, then the loss derivative along h_k
    np.add(im[1], im[2], out=rows[0])
    np.subtract(re[2], re[1], out=rows[1])  # c_y = i (c01 - c10)
    np.subtract(im[0], im[3], out=rows[2])
    # f / dt^3 = (cos(x) - sin(x)/x) / x^2, divided twice so that no
    # intermediate overflows
    f = np.divide(sin, x)
    np.subtract(cos, f, out=f)
    f /= x
    f /= x
    t2 = np.minimum(x, SU2_SERIES_BELOW)
    t2 *= t2
    series = (1.0 / 30.0 - t2 / 840.0) * t2 - 1.0 / 3.0
    f = np.where(x < SU2_SERIES_BELOW, series, f)
    f *= dt**3
    along *= s
    along *= -dt
    along += f * (h * rows).sum(axis=0)
    rows *= s
    rows += h * along
    lower, half_z = ops[:, 1, 0], 0.5 * (ops[:, 0, 0] - ops[:, 1, 1]).real
    return np.stack([lower.real, lower.imag, half_z], 1) @ rows


def _eigenbasis_gradient(
    state: _Propagation, ops: np.ndarray, c: np.ndarray, overlap: complex,
    dt: float, work: list,
) -> np.ndarray:
    """The gradient of a d > 2 system in the slice eigenbasis.

    With H = V diag(w) V^+ and a = w*dt,

        d exp(-i H dt) / du = V ( (V^+ (-i dt Op) V) o Phi ) V^+,
        Phi_kl = exp(-i(a_k + a_l)/2) * sinc((a_k - a_l)/2),

    which is exact for any dt and degeneracy-safe (sinc handles a_k == a_l).
    Phi is symmetric, so the overlap derivative Tr(C_n dU_n) equals
    sum_kl (-i dt Op_c)[k,l] Q_n[l,k] with Q_n = V ((V^+ C_n V) o Phi) V^+:
    one product per slice, then one (C, d^2) x (d^2, N) product for all
    channels.
    """
    d = c.shape[-1]
    w1, w2, w3, half, half_sum, half_diff, phi, vh = work
    np.multiply(state.evals, 0.5 * dt, out=half)  # a / 2, (N, d) real
    np.add(half[:, :, None], half[:, None, :], out=half_sum)
    np.subtract(half[:, :, None], half[:, None, :], out=half_diff)
    np.multiply(-1j, half_sum, out=phi)
    np.exp(phi, out=phi)
    # sinc in place: sin(y) / y, with y = eps where y = 0, so that it reads 1
    np.copyto(half_diff, _EPS, where=half_diff == 0)
    phi *= np.divide(np.sin(half_diff, out=half_sum), half_diff, out=half_sum)
    v = state.evecs
    vh = np.conjugate(v, out=vh).swapaxes(1, 2)
    _matmul(_matmul(vh, c, w1), v, w2)
    w2 *= phi
    q = _matmul(_matmul(v, w2, w3), vh, w1)
    dg = (-1j * dt) * (
        ops.reshape(len(ops), d * d) @ q.swapaxes(1, 2).reshape(len(q), d * d).T
    )
    return (-2.0 / d**2) * np.real(np.conj(overlap) * dg)


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
      hams (N,d,d), umats (N,d,d),
      fwd (N+1,d,d) with fwd[n] = U_{n-1}...U_0 and fwd[0] = I,
      total = fwd[N],
    and what ``gradient`` reads of each slice: for qubits the su(2)
    coordinates and the phases e^{-i h0 dt} in ``work``
    (``_su2_propagators``); for d > 2 the eigendecomposition, evals (N,d)
    and evecs (N,d,d), which eigh allocates on every call. Stacks are laid
    out like umats: for d = 2 with the slice axis contiguous. Slice
    exponentials come from one ``slice_propagators`` call and the products
    from ``ordered_products``. The backward products U_{N-1}...U_n are
    total fwd[n]^+, the adjoints of the forward ones by unitarity, so they
    are never formed. The gradient's own stacks are allocated at its first
    use, so a propagation that is only checked never holds them.
    """

    def __init__(self, n: int, d: int):
        qubit = d == 2
        coords = (((7, n), float),) if qubit else ()
        stacks, self.fwd, phases, *coords = _block(
            ((4, n, d, d), complex), ((n + 1, d, d), complex),
            ((n,) if qubit else (n, d), complex), *coords,
        )
        self.hams, self.umats, left, right = stacks
        # the exponentials' scratch: eigh's phases and the factors of
        # V e^{-i w dt} V^+, or the qubit path's coordinates and phases
        self.work = (coords[0], phases) if qubit else (phases, left, right)
        self.evals = self.evecs = None
        self.fwd[0] = np.eye(d)
        self.total = self.fwd[-1]
        # the products' scratch lives in the stacks left and right, spent
        # once umats is formed or, on qubits, never used before
        self.scratch = (left, right)
        self.product_work = _product_work(n, d, left, right)
        self.gradient_work = None

    def gradient(self, ops: np.ndarray, boundary: np.ndarray, dt: float) -> np.ndarray:
        """Exact d(loss)/d(amps), shape (C, N), of the trace infidelity
        L = 1 - |g|^2 / d^2, g = Tr(boundary), for the ops and dt of the
        last propagation and boundary = target^+ total, the product the
        loss was formed from.

        The loss derivative along a slice derivative dU_n is
        -(2/d^2) Re(conj(g) Tr(C_n dU_n)), where the products after slice n
        are U_{N-1}...U_{n+1} = total F^+ with F = fwd[n+1], the adjoint
        standing for the inverse by unitarity, so
        C_n = fwd[n] boundary F^+. The slice derivatives come from
        the map that formed U_n: the su(2) map for qubits
        (``_su2_gradient``), the eigenbasis for larger systems
        (``_eigenbasis_gradient``). Every stack lives in the propagation's
        buffers; the returned gradient is a new array.
        """
        if self.gradient_work is None:
            # (c, w1, w2, w3) for C_n and, for d > 2, (half, half_sum,
            # half_diff, phi, vh) for the eigenbasis sandwich; w1, w2 and w3
            # are hams and the product scratch, spent by the time it is formed
            n, d = self.umats.shape[:2]
            stack = ((n, d, d), complex)
            if d == 2:
                allocated = _block(stack)
            else:
                real = ((n, d, d), float)
                allocated = _block(stack, ((n, d), float), real, real, stack, stack)
            work = (self.hams, *self.scratch)
            self.gradient_work = (allocated[0], *work, *allocated[1:])
        c, *work = self.gradient_work
        adjoints = np.conjugate(self.fwd[1:], out=work[0]).swapaxes(1, 2)
        # fwd[n] (target^+ total) fwd[n+1]^+, every n
        c = _matmul(_matmul(self.fwd[:-1], boundary, work[1]), adjoints, c)
        overlap = complex(boundary.trace())
        if boundary.shape[0] == 2:
            return _su2_gradient(self, ops, c, overlap, dt)
        return _eigenbasis_gradient(self, ops, c, overlap, dt, work)


def _propagate(
    drift: np.ndarray, ops: np.ndarray, amps: np.ndarray, dt: float,
    out: _Propagation | None = None,
) -> _Propagation:
    """The propagation of (C, N) amplitudes into ``out``, or into new buffers."""
    out = out or _Propagation(amps.shape[1], drift.shape[0])
    hams = _stacked_hamiltonians(drift, ops, amps, out.hams)
    out.umats, out.evals, out.evecs = slice_propagators(hams, dt, out.umats, out.work)
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
    costs fewer numpy calls than the su(2) map of the stacks. Only the
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
    if not dt_matches(signal.dt, model.dt):
        raise DynamicsError(
            f"signal dt={signal.dt} does not match model dt={model.dt}"
        )
    amps = np.zeros((len(model.channels), signal.n_samples))
    for ch, samples in signal.samples.items():
        if not imag_negligible(samples):
            raise DynamicsError(
                f"channel {ch!r} has complex samples but no quadrature "
                "partner is declared; imaginary parts must be zero"
            )
        amps[model.channels.index(ch)] = samples.real
    return amps


def _slice_hamiltonians(model: SystemModel, signal: ControlSignal) -> np.ndarray:
    """Stack of H(t_n) per slice, (N, dim, dim); checks the sampled signal."""
    amps = _signal_amplitudes(model, signal)
    return _stacked_hamiltonians(model.drift_matrix(), model.control_stack, amps)


def _check_closed(model: SystemModel) -> None:
    if model.has_dissipation:  # the one guard of the closed-system engines
        raise DynamicsError(
            "model has collapse operators; use lindblad_evolve for open systems"
        )


def _closed_propagation(model: SystemModel, signal: ControlSignal) -> _Propagation:
    """The core's propagation of a sampled signal on a closed-system model."""
    _check_closed(model)
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
    if not abs(np.linalg.norm(psi) - 1.0) <= STATE_TOL:
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
    the result is within ``limits.ORACLE_UNITARITY_TOL``; running out of
    halvings, or a non-finite result, raises. Steps tile each slice, and a
    sampled signal's Hamiltonian is frozen inside each slice, so RK stages
    never straddle a sample discontinuity.
    """
    _check_closed(model)
    _check_signal(model, signal)
    drift = model.drift_matrix()
    controls = model.control_matrices()
    chans = signal.channels
    hams = _slice_hamiltonians(model, signal) if signal.is_sampled else None

    def hamiltonian(t: float) -> np.ndarray:
        h = drift.copy()
        for ch in chans:
            value = complex(signal.envelopes[ch](t))
            if not imag_negligible(value):
                raise DynamicsError(
                    f"channel {ch!r} envelope is complex at t={t}; no "
                    "quadrature partner is declared"
                )
            h += value.real * controls[ch]
        return h

    def integrate(per_slice: int) -> np.ndarray:
        h = signal.dt / per_slice
        u = np.eye(model.dim, dtype=complex)
        for n in range(signal.n_samples):
            def rhs(t: float, v: np.ndarray, hs=None if hams is None else hams[n]):
                return -1j * ((hamiltonian(t) if hs is None else hs) @ v)

            for k in range(per_slice):
                u = _rk3_step(rhs, n * signal.dt + k * h, u, h)
        return u

    for halvings in range(MAX_STEP_HALVINGS + 1):
        u = integrate(10 << halvings)
        if not np.all(np.isfinite(u)):  # no smaller step mends NaN or inf
            raise DynamicsError("RK3 propagator has non-finite entries")
        defect = unitarity_defect(u)
        if defect <= ORACLE_UNITARITY_TOL:
            return u
    raise DynamicsError(
        f"step floor reached; unitarity defect {defect:.3e} > {ORACLE_UNITARITY_TOL:.1e}"
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
    if not abs(trace - 1.0) <= STATE_TOL:
        raise DynamicsError("rho0 must have unit trace")
    if not hermitian_defect(rho_init) <= STATE_TOL:
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
    eye = np.eye(d)
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
        term, props = sup, sup + np.eye(d * d)
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
    if not hermitian_defect(ops) <= OBSERVABLE_HERMITICITY_TOL:
        raise DynamicsError("observable is not Hermitian")
    dim = ops.shape[1]
    # stacked matmuls sum in the same order as one op @ state at a time
    if block.shape[1:] == (dim,):
        bras = block.conj()[:, None, None, :]
        values = (bras @ ops @ block[:, None, :, None])[..., 0, 0]
    elif block.shape[1:] == (dim, dim):
        # Tr(A rho): only the diagonals of the products A rho, d^2 work each,
        # summed as np.trace sums them, so a Pauli string's value keeps its bits
        values = np.einsum("kij,tji->tki", ops, block).sum(-1)
    else:
        raise DynamicsError(f"state shape {block.shape[1:]} does not fit dim {dim}")
    residual = np.max(np.abs(values.imag), initial=0.0)
    if not residual <= EXPECTATION_IMAG_TOL:
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
