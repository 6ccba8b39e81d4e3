"""Backend device description: operator expressions and the system model.

A model document is JSON with keys ``n_qubits``, ``dt``, ``drift``
(list of ``{coef, op}``), ``control`` (list of ``{channel, op}``),
and ``collapse`` (list of ``{rate, op}``). Any other key is rejected.

Operator expressions use the angle grammar of :mod:`optpulse.circuits`
(``+ - *``, a sign before any factor, parentheses) over scalar coefficients
and the factors ``X/Y/Z/I/SP/SM`` suffixed with a qubit index, e.g.
``"X0"``, ``"0.5*Z0 + 0.5*Z1"``, ``"X0*-X1"``. They have no ``/`` and take no
comments. All factors are embedded into the full 2^n space (qubit 0 =
least-significant bit) before combining, so products of operators on
different qubits are tensor-aligned automatically; a scalar in a sum is that
multiple of the identity.

hbar = 1 throughout; coefficients are angular frequencies per time unit.
"""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import _OPERATOR_LEXER, _Arithmetic, _embed, _tokenize
from .errors import CircuitSyntaxError, ModelError

HERMITICITY_TOL = 1e-12

_SINGLE_QUBIT_OPS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "I": np.eye(2, dtype=complex),
    "SP": np.array([[0, 0], [1, 0]], dtype=complex),  # |1><0|, raising
    "SM": np.array([[0, 1], [0, 0]], dtype=complex),  # |0><1|, lowering
}


@lru_cache(maxsize=1024)  # matching a name costs more than the rest of a factor
def _factor(name: str) -> tuple[np.ndarray, int] | None:
    """(single-qubit matrix, qubit) named by e.g. ``SM1``; None if no operator."""
    m = re.fullmatch(r"(X|Y|Z|I|SP|SM)(\d+)", name)
    return None if m is None else (_SINGLE_QUBIT_OPS[m[1]], int(m[2]))


class _OperatorParser(_Arithmetic):
    """The shared grammar over operators: a number is a 0-d complex array,
    ``*`` scales or takes the matrix product, a scalar in a sum is lifted to
    a multiple of the identity, and there is no ``/``."""

    products = "*"

    def __init__(self, tokens, n_qubits: int):
        super().__init__(tokens)
        self.n_qubits = n_qubits

    def atom(self, tok) -> np.ndarray:
        if tok.kind == "number":
            if not math.isfinite(value := float(tok.text)):
                raise tok.error(f"number {tok.text!r} overflows")
            return np.asarray(value, dtype=complex)
        try:
            factor = _factor(tok.text)
        except ValueError:  # an index past int()'s digit limit
            raise tok.error("qubit index out of range") from None
        if factor is None:
            raise tok.error(f"unknown operator {tok.text!r}")
        op, qubit = factor
        if qubit >= self.n_qubits:
            raise tok.error(f"qubit index out of range in {tok.text!r}")
        return _embed(op, (qubit,), self.n_qubits)

    def apply(self, op: str, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        if op == "*":
            return lhs * rhs if lhs.ndim == 0 or rhs.ndim == 0 else lhs @ rhs
        if lhs.ndim != rhs.ndim:
            lhs, rhs = self.lift(lhs), self.lift(rhs)
        return lhs + rhs if op == "+" else lhs - rhs

    def negate(self, value: np.ndarray) -> np.ndarray:
        return -1.0 * value

    def lift(self, value: np.ndarray) -> np.ndarray:
        if value.ndim == 0:
            return complex(value) * np.eye(1 << self.n_qubits, dtype=complex)
        return value


def build_operator(expression: str, n_qubits: int) -> np.ndarray:
    """Materialize an operator expression as a dense 2^n x 2^n matrix."""
    if n_qubits < 1:
        raise ModelError("n_qubits must be positive")
    try:  # the shared parser's positioned errors become the model's error
        parser = _OperatorParser(_tokenize(expression, _OPERATOR_LEXER), n_qubits)
        matrix = parser.expression()
        if (tok := parser.peek()) is not None:
            raise tok.error(f"unexpected {tok.text!r}")
    except CircuitSyntaxError as exc:
        raise ModelError(
            f"{exc} in operator expression {expression!r} on {n_qubits} qubit(s)"
        ) from None
    return parser.lift(matrix)


@dataclass(frozen=True)
class SystemModel:
    """Immutable device model: drift/control operators, dissipation, timing.

    ``drift`` holds (coefficient, expression) pairs, ``control`` holds
    (channel id, expression) pairs and ``collapse`` holds (rate, expression)
    pairs.
    """

    n_qubits: int
    dt: float
    drift: tuple[tuple[float, str], ...] = ()
    control: tuple[tuple[str, str], ...] = ()
    collapse: tuple[tuple[float, str], ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ModelError("n_qubits must be positive")
        if not 0 < self.dt < np.inf:
            raise ModelError(f"dt must be positive and finite, got {self.dt}")
        channels = [ch for ch, _ in self.control]
        if len(set(channels)) != len(channels):
            dupes = sorted({c for c in channels if channels.count(c) > 1})
            raise ModelError(f"duplicate channel id(s): {dupes}")
        zeros = np.zeros((1, self.dim, self.dim), dtype=complex)
        object.__setattr__(self, "_drift", zeros[0])
        object.__setattr__(self, "_controls", zeros[:0])
        object.__setattr__(self, "_collapse", ())
        self._add_terms(self.drift, self.control, self.collapse)

    def _add_terms(self, drift, control, collapse) -> None:
        """Build and check the operators of the given terms and add them to
        the model's: the drift terms into H_drift, the control and collapse
        operators after the ones it has. The arrays are replaced, not
        written, since callers may share them."""
        for rate, expr in collapse:
            if not 0 <= rate < np.inf:
                raise ModelError(
                    f"collapse rate of {expr!r} must be finite and >= 0, got {rate}"
                )
        total = self._drift.copy()
        for coef, expr in drift:
            if not np.isfinite(coef):
                raise ModelError(f"drift coefficient of {expr!r} is {coef}")
            op = build_operator(expr, self.n_qubits)
            # written so that NaN, which every comparison fails, is rejected
            if not np.max(np.abs(op - op.conj().T)) <= HERMITICITY_TOL:
                raise ModelError(
                    f"drift operator {expr!r} is not a finite Hermitian matrix"
                )
            total += coef * op
        if not np.isfinite(total).all():
            raise ModelError("drift Hamiltonian overflows")
        controls = np.zeros((len(control), self.dim, self.dim), dtype=complex)
        for i, (ch, expr) in enumerate(control):
            op = build_operator(expr, self.n_qubits)
            if not np.max(np.abs(op - op.conj().T)) <= HERMITICITY_TOL:
                raise ModelError(
                    f"control operator {expr!r} on channel {ch!r} is not a finite "
                    "Hermitian matrix"
                )
            controls[i] = op
        controls = np.concatenate([self._controls, controls])
        jumps = []
        for rate, expr in collapse:
            op = build_operator(expr, self.n_qubits)
            if not np.isfinite(op).all():
                raise ModelError(f"collapse operator {expr!r} is not finite")
            jumps.append((rate, op))
        # built once per model; callers share the arrays, so freeze them
        for arr in (total, controls, *(op for _, op in jumps)):
            arr.flags.writeable = False
        object.__setattr__(self, "_drift", total)
        object.__setattr__(self, "_controls", controls)
        object.__setattr__(self, "_collapse", self._collapse + tuple(jumps))

    def with_terms(self, drift=(), collapse=()) -> SystemModel:
        """This model with ``drift`` (coefficient, expression) and
        ``collapse`` (rate, expression) terms appended: equal to
        ``dataclasses.replace`` with the longer tuples, and with the same
        operators, but only the new terms are built."""
        drift, collapse = tuple(drift), tuple(collapse)
        model = copy.copy(self)  # shares the built operators
        object.__setattr__(model, "drift", self.drift + drift)
        object.__setattr__(model, "collapse", self.collapse + collapse)
        model._add_terms(drift, (), collapse)
        return model

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(ch for ch, _ in self.control)

    def drift_matrix(self) -> np.ndarray:
        """H_drift = sum of coef * op; read-only."""
        return self._drift

    @property
    def control_stack(self) -> np.ndarray:
        """Control operators stacked in channel order, (C, dim, dim); read-only."""
        return self._controls

    def control_matrices(self) -> dict[str, np.ndarray]:
        return dict(zip(self.channels, self._controls))

    def collapse_terms(self) -> list[tuple[float, np.ndarray]]:
        """(rate, operator) pairs with strictly positive rate."""
        return [(rate, op) for rate, op in self._collapse if rate > 0]

    @property
    def has_dissipation(self) -> bool:
        return any(rate > 0 for rate, _ in self.collapse)


_SCHEMA_KEYS = {"n_qubits", "dt", "drift", "control", "collapse"}


def parse_model(document: str | dict) -> SystemModel:
    """Parse a model document (JSON text or an already-decoded dict)."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
            raise ModelError(f"model document is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    unknown = set(doc) - _SCHEMA_KEYS
    if unknown:
        raise ModelError(f"unknown model key(s): {sorted(unknown)}")
    for key in ("n_qubits", "dt"):
        if key not in doc:
            raise ModelError(f"model document missing required key {key!r}")
    if not isinstance(doc["n_qubits"], int) or isinstance(doc["n_qubits"], bool):
        raise ModelError("n_qubits must be an integer")
    try:
        dt = float(doc["dt"])
        drift = tuple(
            (float(entry["coef"]), str(entry["op"]))
            for entry in doc.get("drift", [])
        )
        control = tuple(
            (str(entry["channel"]), str(entry["op"]))
            for entry in doc.get("control", [])
        )
        collapse = tuple(
            (float(entry["rate"]), str(entry["op"]))
            for entry in doc.get("collapse", [])
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise ModelError(f"malformed model entry: {exc!r}") from exc
    return SystemModel(
        n_qubits=doc["n_qubits"],
        dt=dt,
        drift=drift,
        control=control,
        collapse=collapse,
    )


def load_model(path) -> SystemModel:
    with open(path, encoding="utf-8") as handle:
        return parse_model(handle.read())


def serialize_model(model: SystemModel) -> str:
    """Canonical JSON for a model; parse(serialize(m)) == m byte-stably."""
    doc = {
        "n_qubits": model.n_qubits,
        "dt": model.dt,
        "drift": [{"coef": c, "op": op} for c, op in model.drift],
        "control": [{"channel": ch, "op": op} for ch, op in model.control],
        "collapse": [{"rate": r, "op": op} for r, op in model.collapse],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def apply_detuning(
    model: SystemModel,
    delta: float,
    omega0: float = 2.0 * np.pi,
    qubits: tuple[int, ...] | None = None,
) -> SystemModel:
    """Add the static drive/qubit frequency mismatch as a Z drift.

    A local oscillator at ``(1 + delta) * omega0`` seen from the qubit's
    rotating frame leaves a constant ``-delta * omega0 / 2`` Z term per
    detuned qubit (all qubits by default). ``delta == 0`` is a no-op.
    """
    if delta == 0.0:
        return model
    if qubits is None:
        qubits = tuple(range(model.n_qubits))
    return model.with_terms(drift=((-delta * omega0 / 2.0, f"Z{q}") for q in qubits))
