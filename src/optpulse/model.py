"""Backend device description: operator expressions and the system model.

A model document is JSON with keys ``n_qubits``, ``dt``, ``drift``
(list of ``{coef, op}``), ``control`` (list of ``{channel, op}``),
and ``collapse`` (list of ``{rate, op}``). Any other key is rejected.

Operator expressions combine the tokens ``X/Y/Z/I/SP/SM`` suffixed with a
qubit index, scalar coefficients, ``+``/``-``, ``*`` and parentheses, e.g.
``"X0"``, ``"0.5*Z0 + 0.5*Z1"``, ``"X0*X1"``. All factors are embedded into
the full 2^n space (qubit 0 = least-significant bit) before combining, so
products of operators on different qubits are tensor-aligned automatically.

hbar = 1 throughout; coefficients are angular frequencies per time unit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import numpy as np

from .circuits import _embed
from .errors import ModelError

HERMITICITY_TOL = 1e-12

_SINGLE_QUBIT_OPS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "I": np.eye(2, dtype=complex),
    "SP": np.array([[0, 0], [1, 0]], dtype=complex),  # |1><0|, raising
    "SM": np.array([[0, 1], [0, 0]], dtype=complex),  # |0><1|, lowering
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>X|Y|Z|I|SP|SM)(?P<idx>\d+)"
    r"|(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<sym>[+\-*()]))"
)


def _tokenize_expr(text: str) -> list[tuple[str, object]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ModelError(f"unknown operator token near {rest[:12]!r} in {text!r}")
        if m.group("op"):
            tokens.append(("op", (m.group("op"), int(m.group("idx")))))
        elif m.group("num"):
            tokens.append(("num", float(m.group("num"))))
        else:
            tokens.append(("sym", m.group("sym")))
        pos = m.end()
    if not tokens:
        raise ModelError("empty operator expression")
    return tokens


class _ExprBuilder:
    """Evaluates an operator expression into a dense 2^n x 2^n matrix."""

    def __init__(self, tokens, n_qubits: int, text: str):
        self.tokens = tokens
        self.n = n_qubits
        self.text = text
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ModelError(f"unexpected end of operator expression {self.text!r}")
        self.pos += 1
        return tok

    def build(self) -> np.ndarray:
        result = self.expression()
        if self._peek() is not None:
            raise ModelError(f"trailing tokens in operator expression {self.text!r}")
        return result

    def _lift(self, value: np.ndarray) -> np.ndarray:
        # bare scalar in a sum means scalar * identity
        if value.ndim == 0:
            return complex(value) * np.eye(1 << self.n, dtype=complex)
        return value

    def expression(self) -> np.ndarray:
        sign = 1.0
        tok = self._peek()
        if tok is not None and tok[0] == "sym" and tok[1] in "+-":
            self._next()
            sign = -1.0 if tok[1] == "-" else 1.0
        value = sign * self.term()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "sym" or tok[1] not in "+-":
                return value
            self._next()
            rhs = self.term()
            if value.ndim != rhs.ndim:
                value, rhs = self._lift(value), self._lift(rhs)
            value = value + rhs if tok[1] == "+" else value - rhs

    def term(self) -> np.ndarray:
        value = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "sym" or tok[1] != "*":
                return value
            self._next()
            rhs = self.factor()
            if value.ndim == 0 or rhs.ndim == 0:
                value = value * rhs
            else:
                value = value @ rhs

    def factor(self):
        tok = self._next()
        kind, payload = tok
        if kind == "num":
            # Scalars are lifted to matrices lazily via term()'s dispatch;
            # represent as 0-d array so `ndim` distinguishes them.
            return np.asarray(payload, dtype=complex)
        if kind == "op":
            name, idx = payload
            if idx >= self.n:
                raise ModelError(
                    f"qubit index {idx} out of range in {self.text!r} "
                    f"(model has {self.n} qubit(s))"
                )
            return _embed(_SINGLE_QUBIT_OPS[name], (idx,), self.n)
        if payload == "(":
            value = self.expression()
            tok = self._next()
            if tok != ("sym", ")"):
                raise ModelError(f"missing ')' in operator expression {self.text!r}")
            return value
        raise ModelError(f"unexpected {payload!r} in operator expression {self.text!r}")


def build_operator(expression: str, n_qubits: int) -> np.ndarray:
    """Materialize an operator expression as a dense 2^n x 2^n matrix."""
    if n_qubits < 1:
        raise ModelError("n_qubits must be positive")
    tokens = _tokenize_expr(expression)
    matrix = _ExprBuilder(tokens, n_qubits, expression).build()
    if matrix.ndim != 2:
        # a bare scalar expression: lift to a multiple of the identity
        matrix = complex(matrix) * np.eye(1 << n_qubits, dtype=complex)
    return matrix


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
        if not self.dt > 0:
            raise ModelError(f"dt must be positive, got {self.dt}")
        channels = [ch for ch, _ in self.control]
        if len(set(channels)) != len(channels):
            dupes = sorted({c for c in channels if channels.count(c) > 1})
            raise ModelError(f"duplicate channel id(s): {dupes}")
        for rate, _ in self.collapse:
            if rate < 0:
                raise ModelError(f"collapse rate must be >= 0, got {rate}")
        drift = np.zeros((self.dim, self.dim), dtype=complex)
        for coef, expr in self.drift:
            op = build_operator(expr, self.n_qubits)
            if np.max(np.abs(op - op.conj().T)) > HERMITICITY_TOL:
                raise ModelError(f"drift operator {expr!r} is not Hermitian")
            drift += coef * op
        controls = np.zeros((len(self.control), self.dim, self.dim), dtype=complex)
        for i, (ch, expr) in enumerate(self.control):
            op = build_operator(expr, self.n_qubits)
            if np.max(np.abs(op - op.conj().T)) > HERMITICITY_TOL:
                raise ModelError(
                    f"control operator {expr!r} on channel {ch!r} is not Hermitian"
                )
            controls[i] = op
        collapse = [
            (rate, build_operator(expr, self.n_qubits)) for rate, expr in self.collapse
        ]
        # built once per model; callers share the arrays, so freeze them
        for arr in (drift, controls, *(op for _, op in collapse)):
            arr.flags.writeable = False
        object.__setattr__(self, "_drift", drift)
        object.__setattr__(self, "_controls", controls)
        object.__setattr__(self, "_collapse", tuple(collapse))

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
        except json.JSONDecodeError as exc:
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
    extra = tuple((-delta * omega0 / 2.0, f"Z{q}") for q in qubits)
    return replace(model, drift=model.drift + extra)
