"""Gate-level circuit IR: assembly parser, parameter binding, unitary builder.

The accepted dialect is a small quantum-assembly subset: one statement per
line or ``;``-separated, ``//`` comments, statements of the form
``Name(q[i], args...)``. Angle arguments are arithmetic expressions over
numbers and ``pi``; a bare identifier declares a free (symbolic) parameter.

Qubit 0 is the least-significant bit of the computational-basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CircuitError, CircuitSyntaxError

# name -> (number of target qubits, number of angle parameters)
GATE_SIGNATURES: dict[str, tuple[int, int]] = {
    "X": (1, 0),
    "Y": (1, 0),
    "Z": (1, 0),
    "H": (1, 0),
    "Rx": (1, 1),
    "Ry": (1, 1),
    "Rz": (1, 1),
    "CNOT": (2, 0),
    "CZ": (2, 0),
    "CPhase": (2, 1),
    "Swap": (2, 0),
}

DEFAULT_QUBIT_CAP = 4


@dataclass(frozen=True)
class Gate:
    """A single gate application. Params may hold symbolic names (str)."""

    name: str
    targets: tuple[int, ...]
    params: tuple[float | str, ...] = ()

    def __post_init__(self):
        sig = GATE_SIGNATURES.get(self.name)
        if sig is None:
            raise CircuitError(f"unknown gate {self.name!r}")
        n_targets, n_params = sig
        if len(self.targets) != n_targets:
            raise CircuitError(
                f"{self.name} expects {n_targets} target(s), got {len(self.targets)}"
            )
        if len(self.params) != n_params:
            raise CircuitError(
                f"{self.name} expects {n_params} parameter(s), got {len(self.params)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise CircuitError(f"{self.name} targets must be distinct: {self.targets}")

    @property
    def is_concrete(self) -> bool:
        return not any(isinstance(p, str) for p in self.params)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate program over ``n_qubits`` qubits."""

    n_qubits: int
    gates: tuple[Gate, ...]
    free_params: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.n_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        for g in self.gates:
            if any(t >= self.n_qubits or t < 0 for t in g.targets):
                raise CircuitError(
                    f"{g.name} targets {g.targets} out of range for "
                    f"{self.n_qubits} qubit(s)"
                )
        symbolic = _collect_free_params(self.gates)
        if tuple(symbolic) != tuple(self.free_params):
            raise CircuitError(
                f"free_params {self.free_params} do not match symbols used "
                f"by the gates {tuple(symbolic)}"
            )

    @property
    def is_concrete(self) -> bool:
        return not self.free_params


def _collect_free_params(gates) -> list[str]:
    seen: list[str] = []
    for g in gates:
        for p in g.params:
            if isinstance(p, str) and p not in seen:
                seen.append(p)
    return seen


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SYMBOLS = set("()[],;+-*/")


@dataclass
class _Token:
    kind: str  # 'name' | 'number' | 'symbol'
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise CircuitSyntaxError(f"bad number literal {text!r}", line, start_col)
            tokens.append(_Token("number", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token("symbol", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise CircuitSyntaxError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Parser:
    """Recursive-descent parser for the assembly dialect."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("symbol", "", 1, 1)
            raise CircuitSyntaxError("unexpected end of input", last.line, last.col)
        if expect is not None and tok.text != expect:
            raise CircuitSyntaxError(
                f"expected {expect!r}, found {tok.text!r}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def parse_statements(self) -> list[tuple[str, list, _Token]]:
        stmts = []
        while True:
            tok = self._peek()
            if tok is None:
                return stmts
            if tok.text == ";":  # empty statement / trailing separator
                self._next()
                continue
            stmts.append(self._statement())

    def _statement(self):
        name_tok = self._next()
        if name_tok.kind != "name":
            raise CircuitSyntaxError(
                f"expected gate name, found {name_tok.text!r}",
                name_tok.line,
                name_tok.col,
            )
        self._next("(")
        args = []
        if self._peek() is not None and self._peek().text != ")":
            args.append(self._argument())
            while self._peek() is not None and self._peek().text == ",":
                self._next(",")
                args.append(self._argument())
        self._next(")")
        tok = self._peek()
        if tok is not None and tok.text == ";":
            self._next()
        return name_tok.text, args, name_tok

    def _argument(self):
        tok = self._peek()
        if tok is not None and tok.kind == "name" and tok.text == "q":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt.text == "[":
                self._next()  # q
                self._next("[")
                idx_tok = self._next()
                if idx_tok.kind != "number" or not idx_tok.text.isdigit():
                    raise CircuitSyntaxError(
                        f"qubit index must be an integer, found {idx_tok.text!r}",
                        idx_tok.line,
                        idx_tok.col,
                    )
                self._next("]")
                return ("qubit", int(idx_tok.text), idx_tok)
        return ("angle", self._expression(), tok)

    # expression := term (('+'|'-') term)*
    def _expression(self):
        value = self._term()
        while self._peek() is not None and self._peek().text in "+-":
            op = self._next().text
            rhs = self._term()
            value = self._combine(value, rhs, op)
        return value

    def _term(self):
        value = self._unary()
        while self._peek() is not None and self._peek().text in "*/":
            op = self._next().text
            rhs = self._unary()
            value = self._combine(value, rhs, op)
        return value

    def _unary(self):
        tok = self._peek()
        if tok is not None and tok.text == "-":
            self._next()
            value = self._unary()
            return self._combine(0.0, value, "-")
        if tok is not None and tok.text == "+":
            self._next()
            return self._unary()
        return self._primary()

    def _primary(self):
        tok = self._next()
        if tok.kind == "number":
            return float(tok.text)
        if tok.kind == "name":
            if tok.text == "pi":
                return math.pi
            return ("symbol", tok.text, tok)
        if tok.text == "(":
            value = self._expression()
            self._next(")")
            return value
        raise CircuitSyntaxError(
            f"expected number, identifier, or '(', found {tok.text!r}",
            tok.line,
            tok.col,
        )

    @staticmethod
    def _combine(lhs, rhs, op: str):
        # Free parameters must stand alone; arithmetic over symbols is out of
        # the dialect.
        for side in (lhs, rhs):
            if isinstance(side, tuple) and side[0] == "symbol":
                tok = side[2]
                raise CircuitSyntaxError(
                    f"free parameter {side[1]!r} cannot appear inside arithmetic",
                    tok.line,
                    tok.col,
                )
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if rhs == 0.0:
            raise CircuitError("division by zero in angle expression")
        return lhs / rhs


def parse_angle(text: str) -> float:
    """Value of one angle expression of the dialect, e.g. ``3*pi/4``."""
    parser = _Parser(_tokenize(text))
    value = parser._expression()
    if parser._peek() is not None or isinstance(value, tuple):
        raise CircuitError(f"cannot parse numeric value {text!r}")
    return value


def parse_circuit(source: str, n_qubits: int | None = None) -> Circuit:
    """Parse assembly source into a :class:`Circuit`.

    ``n_qubits`` may be given explicitly (indices are then range-checked
    against it); otherwise it is inferred as ``max target index + 1``.
    """
    tokens = _tokenize(source)
    statements = _Parser(tokens).parse_statements()
    gates: list[Gate] = []
    max_index = -1
    for name, args, name_tok in statements:
        sig = GATE_SIGNATURES.get(name)
        if sig is None:
            raise CircuitSyntaxError(
                f"unknown gate {name!r}", name_tok.line, name_tok.col
            )
        n_targets, n_params = sig
        targets = [a for a in args if a[0] == "qubit"]
        angles = [a for a in args if a[0] == "angle"]
        if len(targets) != n_targets or len(angles) != n_params:
            raise CircuitSyntaxError(
                f"{name} expects {n_targets} qubit(s) and {n_params} angle(s), "
                f"got {len(targets)} and {len(angles)}",
                name_tok.line,
                name_tok.col,
            )
        target_ids = []
        for _, idx, tok in targets:
            if n_qubits is not None and idx >= n_qubits:
                raise CircuitSyntaxError(
                    f"qubit index {idx} out of range for {n_qubits} qubit(s)",
                    tok.line,
                    tok.col,
                )
            target_ids.append(idx)
            max_index = max(max_index, idx)
        params: list[float | str] = []
        for _, value, _tok in angles:
            if isinstance(value, tuple):  # ('symbol', name, token)
                params.append(value[1])
            else:
                params.append(float(value))
        try:
            gates.append(Gate(name, tuple(target_ids), tuple(params)))
        except CircuitError as exc:
            raise CircuitSyntaxError(str(exc), name_tok.line, name_tok.col) from exc
    if n_qubits is None:
        n_qubits = max(max_index + 1, 1)
    return Circuit(n_qubits, tuple(gates), tuple(_collect_free_params(gates)))


def eval_parametric(circuit: Circuit, values: list[float]) -> Circuit:
    """Bind free parameters (in declaration order) and return a concrete circuit."""
    if len(values) != len(circuit.free_params):
        raise CircuitError(
            f"expected {len(circuit.free_params)} value(s) for parameters "
            f"{circuit.free_params}, got {len(values)}"
        )
    binding = dict(zip(circuit.free_params, (float(v) for v in values)))
    gates = tuple(
        replace(
            g,
            params=tuple(
                binding[p] if isinstance(p, str) else p for p in g.params
            ),
        )
        for g in circuit.gates
    )
    return Circuit(circuit.n_qubits, gates, ())


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the gate's unitary (2x2 or 4x4, complex).

    Two-qubit matrices are indexed with ``targets[0]`` as the low local bit,
    matching the global least-significant-bit convention.
    """
    if not gate.is_concrete:
        raise CircuitError(f"gate {gate.name} has unresolved symbolic parameters")
    name = gate.name
    if name == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "Y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if name == "Z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if name == "H":
        return _SQRT_HALF * np.array([[1, 1], [1, -1]], dtype=complex)
    if name in ("Rx", "Ry", "Rz"):
        theta = float(gate.params[0])
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        if name == "Rx":
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if name == "Ry":
            return np.array([[c, -s], [s, c]], dtype=complex)
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)
    if name == "CNOT":
        # control = targets[0] (low local bit), target = targets[1]
        u = np.eye(4, dtype=complex)
        u[[1, 3]] = u[[3, 1]]
        return u
    if name == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "CPhase":
        theta = float(gate.params[0])
        return np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)
    if name == "Swap":
        u = np.eye(4, dtype=complex)
        u[[1, 2]] = u[[2, 1]]
        return u
    raise CircuitError(f"unknown gate {name!r}")


def _embed(mat: np.ndarray, targets: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Lift a k-qubit gate matrix into the full 2^n space (LSB convention)."""
    dim = 1 << n_qubits
    k = len(targets)
    full = np.zeros((dim, dim), dtype=complex)
    mask = 0
    for t in targets:
        mask |= 1 << t
    for col in range(dim):
        loc = 0
        for i, t in enumerate(targets):
            loc |= ((col >> t) & 1) << i
        rest = col & ~mask
        for loc_row in range(1 << k):
            amp = mat[loc_row, loc]
            if amp == 0:
                continue
            row = rest
            for i, t in enumerate(targets):
                row |= ((loc_row >> i) & 1) << t
            full[row, col] = amp
    return full


def circuit_unitary(circuit: Circuit, max_qubits: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Total unitary of a concrete circuit: product of embedded gate matrices.

    Gates apply left to right in program order, i.e. the first gate acts
    first: ``U = U_last @ ... @ U_first``.
    """
    if not circuit.is_concrete:
        raise CircuitError(
            f"circuit has free parameters {circuit.free_params}; bind them first"
        )
    if circuit.n_qubits > max_qubits:
        raise CircuitError(
            f"{circuit.n_qubits} qubits exceed the dense-unitary cap of {max_qubits}"
        )
    dim = 1 << circuit.n_qubits
    total = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        total = _embed(gate_matrix(gate), gate.targets, circuit.n_qubits) @ total
    return total
