"""Gate-level circuit IR: assembly parser, parameter binding, unitary builder.

The accepted dialect is a small quantum-assembly subset: one statement per
line or ``;``-separated, ``//`` comments, statements of the form
``Name(q[i], args...)``. Angle arguments are arithmetic expressions over
numbers and ``pi``; a bare identifier declares a free (symbolic) parameter,
which must stand alone.

Angles and the operator expressions of :mod:`optpulse.model` share one
tokenizer and one grammar: ``+ - * /`` with the usual precedence, a sign
before any factor (``2*-pi``), and parentheses. Comments belong to circuit
source only, so ``parse_angle("pi//2")`` is an error.

Qubit 0 is the least-significant bit of the computational-basis index.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from operator import add, mul, sub, truediv
from typing import NamedTuple

import numpy as np

from .errors import CircuitError, CircuitSyntaxError
from .limits import check_qubit_count

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
        if symbolic != tuple(self.free_params):
            raise CircuitError(
                f"free_params {self.free_params} do not match symbols used "
                f"by the gates {symbolic}"
            )

    @property
    def is_concrete(self) -> bool:
        return not self.free_params


def _collect_free_params(gates) -> tuple[str, ...]:
    """Symbolic parameter names in order of first use."""
    names = (p for g in gates for p in g.params if isinstance(p, str))
    return tuple(dict.fromkeys(names))


# ---------------------------------------------------------------------------
# Parsing: one tokenizer and one arithmetic grammar, shared with model.py
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # 'number' | 'name' | 'symbol'
    text: str
    line: int
    col: int

    def error(self, message: str) -> CircuitSyntaxError:
        return CircuitSyntaxError(message, self.line, self.col)


_TOKENS = (
    r"(?P<newline>\n)|(?P<space>{0})|(?P<number>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[^\W\d]\w*)|(?P<symbol>[-+*/()\[\],;{1}])|(?P<bad>.)"
)
# Only circuit source has // comments. Circuit text and angles are spaced by
# blanks, tabs and line breaks; operator expressions by any Unicode whitespace.
# GOAT's envelope templates (optimize/goat.py) add ^ to the symbols.
_CIRCUIT_LEXER = re.compile(r"(?P<comment>//[^\n]*)|" + _TOKENS.format(r"[ \t\r]+", ""))
_ANGLE_LEXER = re.compile(_TOKENS.format(r"[ \t\r]+", ""))
_OPERATOR_LEXER = re.compile(_TOKENS.format(r"[^\S\n]+", ""))
_TEMPLATE_LEXER = re.compile(_TOKENS.format(r"[^\S\n]+", "^"))
_new_token = tuple.__new__  # skips the NamedTuple constructor's Python frame


def _tokenize(text: str, lexer: re.Pattern) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in lexer.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "space" and kind != "comment":
            tok = _new_token(_Token, (kind, m[0], line, m.start() - line_start + 1))
            if kind == "bad":
                raise tok.error(f"unexpected character {tok.text!r}")
            # [\d.]* is greedy: 1.2.3 is one bad literal, reported at its start
            if kind == "number" and tok.text.count(".") > 1:
                raise tok.error(f"bad number literal {tok.text!r}")
            tokens.append(tok)
    return tokens


class _Arithmetic:
    """Token cursor and the one arithmetic grammar of angles and operators::

        expression := term (('+' | '-') term)*
        term       := unary (('*' | '/') unary)*
        unary      := ('+' | '-') unary | primary
        primary    := number | name | '(' expression ')'

    A subclass says what a number or name means (``atom``), what each binary
    operator does (``apply``) and what a sign does (``negate``); a product
    operator it leaves out of ``products`` ends the term. Errors are
    :class:`CircuitSyntaxError` at the offending token.
    """

    products = "*/"

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str | None = None) -> _Token:
        if self.pos >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else _Token("symbol", "", 1, 1)
            raise last.error("unexpected end of input")
        tok = self.tokens[self.pos]
        if expect is not None and tok.text != expect:
            raise tok.error(f"expected {expect!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.pos < len(self.tokens) and self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expression(self):
        value = self.term()
        while (tok := self.peek()) is not None and tok.text in "+-":
            self.pos += 1
            value = self.apply(tok.text, value, self.term())
        return value

    def term(self):
        value = self.unary()
        while (tok := self.peek()) is not None and tok.text in self.products:
            self.pos += 1
            value = self.apply(tok.text, value, self.unary())
        return value

    def unary(self):
        tok = self.next()
        if tok.kind != "symbol":
            return self.atom(tok)
        if tok.text == "-":
            return self.negate(self.unary())
        if tok.text == "+":
            return self.unary()
        if tok.text != "(":
            raise tok.error(f"expected number, identifier, or '(', found {tok.text!r}")
        value = self.expression()
        self.next(")")
        return value


_FLOAT_OPS = {"+": add, "-": sub, "*": mul, "/": truediv}


class _CircuitParser(_Arithmetic):
    """Statements of the assembly dialect. An angle is a float: ``pi`` is pi
    and any other name a free parameter, kept as its token, which must stand
    alone."""

    def atom(self, tok: _Token):
        if tok.kind == "number":
            return float(tok.text)
        return math.pi if tok.text == "pi" else tok

    def apply(self, op: str, lhs, rhs):
        for side in (lhs, rhs):
            if isinstance(side, _Token):
                raise side.error(
                    f"free parameter {side.text!r} cannot appear inside arithmetic"
                )
        if op == "/" and rhs == 0.0:
            raise CircuitError("division by zero in angle expression")
        return _FLOAT_OPS[op](lhs, rhs)

    def negate(self, value):
        return self.apply("-", 0.0, value)

    def angle(self):
        """One angle expression; a value that is not finite (``1e999``,
        ``1e308*10``) is an error at the expression's first token."""
        start = self.peek()
        value = self.expression()
        if not (isinstance(value, _Token) or math.isfinite(value)):
            raise start.error(f"angle {value} is not finite")
        return value

    def statements(self) -> list[tuple[_Token, list, list]]:
        """(name, [(qubit, its token)], [angle]) for each ``Name(args...)``."""
        stmts = []
        while (name := self.peek()) is not None:
            self.pos += 1
            if name.text == ";":  # empty statement / trailing separator
                continue
            if name.kind != "name":
                raise name.error(f"expected gate name, found {name.text!r}")
            self.next("(")
            targets, angles = [], []
            if not self.accept(")"):
                self.argument(targets, angles)
                while self.accept(","):
                    self.argument(targets, angles)
                self.next(")")
            self.accept(";")
            stmts.append((name, targets, angles))
        return stmts

    def argument(self, targets: list, angles: list) -> None:
        ahead = self.tokens[self.pos : self.pos + 2]
        if len(ahead) == 2 and ahead[0].text == "q" and ahead[1].text == "[":
            self.pos += 2
            idx = self.next()
            if idx.kind != "number" or not idx.text.isdigit():
                raise idx.error(f"qubit index must be an integer, found {idx.text!r}")
            self.next("]")
            try:
                targets.append((int(idx.text), idx))
            except ValueError:  # past int()'s digit limit
                raise idx.error("qubit index is too large") from None
        else:
            angles.append(self.angle())


def parse_angle(text: str) -> float:
    """Value of one angle expression of the dialect, e.g. ``3*pi/4``.

    Comments belong to circuit source only: ``pi//2`` is an error here. An
    error is a CircuitSyntaxError at the offending token, a name included.
    """
    parser = _CircuitParser(_tokenize(text, _ANGLE_LEXER))
    value = parser.angle()
    if (tok := value if isinstance(value, _Token) else parser.peek()) is not None:
        raise tok.error(f"cannot parse numeric value {text!r}: unexpected {tok.text!r}")
    return value


def parse_circuit(source: str, n_qubits: int | None = None) -> Circuit:
    """Parse assembly source into a :class:`Circuit`.

    ``n_qubits`` may be given explicitly (indices are then range-checked
    against it); otherwise it is inferred as ``max target index + 1``.
    Every statement's syntax is checked before any gate name, arity or
    index.
    """
    statements = _CircuitParser(_tokenize(source, _CIRCUIT_LEXER)).statements()
    gates: list[Gate] = []
    max_index = -1
    for name, targets, angles in statements:
        for idx, tok in targets:
            if n_qubits is not None and idx >= n_qubits:
                raise tok.error(f"qubit index {idx} out of range for {n_qubits} qubits")
            max_index = max(max_index, idx)
        params = [a.text if isinstance(a, _Token) else a for a in angles]
        try:  # a bad name, arity or target set is an error at the name
            gates.append(Gate(name.text, tuple([i for i, _ in targets]), tuple(params)))
        except CircuitError as exc:
            raise name.error(str(exc)) from exc
    if n_qubits is None:
        n_qubits = max(max_index + 1, 1)
    return Circuit(n_qubits, tuple(gates), _collect_free_params(gates))


def eval_parametric(circuit: Circuit, values: list[float]) -> Circuit:
    """Bind free parameters (in declaration order) and return a concrete circuit."""
    if len(values) != len(circuit.free_params):
        raise CircuitError(
            f"expected {len(circuit.free_params)} value(s) for parameters "
            f"{circuit.free_params}, got {len(values)}"
        )
    binding = dict(zip(circuit.free_params, (float(v) for v in values)))
    for name, value in binding.items():
        if not math.isfinite(value):
            raise CircuitError(
                f"parameter {name!r} is bound to {value}, not a finite angle"
            )
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
    """Lift a k-qubit gate matrix into the full 2^n space (LSB convention).

    Entry (row, col) is ``mat[local(row), local(col)]`` where row and col
    agree on every other qubit, and zero elsewhere. It is written through
    one strided view of the result with an axis per bit: one per other
    qubit q, stepping row and col together ((dim + 1) 2^q entries), then the
    targets' row bits and column bits, high local bit first, as
    ``mat.reshape((2,) * 2k)`` lays them out. A zero of ``mat``, -0.0
    included, leaves the result's +0.
    """
    dim, k = 1 << n_qubits, len(targets)
    full = np.zeros((dim, dim), dtype=complex)
    steps = [(dim + 1) << q for q in range(n_qubits) if q not in targets]
    steps += [dim << t for t in reversed(targets)]
    steps += [1 << t for t in reversed(targets)]
    strides = [full.itemsize * step for step in steps]
    view = np.ndarray((2,) * (n_qubits + k), complex, full, 0, strides)
    local = mat.reshape((2,) * (2 * k))
    np.copyto(view, local, where=local != 0)
    return full


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Total unitary of a concrete circuit: product of embedded gate matrices.

    Gates apply left to right in program order, i.e. the first gate acts
    first: ``U = U_last @ ... @ U_first``. A model's qubit limit holds.
    """
    if not circuit.is_concrete:
        raise CircuitError(
            f"circuit has free parameters {circuit.free_params}; bind them first"
        )
    check_qubit_count(circuit.n_qubits, CircuitError)
    dim = 1 << circuit.n_qubits
    total = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        total = _embed(gate_matrix(gate), gate.targets, circuit.n_qubits) @ total
    return total
