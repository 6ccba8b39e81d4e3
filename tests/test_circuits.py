"""Circuit parser and unitary construction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optpulse.circuits import (
    GATE_SIGNATURES,
    Circuit,
    Gate,
    _embed,
    circuit_unitary,
    eval_parametric,
    gate_matrix,
    parse_angle,
    parse_circuit,
)
from optpulse.errors import CircuitError, CircuitSyntaxError
from optpulse.model import _SINGLE_QUBIT_OPS

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def test_parse_single_gate():
    c = parse_circuit("X(q[0]);")
    assert c.n_qubits == 1
    assert c.gates == (Gate("X", (0,)),)
    assert c.is_concrete


def test_parse_deduces_qubit_count_from_max_index():
    c = parse_circuit("H(q[2]);")
    assert c.n_qubits == 3


def test_parse_parametric_gate_keeps_symbol():
    c = parse_circuit("Rx(q[0], theta);")
    assert c.free_params == ("theta",)
    assert not c.is_concrete


def test_parse_pi_arithmetic():
    c = parse_circuit("Rz(q[0], 3*pi/4);")
    assert c.gates[0].params[0] == pytest.approx(3 * math.pi / 4)


def test_parse_numeric_literals():
    c = parse_circuit("Rx(q[0], 0.5); Ry(q[0], -1.25e-1);")
    assert c.gates[0].params[0] == pytest.approx(0.5)
    assert c.gates[1].params[0] == pytest.approx(-0.125)


def test_syntax_error_carries_position():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("X(q[0]);\nY(q[0)")
    assert err.value.line == 2


def test_newline_separated_statements_and_comments():
    c = parse_circuit("X(q[0])  // flip\nY(q[0])\n")
    assert [g.name for g in c.gates] == ["X", "Y"]


@pytest.mark.parametrize(
    "source, n_qubits, line, column",
    [
        ("X(q[0]);\nY(q[0]) $", None, 2, 9),
        ("Rx(q[0], 1.2.3);", None, 1, 10),
        ("X(q[1.0]);", None, 1, 5),
        ("X(q[0]);\nRx(q[0],", None, 2, 8),
        ("Rz(q[0], pi/2);\nRx(q[0], 2*theta);", None, 2, 12),
        # every statement's syntax is checked before any gate name
        ("Toffoli(q[0]);\nX(q[0]", None, 2, 6),
        ("X(q[0]);\nCNOT(q[0], q[2]);", 2, 2, 14),
    ],
    ids=[
        "bad-character",
        "bad-number",
        "non-integer-index",
        "end-of-input",
        "free-parameter-in-arithmetic",
        "unknown-gate-before-syntax-error",
        "index-out-of-range",
    ],
)
def test_malformed_circuit_reports_line_and_column(source, n_qubits, line, column):
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(source, n_qubits=n_qubits)
    assert (err.value.line, err.value.column) == (line, column)


def test_qubit_index_over_the_digit_limit_is_a_syntax_error():
    with pytest.raises(CircuitSyntaxError, match="too large") as err:
        parse_circuit("H(q[0]);\nX(q[" + "1" * 5000 + "]);")
    assert (err.value.line, err.value.column) == (2, 5)


def test_comments_belong_to_circuit_source_only():
    assert parse_circuit("Rx(q[0], pi // a half turn\n);").gates[0].params == (math.pi,)
    for text in ("pi//2", "pi // 2", "1 // comment"):
        with pytest.raises(CircuitSyntaxError):
            parse_angle(text)


_ANGLE_LEAVES = st.one_of(
    st.just("pi"),
    st.integers(0, 40).map(lambda n: f"{n}.0"),
    st.sampled_from([".5", "3.", "2.50", "1e3", "2.5E-2", "0.1", "0.0"]),
    st.floats(0, 1e6, allow_nan=False).map(repr),
)
_ANGLE_OPS = st.sampled_from(["+", "-", "*", "/", " * ", " - "])
_ANGLE_TEXTS = st.recursive(
    _ANGLE_LEAVES,
    lambda kids: st.one_of(
        st.tuples(kids, _ANGLE_OPS, kids).map("".join),
        st.tuples(kids, _ANGLE_OPS, kids, _ANGLE_OPS, kids).map("".join),
        st.tuples(st.sampled_from(["-", "+", "- "]), kids).map("".join),
        kids.map(lambda k: f"({k})"),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_ANGLE_TEXTS)
def test_parse_angle_matches_python_arithmetic(text):
    # float literals only, so Python evaluates the same IEEE operations
    try:
        expected = eval(text, {"__builtins__": {}}, {"pi": math.pi})
    except ZeroDivisionError:
        with pytest.raises(CircuitError, match="division by zero"):
            parse_angle(text)
        return
    if not math.isfinite(expected):  # e.g. a subnormal divisor overflows
        with pytest.raises(CircuitSyntaxError, match="not finite"):
            parse_angle(text)
        return
    assert parse_angle(text) == expected


@pytest.mark.parametrize(
    "source, line, column",
    [
        ("Rx(q[0], 1e999);", 1, 10),
        ("Rx(q[0], 1e308*10);", 1, 10),
        ("H(q[0]);\nCPhase(q[0], q[1], -(1e999));", 2, 20),
        ("Ry(q[0], 1e308*10 - 1e308*10);", 1, 10),  # NaN
    ],
    ids=["literal", "overflow", "cphase", "nan"],
)
def test_non_finite_angle_is_a_positioned_syntax_error(source, line, column):
    with pytest.raises(CircuitSyntaxError, match="not finite") as err:
        parse_circuit(source)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("text", ["1e999", "-1e999", "1e308*10", "1e999-1e999"])
def test_parse_angle_rejects_a_non_finite_value(text):
    with pytest.raises(CircuitSyntaxError, match="not finite"):
        parse_angle(text)


@pytest.mark.parametrize(
    "text, token, column", [("pi 2", "2", 4), ("1)", ")", 2), ("theta", "theta", 1)]
)
def test_parse_angle_errors_are_positioned_at_the_offending_token(text, token, column):
    with pytest.raises(CircuitSyntaxError) as err:
        parse_angle(text)
    assert str(err.value) == (
        f"cannot parse numeric value {text!r}: unexpected {token!r} "
        f"(line 1, column {column})"
    )


def test_missing_parenthesis_is_a_syntax_error():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("X q[0];")


def test_unknown_gate_rejected():
    with pytest.raises((CircuitError, CircuitSyntaxError)):
        parse_circuit("Toffoli(q[0], q[1], q[2]);")


def test_wrong_arity_rejected():
    with pytest.raises((CircuitError, CircuitSyntaxError)):
        parse_circuit("H(q[0], q[1]);")


def test_wrong_param_count_rejected():
    with pytest.raises((CircuitError, CircuitSyntaxError)):
        parse_circuit("Rx(q[0]);")


def test_duplicate_targets_rejected():
    with pytest.raises(CircuitError):
        Gate("Swap", (0, 0))


def test_gate_matrices_match_definitions():
    assert np.allclose(gate_matrix(Gate("X", (0,))), X)
    assert np.allclose(gate_matrix(Gate("H", (0,))), H)
    theta = 0.7
    rx = gate_matrix(Gate("Rx", (0,), (theta,)))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.allclose(rx, [[c, -1j * s], [-1j * s, c]])
    rz = gate_matrix(Gate("Rz", (0,), (theta,)))
    assert np.allclose(rz, np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]))


def test_rotation_matches_exponential():
    # Rx(theta) = exp(-i theta X / 2), same for Y and Z
    rng = np.random.default_rng(1)
    for name, op in [("Rx", X), ("Ry", Y), ("Rz", Z)]:
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        w, v = np.linalg.eigh(op)
        expm = (v * np.exp(-0.5j * theta * w)) @ v.conj().T
        assert np.allclose(gate_matrix(Gate(name, (0,), (theta,))), expm, atol=1e-12)


def test_gates_compose_left_to_right():
    u = circuit_unitary(parse_circuit("X(q[0]); Z(q[0]);"))
    assert np.allclose(u, Z @ X)


def test_qubit_zero_is_least_significant():
    u0 = circuit_unitary(parse_circuit("X(q[0]);"))
    u1 = circuit_unitary(parse_circuit("X(q[1]);"))
    # 1-qubit circuit on q[0] stays 2x2; embed by parsing with a 2-qubit gate
    assert u0.shape == (2, 2)
    assert np.allclose(u1, np.kron(X, I2))


def test_two_qubit_embedding():
    u = circuit_unitary(parse_circuit("X(q[0]); Y(q[1]);"))
    assert np.allclose(u, np.kron(Y, X))


def test_cnot_truth_table():
    u = circuit_unitary(parse_circuit("CNOT(q[0], q[1]);"))
    # control q0 (low bit): |01> -> |11>, |11> -> |01>
    basis = np.eye(4)
    assert np.allclose(u @ basis[:, 1], basis[:, 3])
    assert np.allclose(u @ basis[:, 3], basis[:, 1])
    assert np.allclose(u @ basis[:, 0], basis[:, 0])


def test_hadamard_as_ry_then_x(fixtures):
    source = (fixtures / "h_as_yx.xasm").read_text()
    u = circuit_unitary(parse_circuit(source))
    assert np.max(np.abs(u - H)) <= 1e-12


def test_qft2_circuit_is_dft_matrix(fixtures):
    source = (fixtures / "qft2.xasm").read_text()
    u = circuit_unitary(parse_circuit(source))
    w = np.exp(2j * np.pi / 4)
    dft = np.array([[w ** (j * k) for k in range(4)] for j in range(4)]) / 2.0
    assert np.max(np.abs(u - dft)) <= 1e-12


def test_circuit_unitary_is_unitary_on_random_programs():
    rng = np.random.default_rng(7)
    names_1q = ["X", "Y", "Z", "H"]
    for _ in range(20):
        gates = []
        for _ in range(rng.integers(1, 8)):
            if rng.random() < 0.5:
                gates.append(f"{rng.choice(names_1q)}(q[{rng.integers(0, 2)}]);")
            else:
                gates.append(f"Rx(q[{rng.integers(0, 2)}], {rng.uniform(-3, 3)});")
        u = circuit_unitary(parse_circuit(" ".join(gates), n_qubits=2))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


def test_eval_parametric_binds_in_declaration_order():
    c = parse_circuit("Rx(q[0], a); Rz(q[0], b);")
    bound = eval_parametric(c, [math.pi, math.pi / 2])
    assert bound.is_concrete
    assert bound.gates[0].params[0] == pytest.approx(math.pi)
    assert bound.gates[1].params[0] == pytest.approx(math.pi / 2)


def test_eval_parametric_wrong_count():
    c = parse_circuit("Rx(q[0], a);")
    with pytest.raises(CircuitError):
        eval_parametric(c, [1.0, 2.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_eval_parametric_rejects_a_non_finite_binding(value):
    c = parse_circuit("Rx(q[0], a); CPhase(q[0], q[1], b);")
    with pytest.raises(CircuitError, match="'b'.*not a finite angle"):
        eval_parametric(c, [0.5, value])


def test_unitary_of_unbound_circuit_rejected():
    with pytest.raises(CircuitError):
        circuit_unitary(parse_circuit("Rx(q[0], theta);"))


def test_qubit_cap_enforced():
    # a dense unitary has the qubit limit of a model, 11
    with pytest.raises(CircuitError, match="n_qubits 12 exceeds 11"):
        circuit_unitary(parse_circuit("X(q[11]);"))


def test_circuit_validates_target_range():
    with pytest.raises(CircuitError):
        Circuit(1, (Gate("X", (1,)),), ())


def reference_embed(mat, targets, n_qubits):
    """The per-column loop that _embed replaced: every nonzero entry of mat
    is copied to its place, and every other entry stays +0."""
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


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for part in ("real", "imag"):  # signed zeros compare equal above
        assert np.array_equal(
            np.signbit(getattr(got, part)), np.signbit(getattr(want, part))
        )


EMBED_FACTORS = [
    (name, qubit, n)
    for n in range(1, 5)
    for name in _SINGLE_QUBIT_OPS
    for qubit in range(n)
]


@pytest.mark.parametrize("name, qubit, n_qubits", EMBED_FACTORS)
def test_embedded_factor_matches_the_per_column_loop(name, qubit, n_qubits):
    op = _SINGLE_QUBIT_OPS[name]
    assert_same_bits(
        _embed(op, (qubit,), n_qubits), reference_embed(op, (qubit,), n_qubits)
    )


EMBED_GATES = [
    Gate(name, targets, (theta,) if n_params else ())
    for name, (k, n_params) in GATE_SIGNATURES.items()
    for targets in itertools.permutations(range(4), k)
    for theta in ((0.0, 0.7, -2.1, math.pi) if n_params else (None,))
]


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_embedded_gates_match_the_per_column_loop(n_qubits):
    # all targets in both orders; at theta = 0 Rx has -0.0 imaginary zeros
    # and Ry a -0.0 real zero, which the loop leaves as +0
    gates = [g for g in EMBED_GATES if max(g.targets) < n_qubits]
    assert gates
    for gate in gates:
        mat = gate_matrix(gate)
        assert_same_bits(
            _embed(mat, gate.targets, n_qubits),
            reference_embed(mat, gate.targets, n_qubits),
        )
        circuit = Circuit(n_qubits, (gate,), ())
        assert_same_bits(
            circuit_unitary(circuit),
            reference_embed(mat, gate.targets, n_qubits)
            @ np.eye(1 << n_qubits, dtype=complex),
        )

