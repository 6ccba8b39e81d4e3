"""System model documents and operator expressions."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optpulse.errors import ModelError
from optpulse.model import (
    SystemModel,
    apply_detuning,
    build_operator,
    parse_model,
    serialize_model,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)


def test_single_qubit_operators():
    assert np.allclose(build_operator("X0", 1), X)
    assert np.allclose(build_operator("Y0", 1), Y)
    assert np.allclose(build_operator("Z0", 1), Z)
    assert np.allclose(build_operator("I0", 1), I2)


def test_qubit_zero_is_low_bit_in_embeddings():
    assert np.allclose(build_operator("X0", 2), np.kron(I2, X))
    assert np.allclose(build_operator("X1", 2), np.kron(X, I2))


def test_products_and_sums():
    assert np.allclose(build_operator("X0*X1", 2), np.kron(X, X))
    assert np.allclose(build_operator("Z0+Z1", 2), np.kron(I2, Z) + np.kron(Z, I2))
    assert np.allclose(build_operator("0.5*X0", 1), 0.5 * X)
    assert np.allclose(build_operator("(X0+Y0)*Z0", 1), (X + Y) @ Z)
    assert np.allclose(build_operator("X0-X0", 1), np.zeros((2, 2)))


def test_raising_lowering_product_is_a_projector():
    # SP0*SM0 = |1><1|
    assert np.allclose(build_operator("SP0*SM0", 1), np.diag([0.0, 1.0]))
    assert np.allclose(build_operator("SM0", 1), np.array([[0, 1], [0, 0]]))


def test_scalar_only_expression_lifts_to_identity_multiple():
    assert np.allclose(build_operator("2.5", 1), 2.5 * I2)


def test_expression_errors():
    with pytest.raises(ModelError):
        build_operator("X2", 1)  # index out of range
    with pytest.raises(ModelError):
        build_operator("Q0", 1)
    with pytest.raises(ModelError):
        build_operator("", 1)
    with pytest.raises(ModelError):
        build_operator("X0 +", 1)
    for text in ("Z0/2", "Z0//2", "Z0 // comment"):  # no division, no comments
        with pytest.raises(ModelError):
            build_operator(text, 1)


def test_sign_inside_a_product():
    x0, x1 = build_operator("X0", 2), build_operator("X1", 2)
    assert np.array_equal(build_operator("X0*-X1", 2), -(x0 @ x1))


_REFERENCE_OPS = {
    "X": X,
    "Y": Y,
    "Z": Z,
    "SP": np.array([[0, 0], [1, 0]], dtype=complex),
    "SM": np.array([[0, 1], [0, 0]], dtype=complex),
}


def _reference_factor(name):
    # two qubits, qubit 0 the least-significant bit of the basis index
    op = _REFERENCE_OPS[name[:-1]]
    return (name, np.kron(I2, op) if name[-1] == "0" else np.kron(op, I2))


def _reference_binary(args):
    (ltext, lhs), op, (rtext, rhs) = args
    scalar = np.ndim(lhs) == 0 or np.ndim(rhs) == 0
    if op == "*":
        value = lhs * rhs if scalar else lhs @ rhs
    else:
        if np.ndim(lhs) != np.ndim(rhs):
            lhs, rhs = (v * np.eye(4) if np.ndim(v) == 0 else v for v in (lhs, rhs))
        value = lhs + rhs if op == "+" else lhs - rhs
    return (f"({ltext}{op}{rtext})", value)


_OPERATOR_TREES = st.recursive(
    st.one_of(
        st.sampled_from(["X0", "Y1", "Z0", "SP0", "SM1"]).map(_reference_factor),
        st.sampled_from(["0.5", "2", "1.25", ".75"]).map(lambda t: (t, complex(t))),
    ),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from(["+", "-", "*"]), kids).map(_reference_binary),
        kids.map(lambda k: (f"-{k[0]}", -k[1])),
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(_OPERATOR_TREES)
def test_build_operator_matches_a_numpy_evaluation_of_the_same_tree(tree):
    text, value = tree
    expected = value * np.eye(4) if np.ndim(value) == 0 else value
    assert np.array_equal(build_operator(text, 2), expected)


MODEL_DOC = {
    "n_qubits": 1,
    "dt": 0.2,
    "drift": [{"coef": 1.0, "op": "Z0"}],
    "control": [{"channel": "dx", "op": "X0"}, {"channel": "dy", "op": "Y0"}],
}


def test_parse_model_basics():
    m = parse_model(dict(MODEL_DOC))
    assert m.n_qubits == 1 and m.dt == 0.2
    assert m.channels == ("dx", "dy")
    assert np.allclose(m.drift_matrix(), Z)
    assert np.allclose(m.control_matrices()["dy"], Y)
    assert not m.has_dissipation


def test_operators_built_once_per_model(monkeypatch):
    import optpulse.model as model_module

    calls = []
    real = model_module.build_operator

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model_module, "build_operator", counting)
    m = parse_model(dict(MODEL_DOC, collapse=[{"rate": 0.1, "op": "SM0"}]))
    assert len(calls) == 4  # one drift, two controls, one collapse
    for _ in range(3):
        m.drift_matrix()
        m.control_matrices()
        m.collapse_terms()
    assert len(calls) == 4
    assert np.array_equal(m.control_stack[1], m.control_matrices()["dy"])
    with pytest.raises(ValueError):
        m.drift_matrix()[0, 0] = 2.0  # shared arrays are read-only


def test_parse_model_rejects_unknown_keys():
    doc = dict(MODEL_DOC)
    doc["couplings"] = []
    with pytest.raises(ModelError):
        parse_model(doc)


def test_parse_model_rejects_an_int_over_the_digit_limit():
    with pytest.raises(ModelError, match="JSON"):
        parse_model('{"n_qubits": %s, "dt": 0.1}' % ("9" * 5000))


def test_parse_model_requires_nqubits_and_dt():
    with pytest.raises(ModelError):
        parse_model({"dt": 0.1})
    with pytest.raises(ModelError):
        parse_model({"n_qubits": 1})


def test_duplicate_channels_rejected():
    doc = dict(MODEL_DOC)
    doc["control"] = [
        {"channel": "dx", "op": "X0"},
        {"channel": "dx", "op": "Y0"},
    ]
    with pytest.raises(ModelError):
        parse_model(doc)


def test_non_hermitian_operators_rejected():
    with pytest.raises(ModelError):
        SystemModel(n_qubits=1, dt=0.1, control=(("d0", "SP0"),))
    with pytest.raises(ModelError):
        SystemModel(n_qubits=1, dt=0.1, drift=((1.0, "SM0"),))


@pytest.mark.parametrize("role", ["drift", "control", "collapse"])
def test_non_finite_number_in_an_operator_rejected(role):
    # 1e999 reads as inf; in a matrix, inf * 0 gives NaN entries, which no
    # Hermiticity comparison rejects
    entry = {"drift": {"coef": 1.0}, "control": {"channel": "dx"},
             "collapse": {"rate": 0.1}}[role]
    doc = {"n_qubits": 1, "dt": 0.1, role: [{**entry, "op": "1e999*X0"}]}
    with pytest.raises(ModelError, match=r"number '1e999' overflows.*'1e999\*X0'"):
        parse_model(doc)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"drift": [{"coef": 1e300, "op": "1e300*Z0"}]}, "drift Hamiltonian"),
        ({"control": [{"channel": "dx", "op": "1e200*1e200*X0"}]}, "finite Hermitian"),
        ({"collapse": [{"rate": 0.1, "op": "1e200*1e200*SM0"}]}, "not finite"),
    ],
    ids=["drift", "control", "collapse"],
)
def test_overflowing_operator_arithmetic_rejected(spec, message):
    with pytest.warns(RuntimeWarning), pytest.raises(ModelError, match=message):
        parse_model({"n_qubits": 1, "dt": 0.1, **spec})


def test_operator_qubit_index_over_the_digit_limit():
    with pytest.raises(ModelError, match="qubit index out of range"):
        build_operator("X" + "9" * 5000, 1)


def test_negative_collapse_rate_rejected():
    with pytest.raises(ModelError):
        SystemModel(n_qubits=1, dt=0.1, collapse=((-0.5, "SM0"),))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "template",
    [
        '{"n_qubits": 1, "dt": %s}',
        '{"n_qubits": 1, "dt": 0.2, "drift": [{"coef": %s, "op": "Z0"}]}',
        '{"n_qubits": 1, "dt": 0.2, "collapse": [{"rate": %s, "op": "SM0"}]}',
    ],
    ids=["dt", "drift-coef", "collapse-rate"],
)
def test_parse_model_rejects_non_finite_numbers(template, literal):
    # json.loads reads these literals as floats; a NaN rate would otherwise
    # read as no dissipation and be dropped
    with pytest.raises(ModelError):
        parse_model(template % literal)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_apply_detuning_rejects_a_non_finite_delta(delta):
    with pytest.raises(ModelError, match="drift coefficient"):
        apply_detuning(parse_model(dict(MODEL_DOC)), delta)


def test_collapse_operators_need_not_be_hermitian():
    m = SystemModel(n_qubits=1, dt=0.1, collapse=((0.5, "SM0"),))
    assert m.has_dissipation
    rate, op = m.collapse_terms()[0]
    assert rate == 0.5
    assert np.allclose(op, [[0, 1], [0, 0]])


def test_lo_delta_must_reference_known_channel():
    # the field was never applied, so a document carrying it is rejected
    # rather than silently ignored; --lo-delta is the way to detune
    for lo_delta in ({"dz": 0.01}, {"dx": 0.01}):
        with pytest.raises(ModelError, match="unknown model key"):
            parse_model(dict(MODEL_DOC, lo_delta=lo_delta))


def test_serialize_parse_round_trip_is_byte_identical():
    text = serialize_model(parse_model(dict(MODEL_DOC)))
    again = serialize_model(parse_model(text))
    assert again == text
    assert json.loads(text)["n_qubits"] == 1


def test_model_files_parse(fixtures):
    for name in (
        "model_1q_x.json",
        "model_1q_xy.json",
        "model_1q_x_nodrift.json",
        "model_2q_12ch.json",
    ):
        m = parse_model((fixtures / name).read_text())
        assert m.dim in (2, 4)
    twelve = parse_model((fixtures / "model_2q_12ch.json").read_text())
    assert len(twelve.channels) == 12


def test_apply_detuning_zero_is_identity():
    m = parse_model(dict(MODEL_DOC))
    assert apply_detuning(m, 0.0) is m


def test_apply_detuning_adds_z_drift():
    m = parse_model(dict(MODEL_DOC))
    detuned = apply_detuning(m, 0.01)
    # extra term -delta * omega0 / 2 * Z per qubit, default omega0 = 2 pi
    expected = m.drift_matrix() - 0.01 * np.pi * Z
    assert np.allclose(detuned.drift_matrix(), expected)
    assert detuned.channels == m.channels


def test_with_terms_equals_replace_and_builds_only_the_new_terms(monkeypatch):
    from dataclasses import replace

    from optpulse import model as model_module

    m = parse_model(dict(MODEL_DOC))
    drift, collapse = ((0.3, "Z0"), (-0.2, "X0")), ((0.05, "SM0"),)
    built = []
    original = model_module.build_operator

    def counted(expression, n_qubits):
        built.append(expression)
        return original(expression, n_qubits)

    monkeypatch.setattr(model_module, "build_operator", counted)
    extended = m.with_terms(drift=drift, collapse=collapse)
    assert built == ["Z0", "X0", "SM0"]
    fresh = replace(m, drift=m.drift + drift, collapse=m.collapse + collapse)
    assert extended == fresh
    assert np.array_equal(extended.drift_matrix(), fresh.drift_matrix())
    assert np.array_equal(extended.control_stack, fresh.control_stack)
    for (rate, op), (fresh_rate, fresh_op) in zip(
        extended.collapse_terms(), fresh.collapse_terms(), strict=True
    ):
        assert rate == fresh_rate and np.array_equal(op, fresh_op)
    # the model it came from is unchanged
    assert m == parse_model(dict(MODEL_DOC)) and not m.has_dissipation
    with pytest.raises(ModelError, match="collapse rate"):
        m.with_terms(collapse=((-1.0, "SM0"),))


def test_bad_json_text_is_a_model_error():
    with pytest.raises(ModelError):
        parse_model("{not json")


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"dt": "x"}, "malformed model entry"),
        ({"dt": None}, "malformed model entry"),
        ({"drift": [{"coef": "big", "op": "Z0"}]}, "malformed model entry"),
        # JSON types: float() read true as 1.0, and str() null as the channel
        # "None" and 5 as the operator 5 I
        ({"dt": True}, "dt must be a number"),
        ({"drift": [{"coef": True, "op": "Z0"}]}, "coef must be a number"),
        ({"collapse": [{"rate": True, "op": "SM0"}]}, "rate must be a number"),
        ({"control": [{"channel": None, "op": "X0"}]}, "channel must be a string"),
        ({"control": [{"channel": "dx", "op": 5}]}, "op must be a string"),
    ],
    ids=["dt-text", "dt-null", "coef-text", "dt-true", "coef-true", "rate-true",
         "channel-null", "op-number"],
)
def test_parse_model_raises_typed_error_on_malformed_fields(patch, message):
    with pytest.raises(ModelError, match=message):
        parse_model({**MODEL_DOC, **patch})


@pytest.mark.parametrize("n_qubits", [12, 40])
def test_oversize_model_rejected_before_any_allocation(n_qubits):
    # one d x d slice of 12 qubits has 2^24 entries, past the 2^22 limit
    doc = json.dumps({"n_qubits": n_qubits, "dt": 0.1,
                      "control": [{"channel": "d0", "op": "X0"}]})
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=f"n_qubits {n_qubits} exceeds 11"):
            parse_model(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert parse_model(doc.replace(f'"n_qubits": {n_qubits}', '"n_qubits": 2')).dim == 4
