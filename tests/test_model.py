"""System model documents and operator expressions."""

import json

import numpy as np
import pytest

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


def test_negative_collapse_rate_rejected():
    with pytest.raises(ModelError):
        SystemModel(n_qubits=1, dt=0.1, collapse=((-0.5, "SM0"),))


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


def test_bad_json_text_is_a_model_error():
    with pytest.raises(ModelError):
        parse_model("{not json")


@pytest.mark.parametrize(
    "patch",
    [{"dt": "x"}, {"dt": None}, {"drift": [{"coef": "big", "op": "Z0"}]}],
    ids=["dt-text", "dt-null", "coef-text"],
)
def test_parse_model_raises_typed_error_on_malformed_fields(patch):
    with pytest.raises(ModelError):
        parse_model({**MODEL_DOC, **patch})
