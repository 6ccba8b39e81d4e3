"""Optimizer registry: options maps, standalone problems, target parsing."""

import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import optpulse
from optpulse.circuits import circuit_unitary, parse_circuit
from optpulse.cli import main
from optpulse.dynamics import ControlSignal, evolve_continuous
from optpulse.errors import OptimizationError, UnknownMethodError
from optpulse.model import SystemModel, build_operator, load_model
from optpulse.optimize import (
    ControlProblem,
    get_optimizer,
    infidelity,
    method_names,
    parse_target_unitary,
)
from optpulse.synthesis import compile_circuit

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_import_leaves_scipy_optimize_unloaded(fixtures):
    # scipy is a test dependency only. With every scipy import refused, all
    # three methods compile X and T1 Lindblad evolution runs.
    src = pathlib.Path(optpulse.__file__).resolve().parents[1]
    code = textwrap.dedent(
        """
        import pathlib
        import sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"{name} is refused")

        sys.meta_path.insert(0, RefuseScipy())
        sys.path.insert(0, sys.argv[1])
        import optpulse

        fixtures = pathlib.Path(sys.argv[2])
        circuit = optpulse.parse_circuit((fixtures / "x.xasm").read_text())
        model = optpulse.load_model(fixtures / "model_1q_x_nodrift.json")
        for method in ("GRAPE", "krotov", "GOAT"):
            program, result = optpulse.compile_circuit(
                circuit, model, method, {"max-time": 10.0, "tol": 1e-3}
            )
            print(method, result.final_infidelity <= 1e-3)
        model = optpulse.SystemModel(n_qubits=2, dt=0.1,
            control=(("dx", "X0"),), collapse=((0.05, "SM0"), (0.05, "SM1")))
        signal = optpulse.ControlSignal.from_samples({"dx": [0.3] * 5}, 0.1)
        times, rhos = optpulse.lindblad_evolve(model, signal, [1, 0, 0, 0])
        print(len(rhos), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src), str(fixtures)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split("\n")[:4] == [
        "GRAPE True", "krotov True", "GOAT True", "6 []"
    ]


def test_method_names():
    assert method_names() == ("GRAPE", "GOAT", "krotov")


def test_lookup_is_case_insensitive():
    assert get_optimizer("grape", {}).method == "GRAPE"
    assert get_optimizer("Krotov", {}).method == "krotov"


def test_unknown_method_lists_known_ones():
    with pytest.raises(UnknownMethodError) as err:
        get_optimizer("NELDER", {})
    assert "GRAPE, GOAT, krotov" in str(err.value)


def test_unknown_option_key_rejected():
    with pytest.raises(OptimizationError) as err:
        get_optimizer("GRAPE", {"learning-rate": 0.1})
    assert "learning-rate" in str(err.value)


def test_method_key_must_agree():
    with pytest.raises(OptimizationError):
        get_optimizer("GRAPE", {"method": "GOAT"})
    handle = get_optimizer("GOAT", {"method": "GOAT"})
    assert handle.method == "GOAT"


def test_target_unitary_gate_name():
    assert np.allclose(parse_target_unitary("X0", 1), X)
    assert np.allclose(parse_target_unitary("H0", 1), H)


def test_target_unitary_expression_and_matrix():
    assert np.allclose(parse_target_unitary("X0*X1", 2), np.kron(X, X))
    inline = [[0.0, 1.0], [1.0, 0.0]]
    assert np.allclose(parse_target_unitary(inline, 1), X)
    pairs = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]  # [re, im]
    assert np.allclose(parse_target_unitary(pairs, 1), X)


def test_target_unitary_rejects_non_unitary():
    with pytest.raises(OptimizationError):
        parse_target_unitary("X0+Z0", 1)  # Hermitian but not unitary
    with pytest.raises(OptimizationError):
        parse_target_unitary([[1.0, 0.0], [0.0, 2.0]], 1)


def test_standalone_grape_from_options_map():
    handle = get_optimizer(
        "GRAPE",
        {
            "dimension": 2,
            "target-U": "X0",
            "control-H": ["X0"],
            "max-time": 10.0,
            "dt": 0.2,
            "tol": 1e-6,
            "seed": 1,
        },
    )
    res = handle.optimize()
    assert res.method == "GRAPE"
    assert res.final_infidelity <= 1e-6


def test_standalone_goat_gaussian_family():
    handle = get_optimizer(
        "GOAT",
        {
            "dimension": 2,
            "target-U": "X0",
            "control-H": ["X0"],
            "control-funcs": ["a*exp(-(t-c)^2/(2*s^2))"],
            "control-params": [["a", "c", "s"]],
            "initial-parameters": [0.2, 5.0, 2.0],
            "max-time": 10.0,
            "tol": 1e-6,
        },
    )
    res = handle.optimize()
    assert res.final_infidelity <= 1e-6
    assert set(res.synthesized_samples) == {"d0"}


def test_standalone_goat_without_control_funcs_fails():
    handle = get_optimizer(
        "GOAT",
        {"dimension": 2, "target-U": "X0", "control-H": ["X0"], "max-time": 10.0},
    )
    with pytest.raises(OptimizationError):
        handle.optimize()


def test_goat_rejects_amplitude_bound(tmp_path, fixtures):
    options = {
        "dimension": 2,
        "target-U": "X0",
        "control-H": ["X0"],
        "control-funcs": ["a*exp(-(t-5)^2/(2*s^2))"],
        "control-params": ["a", "s"],
        "initial-parameters": [0.2, 2.0],
        "max-time": 10.0,
        "amplitude-bound": 0.5,
    }
    with pytest.raises(OptimizationError, match="amplitude-bound"):
        get_optimizer("GOAT", options).optimize()
    code = main([
        "compile", str(fixtures / "x.xasm"), str(fixtures / "model_1q_x.json"),
        "--method", "GOAT", "--max-time", "10", "--amplitude-bound", "0.5",
        "-o", str(tmp_path / "x.pulse.json"),
    ])
    assert code == 2


def test_goat_initial_parameters_mapping_rejected():
    handle = get_optimizer(
        "GOAT",
        {
            "dimension": 2,
            "target-U": "X0",
            "control-H": ["X0"],
            "control-funcs": ["exp(-t^2/(2*sigma^2))"],
            "control-params": ["sigma"],
            "initial-parameters": {"sigma": 8.0},
            "max-time": 100.0,
        },
    )
    with pytest.raises(OptimizationError, match="initial-parameters"):
        handle.optimize()


GOAT_SPEC_OPTIONS = {
    "dimension": 2, "target-U": "X0", "control-H": ["X0"], "max-time": 10.0,
    "control-funcs": ["a*exp(-(t-5)^2/(2*s^2))"], "control-params": ["a", "s"],
    "initial-parameters": [0.2, 2.0],
}


@pytest.mark.parametrize(
    "options, message",
    [
        ({"control-params": ["a", "s", "a"]}, "duplicate trainable parameter names"),
        ({"control-params": ["a"]}, r"undeclared parameter\(s\) \['s'\]"),
        ({"control-params": ["a", "s", "b"]}, r"declared parameter\(s\) \['b'\] not used"),
        (
            {"control-funcs": ["a*exp(-(t-5)^2/(2*s^2))", "exp(-t^2/(2*s^2))"]},
            r"2 control-funcs for 1 channel\(s\)",
        ),
        ({"control-funcs": None}, "control-params needs control-funcs"),
        ({"control-funcs": None, "control-params": None}, "GOAT needs an envelope spec"),
        ({"initial-parameters": ["0.2", "wide"]}, "initial-parameters must be numbers"),
        (
            {"initial-parameters": {"a": 0.2, "s": 2.0}},
            "initial-parameters must be a list in control-params order",
        ),
    ],
)
def test_goat_spec_messages(options, message):
    """Each message of the GOAT envelope keys; None drops a key."""
    opts = {k: v for k, v in {**GOAT_SPEC_OPTIONS, **options}.items() if v is not None}
    with pytest.raises(OptimizationError, match=message):
        get_optimizer("GOAT", opts).optimize()


@pytest.mark.parametrize(
    "value, message, column",
    [
        ("X0 +", "unexpected end of input", 4),
        ("X0 H0", "unexpected 'H0'", 4),
        ("X0^2", "unexpected character '^'", 3),
        ("Q0", "unknown operator 'Q0'", 1),
    ],
)
def test_target_unitary_syntax_errors_are_positioned(value, message, column):
    with pytest.raises(optpulse.OptPulseError) as err:
        parse_target_unitary(value, 1)
    assert message in str(err.value)
    assert str(err.value).endswith(f"(line 1, column {column})")


def test_target_unitary_gate_names_match_the_gates():
    for name in "XYZH":
        for qubit in range(2):
            gate = parse_circuit(f"{name}(q[{qubit}]);", n_qubits=2)
            assert np.array_equal(
                parse_target_unitary(f" {name}{qubit} ", 2), circuit_unitary(gate)
            )
    with pytest.raises(optpulse.CircuitError, match="out of range"):
        parse_target_unitary("H2", 2)
    # a gate on the fifth qubit, as "X4" is
    hadamard = (build_operator("X4", 5) + build_operator("Z4", 5)) / np.sqrt(2)
    assert np.allclose(parse_target_unitary("H4", 5), hadamard)
    with pytest.raises(OptimizationError, match="qubit index too large"):
        parse_target_unitary("H" + "1" * 5000, 2)  # past int()'s digit limit


def test_compiler_path_accepts_external_problem():
    model = SystemModel(n_qubits=1, dt=0.2, control=(("dx", "X0"),))
    problem = ControlProblem(model=model, target_u=X, max_time=10.0, tol=1e-5, seed=2)
    for name in method_names():
        res = get_optimizer(name, {}).optimize(problem)
        assert res.final_infidelity <= 1e-5, name


def test_option_values_are_type_checked():
    with pytest.raises(OptimizationError):
        get_optimizer("GRAPE", {"max-time": "ten"})
    with pytest.raises(OptimizationError):
        get_optimizer("GRAPE", {"max-iters": 2.5})


@pytest.mark.parametrize("key", ["max-time", "seed", "max-iters"])
def test_option_values_refuse_booleans(key):
    # float(True) and int(True) read 1.0 and 1
    with pytest.raises(OptimizationError, match=f"option '{key}' must be a number"):
        get_optimizer("GRAPE", {key: True})


def test_control_h_entries_must_be_strings():
    # str() read 5 as the operator 5 I
    options = {"dimension": 2, "target-U": "X0", "control-H": [5, "X0"], "max-time": 10.0}
    with pytest.raises(OptimizationError, match="control-H must be a string, got 5"):
        get_optimizer("GRAPE", options).build_problem()


def test_goat_initial_parameters_refuse_booleans():
    options = {
        "dimension": 2, "target-U": "X0", "control-H": ["X0"], "max-time": 10.0,
        "control-funcs": ["a*exp(-(t-5)^2/(2*s^2))"],
        "control-params": ["a", "s"], "initial-parameters": [True, 2.0],
    }
    with pytest.raises(OptimizationError, match="initial-parameters must be a number"):
        get_optimizer("GOAT", options).optimize()


def test_options_are_copied_not_aliased():
    opts = {"max-time": 10.0}
    handle = get_optimizer("GRAPE", opts)
    opts["max-time"] = 999.0
    assert handle.options["max-time"] == 10.0


# ------------------------------------------------- one key table per method

X_PROBLEM_OPTIONS = {
    "dimension": 2, "target-U": "X0", "control-H": ["X0"], "max-time": 10.0,
}


@pytest.mark.parametrize(
    "method, key, value",
    [
        (method, key, value)
        for method in ("GRAPE", "krotov")
        for key, value in (
            ("control-funcs", ["a*exp(-(t-5)^2/(2*s^2))"]),
            ("control-params", ["a", "s"]),
            ("initial-parameters", [0.2, 2.0]),
        )
    ]
    + [("GOAT", "amplitude-bound", 0.5)],
)
def test_method_rejects_keys_of_other_methods(method, key, value):
    with pytest.raises(OptimizationError, match=key):
        get_optimizer(method, {**X_PROBLEM_OPTIONS, key: value})


@pytest.mark.parametrize(
    "key, value", [("dimension", 2), ("target-U", "Z0"), ("control-H", ["Z0"]), ("dt", 0.5)]
)
def test_compile_path_rejects_standalone_keys(fixtures, key, value):
    model = load_model(fixtures / "model_1q_x_nodrift.json")
    circuit = parse_circuit("X(q[0]);")
    with pytest.raises(OptimizationError, match=key):
        compile_circuit(circuit, model, "GRAPE", {"max-time": 10.0, key: value})


@pytest.mark.parametrize(
    "options",
    [
        # every option but max-time used to be accepted and then ignored
        {
            "max-time": 10, "control-funcs": ["a*exp(-(t-5)^2/(2*s^2))"],
            "control-params": ["a", "s"], "initial-parameters": [3.0, 1.0],
            "dimension": 8, "target-U": "Z0", "control-H": ["Z0"], "dt": 0.5,
        },
        {
            "max-time": 10, "control-funcs": ["exp(-(t-5)^2/(2*s^2))"],
            "control-params": ["s"], "initial-parameters": [3.0],
        },
    ],
)
def test_grape_compile_rejects_ignored_options(fixtures, options):
    model = load_model(fixtures / "model_1q_x_nodrift.json")
    circuit = parse_circuit("X(q[0]);")
    with pytest.raises(OptimizationError):
        compile_circuit(circuit, model, "GRAPE", options)


def test_ready_problem_rejects_problem_keys():
    model = SystemModel(n_qubits=1, dt=0.2, control=(("dx", "X0"),))
    problem = ControlProblem(model=model, target_u=X, max_time=10.0)
    with pytest.raises(OptimizationError, match="tol"):
        get_optimizer("GRAPE", {"tol": 1e-9}).optimize(problem)
    with pytest.raises(OptimizationError, match="amplitude-bound"):
        get_optimizer("krotov", {"amplitude-bound": 0.5}).optimize(problem)


def test_goat_compile_starts_at_initial_parameters(fixtures):
    model = load_model(fixtures / "model_1q_x_nodrift.json")
    circuit = parse_circuit("X(q[0]);")
    _, result = compile_circuit(
        circuit, model, "GOAT", {"max-time": 10.0, "initial-parameters": [0.15, 2.0]}
    )

    def loss_at(a, s):  # the default family: one Gaussian centred at T/2
        env = {"dx": lambda t: a * np.exp(-((t - 5.0) ** 2) / (2 * s * s))}
        sig = ControlSignal.from_envelopes(env, duration=10.0, dt=model.dt)
        return infidelity(evolve_continuous(model, sig), X)

    assert abs(result.trace[0] - loss_at(0.15, 2.0)) <= 1e-6
    assert abs(result.trace[0] - loss_at(0.1, 8 * model.dt)) > 1e-2


def test_goat_control_params_need_control_funcs(fixtures):
    model = load_model(fixtures / "model_1q_x_nodrift.json")
    circuit = parse_circuit("X(q[0]);")
    with pytest.raises(OptimizationError, match="control-params"):
        compile_circuit(
            circuit, model, "GOAT",
            {"max-time": 10.0, "control-params": ["a_dx", "sigma_dx"]},
        )


def test_option_values_must_survive_the_cast():
    with pytest.raises(OptimizationError, match="tol"):
        get_optimizer("GRAPE", {"tol": float("nan")})
    with pytest.raises(OptimizationError, match="max-iters"):
        get_optimizer("GRAPE", {"max-iters": float("inf")})
