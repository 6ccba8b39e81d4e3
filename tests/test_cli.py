"""End-to-end command-line behavior, exit codes, and artifacts."""

import json
import re
import warnings

import numpy as np
import pytest

from optpulse.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    lines = [l for l in text.strip().split("\n") if l]
    header = lines[0].split(", ")
    rows = [[float(x) for x in line.split(", ")] for line in lines[1:]]
    return header, rows


# ----------------------------------------------------------------- compile


def test_compile_writes_pulse_and_manifest(tmp_path, fixtures, capsys):
    out = tmp_path / "h.pulse.json"
    code, stdout, _ = run(
        capsys,
        "compile", fixtures / "h.xasm", fixtures / "model_1q_xy.json",
        "--method", "GRAPE", "--max-time", "10", "--seed", "11",
        "--tol", "1e-5", "-o", out,
    )
    assert code == 0
    assert "final infidelity" in stdout
    iterations, evaluations = map(int, re.search(
        r"after (\d+) iteration\(s\), (\d+) evaluation\(s\)", stdout
    ).groups())
    assert evaluations > iterations
    doc = json.loads(out.read_text())
    assert sorted(doc["metadata"]) == ["infidelity", "method"]
    assert doc["metadata"]["method"] == "GRAPE"
    assert doc["metadata"]["infidelity"] <= 1e-3
    manifest = json.loads((tmp_path / "h.pulse.json.manifest.json").read_text())
    assert manifest["command"] == "compile"
    assert manifest["version"]
    assert manifest["outputs"] == [str(out)]
    assert list(manifest) == sorted(manifest)


def test_compile_unknown_method_exits_2_with_list(tmp_path, fixtures, capsys):
    code, _, stderr = run(
        capsys,
        "compile", fixtures / "h.xasm", fixtures / "model_1q_xy.json",
        "--method", "NELDER", "--max-time", "10",
        "-o", tmp_path / "x.json",
    )
    assert code == 2
    assert "GRAPE, GOAT, krotov" in stderr


def test_compile_goat_on_drifted_model_stays_finite(tmp_path, fixtures, capsys):
    # L-BFGS tries huge amplitudes here; they once overflowed the integrator
    # and ended in "non-finite GOAT objective" with exit 2
    out = tmp_path / "x.pulse.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, stderr = run(
            capsys,
            "compile", fixtures / "x.xasm", fixtures / "model_1q_x.json",
            "--method", "GOAT", "--max-time", "10", "-o", out,
        )
    assert code in (0, 3), stderr
    infidelity = json.loads(out.read_text())["metadata"]["infidelity"]
    assert 0.0 <= infidelity <= 1.0


def test_compile_missing_input_exits_1(tmp_path, fixtures, capsys):
    code, _, stderr = run(
        capsys,
        "compile", tmp_path / "missing.xasm", fixtures / "model_1q_xy.json",
        "--max-time", "10", "-o", tmp_path / "x.json",
    )
    assert code == 1


def test_compile_non_convergence_exits_3_with_best_effort(tmp_path, fixtures, capsys):
    out = tmp_path / "bad.pulse.json"
    code, stdout, stderr = run(
        capsys,
        "compile", fixtures / "h.xasm", fixtures / "model_1q_x_nodrift.json",
        "--max-time", "10", "--max-iters", "30", "-o", out,
    )
    assert code == 3
    assert "accept-threshold" in stderr
    assert out.exists()  # best-effort program still written


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-time", "inf"], "max-time"),
        (["--max-time", "10", "--seed", "-1"], "seed"),
        (["--max-time", "10", "--seed", "-1", "--method", "krotov"], "seed"),
        (["--max-time", "10", "--max-iters", "-1"], "max-iters"),
    ],
    ids=["max-time-inf", "seed-negative-grape", "seed-negative-krotov",
         "max-iters-negative"],
)
def test_compile_bad_problem_value_exits_2(tmp_path, fixtures, capsys, flags, message):
    out = tmp_path / "x.pulse.json"
    code, _, stderr = run(
        capsys, "compile", fixtures / "x.xasm", fixtures / "model_1q_x.json",
        *flags, "-o", out,
    )
    assert code == 2
    assert message in stderr and "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "dt, max_time",
    [(1e-300, "1e10"), (0.2, "1e300"), (0.2, "1e8")],
    ids=["ratio-overflows", "past-numpy-dimension", "past-memory"],
)
def test_compile_rejects_an_oversize_grid_before_allocating_it(
    tmp_path, fixtures, capsys, monkeypatch, dt, max_time
):
    doc = json.loads((fixtures / "model_1q_x.json").read_text())
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**doc, "dt": dt}))

    def no_start(*args, **kwargs):  # the random start is the grid's first array
        raise AssertionError("the oversize grid reached the random start")

    monkeypatch.setattr(np.random, "default_rng", no_start)
    out = tmp_path / "x.pulse.json"
    code, _, stderr = run(
        capsys, "compile", fixtures / "x.xasm", model, "--max-time", max_time,
        "-o", out,
    )
    assert code == 2
    assert "slices x d^2" in stderr and "Traceback" not in stderr
    assert not out.exists()


def test_compile_zero_max_iters_stays_valid(tmp_path, fixtures, capsys):
    out = tmp_path / "x.pulse.json"
    code, stdout, _ = run(
        capsys, "compile", fixtures / "x.xasm", fixtures / "model_1q_x.json",
        "--max-time", "10", "--max-iters", "0", "-o", out,
    )
    assert code == 3  # the start guess is emitted, far above the threshold
    assert "after 0 iteration(s)" in stdout and out.exists()


def test_compile_malformed_circuit_exits_2(tmp_path, fixtures, capsys):
    bad = tmp_path / "bad.xasm"
    bad.write_text("X(q[0;\n")
    code, _, stderr = run(
        capsys,
        "compile", bad, fixtures / "model_1q_xy.json",
        "--max-time", "10", "-o", tmp_path / "x.json",
    )
    assert code == 2


@pytest.mark.parametrize(
    "command, source, bind",
    [
        ("compile", "Rx(q[0], 1e999);", None),
        ("compile", "Rx(q[0], 1e308*10);", None),
        ("unitary", "CPhase(q[0], q[1], 1e999);", None),
        ("compile", "Rx(q[0], theta);", "theta=1e999"),
    ],
    ids=["literal", "overflow", "cphase", "bind"],
)
def test_non_finite_angle_exits_2_at_the_circuit(
    tmp_path, fixtures, capsys, command, source, bind
):
    circuit = tmp_path / "bad.xasm"
    circuit.write_text(source + "\n")
    argv = [command, circuit]
    if command == "compile":
        argv += [fixtures / "model_1q_x_nodrift.json", "--max-time", "10"]
        argv += ["-o", tmp_path / "x.json"]
    if bind:
        argv += ["--bind", bind]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert "not finite (line 1, column" in stderr
    assert not (tmp_path / "x.json").exists()


def test_compile_bind_flag(tmp_path, fixtures, capsys):
    out = tmp_path / "rx.pulse.json"
    code, _, _ = run(
        capsys,
        "compile", fixtures / "rx_theta.xasm", fixtures / "model_1q_x_nodrift.json",
        "--max-time", "10", "--bind", "theta=pi/2", "--tol", "1e-6", "-o", out,
    )
    assert code == 0


# ---------------------------------------------------------------- simulate


@pytest.fixture
def h_pulse(tmp_path, fixtures, capsys):
    out = tmp_path / "h.pulse.json"
    code = main([
        "compile", str(fixtures / "h.xasm"), str(fixtures / "model_1q_xy.json"),
        "--max-time", "10", "--seed", "11", "--tol", "1e-6", "-o", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    return out


def test_simulate_hadamard_lands_on_plus_state(h_pulse, fixtures, capsys):
    code, stdout, _ = run(capsys, "simulate", h_pulse, fixtures / "model_1q_xy.json")
    assert code == 0
    header, rows = read_csv(stdout)
    assert header == ["t", "<X0>", "<Y0>", "<Z0>", "p_excited"]
    final = dict(zip(header, rows[-1]))
    assert final["<X0>"] >= 0.999
    assert abs(final["<Z0>"]) <= 0.03


def test_simulate_t1_reduces_excitation(tmp_path, fixtures, capsys):
    out = tmp_path / "x.pulse.json"
    assert main([
        "compile", str(fixtures / "x.xasm"), str(fixtures / "model_1q_x_nodrift.json"),
        "--max-time", "10", "--tol", "1e-8", "-o", str(out),
    ]) == 0
    capsys.readouterr()
    _, closed, _ = run(capsys, "simulate", out, fixtures / "model_1q_x_nodrift.json")
    _, damped, _ = run(
        capsys, "simulate", out, fixtures / "model_1q_x_nodrift.json", "--t1", "100"
    )
    p_closed = read_csv(closed)[1][-1][-1]
    p_damped = read_csv(damped)[1][-1][-1]
    assert p_closed > 0.999
    assert p_damped < p_closed


def dense_t1_trajectory(model, pulse, t1):
    """<X>, <Y>, <Z> per qubit after each slice from 0: the column-stacked
    Liouvillian of each slice, exponentiated by scipy, with decay 1/t1 on
    every qubit; operators are Kronecker products, qubit 0 the last factor."""
    from scipy.linalg import expm

    n, dt = model["n_qubits"], model["dt"]
    paulis = {
        "I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1]),
        "SM": np.array([[0, 1], [0, 0]]),
    }

    def op(spec):
        mat = np.eye(1 << n, dtype=complex)
        for factor in spec.split("*"):
            name, qubit = factor[:-1], int(factor[-1])
            mat = mat @ np.kron(
                np.kron(np.eye(1 << (n - 1 - qubit)), paulis[name]), np.eye(1 << qubit)
            )
        return mat

    eye = np.eye(1 << n)
    drift = sum(term["coef"] * op(term["op"]) for term in model["drift"])
    controls = {c["channel"]: op(c["op"]) for c in model["control"]}
    decay = 0
    for q in range(n):
        sm = op(f"SM{q}")
        l2 = sm.conj().T @ sm
        decay = decay + (np.kron(sm.conj(), sm) - 0.5 * np.kron(eye, l2)
                         - 0.5 * np.kron(l2.T, eye)) / t1
    vec = np.eye(1 << (2 * n))[0]
    observables = [op(f"{p}{q}") for q in range(n) for p in "XYZ"]
    rows = []
    samples = {i["channel"]: [s[0] for s in i["samples"]] for i in pulse["instructions"]}
    n_slices = len(next(iter(samples.values())))
    for k in range(n_slices + 1):
        rho = vec.reshape(1 << n, -1, order="F")
        rows.append([np.trace(o @ rho).real for o in observables])
        if k < n_slices:
            ham = drift + sum(samples[ch][k] * controls[ch] for ch in controls)
            sup = -1j * (np.kron(eye, ham) - np.kron(ham.T, eye)) + decay
            vec = expm(sup * dt) @ vec
    return np.array(rows)


def test_simulate_t1_on_three_qubits_matches_a_dense_liouvillian(
    tmp_path, fixtures, capsys
):
    # eight levels: the Lindblad factor kernel, on slices of 2 and 3 substeps
    model = json.loads((fixtures / "model_3q.json").read_text())
    rng = np.random.default_rng(3)
    pulse = {"dt": model["dt"], "instructions": [
        {"channel": c["channel"], "t0": 0,
         "samples": [[float(v), 0.0] for v in rng.uniform(-3, 3, 12)]}
        for c in model["control"]
    ]}
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(pulse))
    code, stdout, _ = run(
        capsys, "simulate", path, fixtures / "model_3q.json", "--t1", "20"
    )
    assert code == 0
    header, rows = read_csv(stdout)
    table = np.array(rows)
    assert np.allclose(table[:, 0], np.arange(13) * model["dt"], atol=1e-12, rtol=0)
    paulis = [i for i, name in enumerate(header) if name.startswith("<")]
    exact = dense_t1_trajectory(model, pulse, 20.0)
    assert np.max(np.abs(table[:, paulis] - exact)) <= 1e-9


def test_simulate_builds_each_operator_once(tmp_path, fixtures, capsys, monkeypatch):
    # model_3q.json has 2 drift and 6 control terms; --lo-delta adds a Z and
    # --t1 an SM term per qubit: 14 operators, each built once
    from optpulse import model as model_module

    built = []
    original = model_module.build_operator

    def counted(expression, n_qubits):
        built.append(expression)
        return original(expression, n_qubits)

    monkeypatch.setattr(model_module, "build_operator", counted)
    model = json.loads((fixtures / "model_3q.json").read_text())
    pulse = {"dt": model["dt"], "instructions": [
        {"channel": c["channel"], "t0": 0, "samples": [[0.3, 0.0]] * 4}
        for c in model["control"]
    ]}
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(pulse))
    code, stdout, _ = run(
        capsys, "simulate", path, fixtures / "model_3q.json",
        "--t1", "20", "--lo-delta", "0.01",
    )
    assert code == 0 and stdout.count("\n") == 6
    expected = [t["op"] for t in model["drift"]] + [c["op"] for c in model["control"]]
    expected += [f"Z{q}" for q in range(3)] + [f"SM{q}" for q in range(3)]
    assert built == expected


@pytest.mark.parametrize("t1", ["0", "-1", "nan"])
def test_simulate_non_positive_t1_exits_2(h_pulse, fixtures, capsys, t1):
    code, stdout, stderr = run(
        capsys, "simulate", h_pulse, fixtures / "model_1q_xy.json", f"--t1={t1}"
    )
    assert code == 2
    assert stdout == "" and f"--t1 must be positive, got {float(t1)}" in stderr


def test_simulate_initial_state_and_observables(h_pulse, fixtures, capsys):
    code, stdout, _ = run(
        capsys,
        "simulate", h_pulse, fixtures / "model_1q_xy.json",
        "--initial-state", "1", "--observables", "Z0, X0*X0",
    )
    assert code == 0
    header, rows = read_csv(stdout)
    assert header[-2:] == ["Z0", "X0*X0"]
    assert rows[0][header.index("<Z0>")] == -1.0  # started in |1>
    assert all(r[header.index("X0*X0")] == pytest.approx(1.0) for r in rows)


@pytest.mark.parametrize("observable", ["Z0//2", "Z0/2"])
def test_simulate_observables_take_no_division_or_comment(
    h_pulse, fixtures, capsys, observable
):
    code, _, stderr = run(
        capsys,
        "simulate", h_pulse, fixtures / "model_1q_xy.json",
        "--observables", observable,
    )
    assert code == 2
    assert "operator expression" in stderr


def test_simulate_overflowing_observable_exits_2(h_pulse, fixtures, capsys):
    # the literals are finite; their product overflows to inf, and inf * 0
    # puts NaN off the diagonal
    with pytest.warns(RuntimeWarning):
        code, stdout, stderr = run(
            capsys,
            "simulate", h_pulse, fixtures / "model_1q_xy.json",
            "--observables", "1e200*1e200*Z0",
        )
    assert code == 2 and stdout == ""
    assert "non-finite" in stderr


def test_simulate_observable_with_a_sign_inside_a_product(h_pulse, fixtures, capsys):
    code, stdout, _ = run(
        capsys,
        "simulate", h_pulse, fixtures / "model_1q_xy.json",
        "--observables", "X0*-X0",
    )
    assert code == 0
    header, rows = read_csv(stdout)
    assert all(r[header.index("X0*-X0")] == pytest.approx(-1.0) for r in rows)


def test_simulate_channel_mismatch_exits_2(h_pulse, fixtures, capsys):
    for flags in ([], ["--t1", "20"]):  # closed, and the Lindblad engine
        code, _, stderr = run(
            capsys, "simulate", h_pulse, fixtures / "model_1q_x_nodrift.json", *flags
        )
        assert code == 2
        assert "dy" in stderr


@pytest.mark.parametrize("flags", [[], ["--t1", "20"]], ids=["closed", "t1"])
@pytest.mark.parametrize(
    "instructions",
    ["[]", '[{"channel": "dx", "t0": 0, "samples": [[0.1, 0], [0.2, 0]]}]'],
    ids=["empty", "sampled"],
)
def test_simulate_dt_mismatch_exits_2(tmp_path, fixtures, capsys, instructions, flags):
    # the model's dt is 0.2: an empty program is checked by simulate itself,
    # a sampled one by the engine that runs it
    pulse = tmp_path / "dt.json"
    pulse.write_text(f'{{"dt": 0.1, "instructions": {instructions}}}')
    code, stdout, stderr = run(
        capsys, "simulate", pulse, fixtures / "model_1q_x_nodrift.json", *flags
    )
    assert code == 2
    assert stdout == "" and "dt" in stderr and "0.1" in stderr


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_simulate_non_finite_lo_delta_exits_2(h_pulse, fixtures, capsys, delta):
    code, stdout, stderr = run(
        capsys, "simulate", h_pulse, fixtures / "model_1q_xy.json",
        f"--lo-delta={delta}",
    )
    assert code == 2
    assert stdout == "" and "drift coefficient" in stderr


def test_simulate_malformed_pulse_exits_2(tmp_path, fixtures, capsys):
    pulse = tmp_path / "bad.json"
    pulse.write_text('{"dt": 0.2, "instructions": [{"t0": 0, "samples": [[0.1, 0]]}]}')
    code, _, stderr = run(
        capsys, "simulate", pulse, fixtures / "model_1q_x_nodrift.json"
    )
    assert code == 2
    assert "channel" in stderr


def test_simulate_huge_t0_exits_2(tmp_path, fixtures, capsys):
    pulse = tmp_path / "late.json"
    pulse.write_text(
        '{"dt": 0.2, "instructions": [{"channel": "dx", "t0": %d, '
        '"samples": [[0.1, 0]]}]}' % 10**400
    )
    code, _, stderr = run(
        capsys, "simulate", pulse, fixtures / "model_1q_x_nodrift.json"
    )
    assert code == 2
    assert "samples" in stderr


def test_simulate_a_program_past_the_slice_limit_exits_2(tmp_path, fixtures, capsys):
    # one sample at t0 = 2^22: a small file that would span 2^22 + 1 slices
    pulse = tmp_path / "late.json"
    pulse.write_text(
        '{"dt": 0.2, "instructions": [{"channel": "dx", "t0": %d, '
        '"samples": [[0.1, 0]]}]}' % 2**22
    )
    code, stdout, stderr = run(
        capsys, "simulate", pulse, fixtures / "model_1q_x_nodrift.json"
    )
    assert code == 2
    assert stdout == "" and "slice limit" in stderr


def test_simulate_t1_with_an_overflowing_drive_exits_2(tmp_path, capsys):
    # the Lindblad substep count overflows
    model = tmp_path / "model.json"
    model.write_text(
        '{"n_qubits": 1, "dt": 0.1, "control": [{"channel": "dx", "op": "X0"}]}'
    )
    pulse = tmp_path / "p.json"
    pulse.write_text(json.dumps({
        "dt": 0.1,
        "instructions": [{"channel": "dx", "t0": 0, "samples": [[1e200, 0]] * 3}],
    }))
    code, stdout, stderr = run(capsys, "simulate", pulse, model, "--t1", "20")
    assert code == 2
    assert stdout == "" and "substeps" in stderr


@pytest.mark.parametrize("flags", [[], ["--t1", "20"]], ids=["closed", "t1"])
@pytest.mark.parametrize("n_qubits", [1, 2])
def test_simulate_with_an_overflowing_drive_exits_2(
    tmp_path, capsys, n_qubits, flags
):
    # two finite 1e308 channels on X0 sum to an infinite slice Hamiltonian
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "n_qubits": n_qubits, "dt": 0.1,
        "control": [{"channel": "a", "op": "X0"}, {"channel": "b", "op": "X0"}],
    }))
    pulse = tmp_path / "p.json"
    pulse.write_text(json.dumps({"dt": 0.1, "instructions": [
        {"channel": ch, "t0": 0, "samples": [[1e308, 0]] * 3} for ch in "ab"
    ]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "simulate", pulse, model, *flags)
    assert code == 2
    assert stdout == "" and "overflows" in stderr and "Traceback" not in stderr


def test_compile_with_a_non_finite_operator_exits_2_at_the_model(
    tmp_path, fixtures, capsys
):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "n_qubits": 1, "dt": 0.2,
        "drift": [{"coef": 1.0, "op": "1e999*X0"}],
        "control": [{"channel": "dx", "op": "X0"}],
    }))
    code, _, stderr = run(
        capsys, "compile", fixtures / "x.xasm", model, "--max-time", "10",
        "-o", tmp_path / "x.json",
    )
    assert code == 2
    assert "number '1e999' overflows" in stderr and "'1e999*X0'" in stderr


def test_simulate_empty_program_is_constant(tmp_path, fixtures, capsys):
    pulse = tmp_path / "empty.json"
    pulse.write_text('{"dt": 0.2, "instructions": [], "metadata": {}}\n')
    code, stdout, _ = run(
        capsys, "simulate", pulse, fixtures / "model_1q_x_nodrift.json"
    )
    assert code == 0
    header, rows = read_csv(stdout)
    assert rows == [[0.0, 0.0, 0.0, 1.0, 0.0]]


def test_simulate_writes_csv_and_manifest_with_output_flag(
    h_pulse, tmp_path, fixtures, capsys
):
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "simulate", h_pulse, fixtures / "model_1q_xy.json", "-o", out
    )
    assert code == 0 and stdout == ""
    assert out.exists()
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"


# ----------------------------------------------------------------- unitary


def test_unitary_prints_x_matrix(fixtures, capsys):
    code, stdout, _ = run(capsys, "unitary", fixtures / "x.xasm")
    assert code == 0
    rows = [[complex(z) for z in line.split()] for line in stdout.strip().split("\n")]
    assert np.allclose(rows, [[0, 1], [1, 0]])


def test_unitary_qubit_index_over_the_digit_limit_exits_2(tmp_path, capsys):
    source = tmp_path / "big.xasm"
    source.write_text("X(q[" + "1" * 5000 + "]);\n")
    code, _, stderr = run(capsys, "unitary", source)
    assert code == 2
    assert "too large" in stderr and "column 5" in stderr


def test_unitary_h_as_yx_matches_hadamard(fixtures, capsys):
    code, stdout, _ = run(capsys, "unitary", fixtures / "h_as_yx.xasm")
    rows = [[complex(z) for z in line.split()] for line in stdout.strip().split("\n")]
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(np.array(rows) - h)) <= 1e-12


def test_unitary_free_params_exit_2_without_bind(fixtures, capsys):
    code, _, stderr = run(capsys, "unitary", fixtures / "rx_theta.xasm")
    assert code == 2
    assert "theta" in stderr
    code, stdout, _ = run(
        capsys, "unitary", fixtures / "rx_theta.xasm", "--bind", "theta=pi"
    )
    assert code == 0
    rows = [[complex(z) for z in line.split()] for line in stdout.strip().split("\n")]
    assert np.allclose(rows, [[0, -1j], [-1j, 0]], atol=1e-12)


@pytest.mark.parametrize(
    "raw, theta", [("3*pi/4", 3 * np.pi / 4), ("-pi/2", -np.pi / 2)]
)
def test_bind_accepts_pi_arithmetic(fixtures, capsys, raw, theta):
    code, stdout, _ = run(
        capsys, "unitary", fixtures / "rx_theta.xasm", "--bind", f"theta={raw}"
    )
    assert code == 0
    rows = [[complex(z) for z in line.split()] for line in stdout.strip().split("\n")]
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    assert np.allclose(rows, [[c, -1j * s], [-1j * s, c]], atol=1e-12)


@pytest.mark.parametrize(
    "raw", ["__import__('os').getcwd()", "__import__", "pi pi", "", "pi//2"]
)
def test_bind_rejects_anything_but_a_number(fixtures, capsys, raw):
    code, _, stderr = run(
        capsys, "unitary", fixtures / "rx_theta.xasm", "--bind", f"theta={raw}"
    )
    assert code == 2
    assert stderr.startswith("error:")


@pytest.mark.parametrize(
    "binds, message",
    [
        (["theta"], "bad --bind entry 'theta' (want name=value)"),
        (["theta=pi", "phi=1"], "--bind names ['phi'] are not circuit parameters"),
        (["phi=1,theta=pi"], "--bind names ['phi'] are not circuit parameters"),
    ],
    ids=["no-equals", "unknown-name", "unknown-name-in-a-list"],
)
def test_bind_errors_exit_2(fixtures, capsys, binds, message):
    argv = ["unitary", fixtures / "rx_theta.xasm"]
    for bind in binds:
        argv += ["--bind", bind]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == "" and message in stderr


def test_bind_missing_value_exits_2(tmp_path, capsys):
    circuit = tmp_path / "two.xasm"
    circuit.write_text("Rx(q[0], theta);\nRz(q[0], phi);\n")
    code, stdout, stderr = run(capsys, "unitary", circuit, "--bind", "theta=pi")
    assert code == 2
    assert stdout == "" and "missing --bind value(s) for ['phi']" in stderr


# ------------------------------------------------------------------- sweep


def test_sweep_matches_rotation_law(fixtures, capsys):
    code, stdout, _ = run(
        capsys,
        "sweep", fixtures / "rx_theta.xasm", fixtures / "model_1q_x_nodrift.json",
        "--values", "0, pi/2, pi", "--max-time", "10", "--tol", "1e-8",
    )
    assert code == 0
    header, rows = read_csv(stdout)
    assert header == ["value", "infidelity", "p_excited"]
    for (value, inf, p) in rows:
        assert inf <= 1e-6
        assert p == pytest.approx(np.sin(value / 2) ** 2, abs=0.02)


def test_sweep_empty_values_gives_header_only(fixtures, capsys):
    code, stdout, _ = run(
        capsys,
        "sweep", fixtures / "rx_theta.xasm", fixtures / "model_1q_x_nodrift.json",
        "--values", "", "--max-time", "10",
    )
    assert code == 0
    assert stdout.strip() == "value, infidelity, p_excited"


def test_sweep_rejects_a_comment_in_a_value(fixtures, capsys):
    code, stdout, stderr = run(
        capsys,
        "sweep", fixtures / "rx_theta.xasm", fixtures / "model_1q_x_nodrift.json",
        "--values", "pi//2", "--max-time", "10",
    )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")


def test_sweep_requires_exactly_one_free_param(fixtures, capsys):
    code, _, stderr = run(
        capsys,
        "sweep", fixtures / "x.xasm", fixtures / "model_1q_x_nodrift.json",
        "--values", "1", "--max-time", "10",
    )
    assert code == 2
    assert "free parameter" in stderr


# ------------------------------------------------------------- determinism


def test_krotov_seed_changes_the_pulse(tmp_path, fixtures, capsys):
    args = [
        "compile", str(fixtures / "h.xasm"), str(fixtures / "model_1q_x.json"),
        "--method", "krotov", "--max-time", "10",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--seed", "0", "-o", str(a)]) == 0
    assert main(args + ["--seed", "5", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_identical_invocations_reproduce_bytes(tmp_path, fixtures, capsys):
    args = [
        "compile", str(fixtures / "h.xasm"), str(fixtures / "model_1q_xy.json"),
        "--max-time", "10", "--seed", "11", "--tol", "1e-5",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    ma = (tmp_path / "a.json.manifest.json").read_text().replace("a.json", "o.json")
    mb = (tmp_path / "b.json.manifest.json").read_text().replace("b.json", "o.json")
    assert ma == mb
