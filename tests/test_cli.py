"""End-to-end command-line behavior, exit codes, and artifacts."""

import json
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
    assert "final infidelity" in stdout and "iteration" in stdout
    doc = json.loads(out.read_text())
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


def test_compile_malformed_circuit_exits_2(tmp_path, fixtures, capsys):
    bad = tmp_path / "bad.xasm"
    bad.write_text("X(q[0;\n")
    code, _, stderr = run(
        capsys,
        "compile", bad, fixtures / "model_1q_xy.json",
        "--max-time", "10", "-o", tmp_path / "x.json",
    )
    assert code == 2


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


def test_simulate_channel_mismatch_exits_2(h_pulse, fixtures, capsys):
    code, _, stderr = run(
        capsys, "simulate", h_pulse, fixtures / "model_1q_x_nodrift.json"
    )
    assert code == 2
    assert "dy" in stderr


def test_simulate_malformed_pulse_exits_2(tmp_path, fixtures, capsys):
    pulse = tmp_path / "bad.json"
    pulse.write_text('{"dt": 0.2, "instructions": [{"t0": 0, "samples": [[0.1, 0]]}]}')
    code, _, stderr = run(
        capsys, "simulate", pulse, fixtures / "model_1q_x_nodrift.json"
    )
    assert code == 2
    assert "channel" in stderr


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
    "raw", ["__import__('os').getcwd()", "__import__", "pi pi", ""]
)
def test_bind_rejects_anything_but_a_number(fixtures, capsys, raw):
    code, _, stderr = run(
        capsys, "unitary", fixtures / "rx_theta.xasm", "--bind", f"theta={raw}"
    )
    assert code == 2
    assert stderr.startswith("error:")


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


def test_sweep_requires_exactly_one_free_param(fixtures, capsys):
    code, _, stderr = run(
        capsys,
        "sweep", fixtures / "x.xasm", fixtures / "model_1q_x_nodrift.json",
        "--values", "1", "--max-time", "10",
    )
    assert code == 2
    assert "free parameter" in stderr


# ------------------------------------------------------------- determinism


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
