"""Mutation gate for the dual-route checks: each mutant must fail its test.

Every entry names a file under src/optpulse, a text that occurs there
exactly once, the text that replaces it, further such edits of the same
file if the mutant needs them, and the pytest node id of the test that
must fail once the mutant is applied. The script copies src/ into a
temporary directory, checks that every named test passes on the unmutated
copy, then applies one mutant at a time, runs only its test against the
copy, and restores the file. It exits 1 if a mutant's test passes, if one
of its texts is not found exactly once, or if its test errors instead of
failing.
An entry with a ``survivor`` reason is a known survivor: it is run and
reported, and it does not fail the gate.

Pytest does not collect this file. Run it from any directory:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/optpulse
    old: str
    new: str
    test: str  # pytest node id, relative to the repository root
    survivor: str = ""  # why the test cannot kill it, for a known survivor
    also: tuple[tuple[str, str], ...] = ()  # further (old, new) edits of path


OPT = "tests/test_optimizers.py::"
DYN = "tests/test_dynamics.py::"
CLI = "tests/test_cli.py::"

MUTANTS = (
    Mutant(
        "gradient adjoint without its conjugate",
        "dynamics.py",
        "np.conjugate(self.fwd[1:], out=work[0])",
        "np.positive(self.fwd[1:], out=work[0])",
        OPT + "test_gradient_matches_an_independent_constant_drive_reference",
    ),
    Mutant(
        "Krotov costates without the conjugate",
        "optimize/krotov.py",
        "_matmul(boundary, fwd.conj().swapaxes(1, 2))",
        "_matmul(boundary, fwd.swapaxes(1, 2))",
        OPT + "test_krotov_costates_match_the_back_propagation_loop",
    ),
    Mutant(
        "_check_unitary without its isfinite",
        "optimize/problem.py",
        "np.all(np.isfinite(mat)) and unitarity_defect(mat)",
        "unitarity_defect(mat)",
        OPT + "test_infidelity_rejects_a_non_finite_propagator_or_target",
    ),
    Mutant(
        "no Wolfe curvature condition",
        "optimize/problem.py",
        "if trial_grad @ (trial - x) >= WOLFE * decrease:",
        "if True:",
        OPT + "test_minimize_leaves_a_flat_non_convex_start",
    ),
    Mutant(
        "a gradient formed at every line-search trial",
        "optimize/problem.py",
        "            if finite and trial_loss <= loss + ARMIJO * decrease:\n",
        "            if finite:\n",
        OPT + "test_gradients_are_formed_only_where_the_minimizer_reads_them[GRAPE]",
    ),
    Mutant(
        "a gradient formed from an overwritten propagation",
        "optimize/problem.py",
        "if calls != call:",
        "if False:",
        OPT + "test_a_gradient_raises_after_a_later_evaluation",
    ),
    Mutant(
        "no memory clear on an active-set change",
        "optimize/problem.py",
        "pairs, free_before = [], free",
        "free_before = free",
        OPT + "test_grape_amplitude_bound_reaches_the_bang_bang_floor",
    ),
    Mutant(
        "swapped CF4 weights",
        "optimize/goat.py",
        "np.array([[1.0, -1.0], [-1.0, 1.0]])",
        "np.array([[-1.0, 1.0], [1.0, -1.0]])",
        OPT + "test_goat_cf4_steps_converge_at_fourth_order",
    ),
    Mutant(
        "GOAT vjp with its sign flipped",
        "optimize/goat.py",
        "return vjp((g.reshape(len(g), -1, 2) @ _CF4_MIX).reshape(g.shape))",
        "return -vjp((g.reshape(len(g), -1, 2) @ _CF4_MIX).reshape(g.shape))",
        OPT + "test_goat_gradient_matches_finite_differences",
    ),
    Mutant(
        "Krotov without lambda doubling",
        "optimize/krotov.py",
        "lam *= 2.0",
        "lam *= 1.0",
        OPT + "test_krotov_evaluations_count_lambda_retries",
    ),
    Mutant(
        "halved Lindblad jump term, superoperator kernel",
        "dynamics.py",
        "jump_part = h * jump_part.sum(axis=0)",
        "jump_part = 0.5 * h * jump_part.sum(axis=0)",
        DYN + "test_lindblad_matches_dense_liouvillian_exponential",
    ),
    Mutant(
        "halved Lindblad jump term, factor kernel",
        "dynamics.py",
        "right[0], right[2:] = np.eye(d), jumps.conj().swapaxes(-1, -2)",
        "right[0], right[2:] = np.eye(d), 0.5 * jumps.conj().swapaxes(-1, -2)",
        DYN + "test_stacked_superoperators_match_the_factor_form",
    ),
    Mutant(
        "_su2_propagators reading the upper triangle",
        "dynamics.py",
        "hams[:, 1, 1].real, hams[:, 1, 0]",
        "hams[:, 1, 1].real, hams[:, 0, 1]",
        DYN + "test_qubit_closed_form_matches_eigh_and_expm",
    ),
    Mutant(
        "wrong sign in _su2_gradient's series below SU2_SERIES_BELOW",
        "dynamics.py",
        "series = (1.0 / 30.0 - t2 / 840.0) * t2 - 1.0 / 3.0",
        "series = (-1.0 / 30.0 - t2 / 840.0) * t2 - 1.0 / 3.0",
        OPT + "test_qubit_kernels_match_expm_the_loop_reference_and_finite_differences",
    ),
    Mutant(
        "minimizer without its active set",
        "optimize/problem.py",
        "free = ~(((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0)))",
        "free = np.ones(x.shape, dtype=bool)",
        OPT + "test_minimize_finds_box_minimizer_on_a_bound",
    ),
    Mutant(
        "no dt check on an empty program",
        "cli.py",
        "if not dt_matches(program.dt, model.dt):",
        "if False:",
        CLI + "test_simulate_dt_mismatch_exits_2[empty-closed]",
    ),
    Mutant(
        "horizon tiling tolerance 1e-7",
        "limits.py",
        "HORIZON_TILE_RTOL = 1e-9",
        "HORIZON_TILE_RTOL = 1e-7",
        OPT + "test_problem_and_signal_tile_a_horizon_alike",
    ),
    Mutant(
        "no target-dimension check",
        "optimize/problem.py",
        "if target.shape[0] != self.model.dim:",
        "if False:",
        OPT + "test_problem_rejects_a_target_of_another_dimension",
    ),
    Mutant(
        "control-funcs slots without the finite check",
        "optimize/goat.py",
        "if not (math.isfinite(value) and (value > 0.0 or need == \"finite\")):",
        "if not (value > 0.0 or need == \"finite\"):",
        OPT + "test_parse_control_func_errors_are_positioned",
    ),
    Mutant(
        "no slice limit on GOAT's CF4 grids",
        "optimize/goat.py",
        "check_grid(2 * n_steps, problem.dim, OptimizationError)",
        "None",
        OPT + "test_goat_holds_each_cf4_grid_to_the_slice_limit[run-grid]",
    ),
    Mutant(
        "Taylor series capped at 4 terms, superoperator kernel",
        "dynamics.py",
        "for k in range(2, MAX_TAYLOR_TERMS + 1):",
        "for k in range(2, 4 + 1):",
        DYN + "test_lindblad_matches_dense_liouvillian_exponential",
    ),
    Mutant(
        "Taylor series capped at 4 terms, factor kernel",
        "dynamics.py",
        "for k in range(1, MAX_TAYLOR_TERMS + 1):",
        "for k in range(1, 4 + 1):",
        DYN + "test_factor_kernel_substeps_match_dense_liouvillian_exponential",
    ),
    Mutant(
        "half the Lindblad substeps and a 12-term cap, superoperator kernel",
        "dynamics.py",
        "np.ceil(bound * signal.dt)",
        "np.ceil(0.5 * bound * signal.dt)",
        DYN + "test_lindblad_matches_dense_liouvillian_exponential",
        also=(
            ("for k in range(2, MAX_TAYLOR_TERMS + 1):", "for k in range(2, 12 + 1):"),
        ),
    ),
    Mutant(
        "half the Lindblad substeps and a 12-term cap, factor kernel",
        "dynamics.py",
        "np.ceil(bound * signal.dt)",
        "np.ceil(0.5 * bound * signal.dt)",
        DYN + "test_factor_kernel_substeps_match_dense_liouvillian_exponential",
        also=(
            ("for k in range(1, MAX_TAYLOR_TERMS + 1):", "for k in range(1, 12 + 1):"),
        ),
    ),
    Mutant(
        "sweep's converged never cleared",
        "cli.py",
        "converged &= ok",
        "converged &= True",
        CLI + "test_sweep_writes_every_row_then_exits_3_when_a_value_misses",
    ),
    Mutant(
        "qubit limit raised",
        "limits.py",
        "if n_qubits > MAX_QUBITS:",
        "if n_qubits > 64:",
        "tests/test_model.py::test_oversize_model_rejected_before_any_allocation[40]",
    ),
    Mutant(
        "target-U digit-limit except narrowed",
        "optimize/__init__.py",
        "except ValueError:  # past int()'s digit limit",
        "except TypeError:  # past int()'s digit limit",
        "tests/test_registry.py::test_target_unitary_gate_names_match_the_gates",
    ),
    Mutant(
        "operator syntax errors without within",
        "model.py",
        "exc.within(f\"in operator expression {expression!r} on {n_qubits} qubit(s)\")",
        "f\"in operator expression {expression!r} on {n_qubits} qubit(s)\"",
        "tests/test_registry.py::test_target_unitary_syntax_errors_are_positioned",
    ),
)


def _pytest(copy: Path, *node_ids: str) -> subprocess.CompletedProcess:
    """Run the given tests against the optpulse in ``copy``, writing no
    bytecode, so that a mutant and the original text never share a .pyc."""
    path = os.pathsep.join(p for p in (str(copy), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    return subprocess.run(
        [*command, *node_ids], cwd=ROOT, env=env, capture_output=True, text=True
    )


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        known = "\n  ".join(m.name for m in MUTANTS)
        print(f"unknown mutant name; known:\n  {known}")
        return 2
    start, failures = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        check = subprocess.run(
            [sys.executable, "-c", "import optpulse; print(optpulse.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(copy)), capture_output=True, text=True,
        )
        if not check.stdout.startswith(str(copy)):
            print(f"the tests would not import the copy: {check.stdout or check.stderr}")
            return 1
        baseline = _pytest(copy, *sorted({m.test for m in chosen}))
        if baseline.returncode != 0:
            print("the named tests fail without any mutant:\n" + baseline.stdout)
            return 1
        for mutant in chosen:
            target = copy / "optpulse" / mutant.path
            original = target.read_text(encoding="utf-8")
            edits = ((mutant.old, mutant.new), *mutant.also)
            counts = [original.count(old) for old, _ in edits]
            if counts != [1] * len(edits):
                print(f"BROKEN   {mutant.name}: texts found {counts} times "
                      f"in {mutant.path}")
                failures += 1
                continue
            mutated = original
            for old, new in edits:
                mutated = mutated.replace(old, new)
            target.write_text(mutated, encoding="utf-8")
            try:
                run = _pytest(copy, mutant.test)
            finally:
                target.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; 0 is a survivor, and any other
            # code (a collection error, no such test) kills nothing
            if run.returncode == 1:
                print(f"killed   {mutant.name}")
            elif run.returncode == 0 and mutant.survivor:
                print(f"survived {mutant.name} (known: {mutant.survivor})")
            elif run.returncode == 0:
                print(f"SURVIVED {mutant.name}: {mutant.test} passed")
                failures += 1
            else:
                print(f"BROKEN   {mutant.name}: pytest exited {run.returncode}\n"
                      + run.stdout[-2000:] + run.stderr[-2000:])
                failures += 1
    print(f"{len(chosen)} mutants, {failures} failing the gate, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
