"""Mutation gate for the dual-route checks: each mutant must fail its test.

Every entry names a file under src/optpulse, a text that occurs there
exactly once, the text that replaces it, and the pytest node id of the test
that must fail once the mutant is applied. The script copies src/ into a
temporary directory, checks that every named test passes on the unmutated
copy, then applies one mutant at a time, runs only its test against the
copy, and restores the file. It exits 1 if a mutant's test passes, if its
text is not found exactly once, or if its test errors instead of failing.
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


OPT = "tests/test_optimizers.py::"
DYN = "tests/test_dynamics.py::"

MUTANTS = (
    Mutant(
        "gradient adjoint without its conjugate",
        "optimize/problem.py",
        "np.conjugate(state.fwd[1:], out=work[0])",
        "np.positive(state.fwd[1:], out=work[0])",
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
        "optimize/problem.py",
        "series = (1.0 / 30.0 - t2 / 840.0) * t2 - 1.0 / 3.0",
        "series = (-1.0 / 30.0 - t2 / 840.0) * t2 - 1.0 / 3.0",
        OPT + "test_qubit_kernels_match_expm_the_loop_reference_and_finite_differences",
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
            if original.count(mutant.old) != 1:
                print(f"BROKEN   {mutant.name}: text found "
                      f"{original.count(mutant.old)} times in {mutant.path}")
                failures += 1
                continue
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
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
