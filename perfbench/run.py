"""Compile-and-simulate benchmark of optpulse.

    python3 perfbench/run.py --workload grape-2q --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: optpulse is imported from ``src/`` next to
this directory. One process runs the workload's seeded jobs in whole rounds
and stops at the round end nearest to ``--seconds``. After the timed loop,
every distinct output is checked against the oracles in oracles.py. Each
metric is printed with its unit. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md for what each metric means.
"""

import os

# One BLAS thread: the job loop runs in one process with no extra threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_STARTS = 5

# Metric names and units have one home: BENCHMARK.json at the checkout root.
SPEC = HERE.parent / "BENCHMARK.json"


def measure_setup(workload) -> float:
    """Median wall time of fresh interpreters that import and parse."""
    request = json.dumps({"src": str(SRC), "models": workload.model_texts,
                          "circuits": workload.circuit_texts})
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              input=request, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout.strip() != "ok":
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(samples)


def host_reference() -> float:
    """A fixed computation that shares no code with optpulse, timed."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for k in range(20000):
        acc += (k * k) % 7
    mat = np.full((24, 24), 1.0 / 24)
    for _ in range(200):
        mat = mat @ mat + 0.5
        mat /= mat.sum()
    return time.perf_counter() - start


class Runner:
    """Runs and times jobs; keeps each distinct output for the oracles."""

    def __init__(self, lib, jobs, tracer):
        self.lib = lib
        self.jobs = jobs
        self.tracer = tracer
        self.outputs = {}  # (job index, output signature) -> output
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def run(self, index: int) -> float:
        job = self.jobs[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = job.run(self.lib, self.tracer)
        except self.lib.OptPulseError as exc:
            wall = time.perf_counter() - start
            self.failed += 1
            if not job.expect_failure:
                self.unexpected.append(f"{job.name}: {exc}")
        else:
            wall = time.perf_counter() - start
            self.outputs.setdefault((index, job.signature(output)), output)
        return wall

    def check(self) -> list:
        """Problems the oracles find in the kept outputs; run after timing."""
        problems = []
        for (index, _), output in self.outputs.items():
            job = self.jobs[index]
            problems += [f"{job.name}: {p}" for p in job.check(output)]
        return problems


def run_workload(lib, workload, seconds: float, traced: bool):
    import tracing

    tracer = tracing.Tracer()
    runner = Runner(lib, workload.jobs, tracer)
    first = next(i for i, j in enumerate(workload.jobs) if not j.expect_failure)
    runner.run(first)  # warm-up: lazy imports and first BLAS calls
    runner.attempted = runner.failed = 0

    plain, traced_walls, records = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        if traced and rounds % 2 == 1:
            tracer.install(lib)
            try:
                for index, job in enumerate(workload.jobs):
                    tracer.begin_job()
                    wall = runner.run(index)
                    values = tracer.end_job(wall)
                    values["host.ref_s"] = host_reference()
                    traced_walls.append(wall)
                    records.append({"job": job.name, "round": rounds, "wall_s": wall,
                                    "values": values})
            finally:
                tracer.uninstall()
        else:
            plain += [runner.run(index) for index in range(len(workload.jobs))]
        rounds += 1
        now = time.perf_counter()
        # stop at the round end nearest to the time budget
        done = now - start + (now - round_start) / 2 >= seconds
        if done and (not traced or rounds >= 2):
            break
    return runner, plain, traced_walls, records, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "optpulse" / "__init__.py").is_file():
        print(f"error: no optpulse sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(workloads.NAMES), file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    setup_s = measure_setup(workload)

    sys.path.insert(0, str(SRC))
    import optpulse as lib

    if Path(lib.__file__).resolve().parent != (SRC / "optpulse").resolve():
        print(f"error: imported optpulse from {lib.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner, plain, traced_walls, records, rounds = run_workload(
        lib, workload, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = runner.check()  # after the peak is read: scipy loads for the oracles
    if args.trace:
        metrics = {}
        for entry in spec["per_layer"]:
            values = [r["values"].get(entry["name"], 0.0) for r in records]
            metrics[entry["name"]] = {"value": statistics.median(values), "unit": entry["unit"]}
        overhead = statistics.median(traced_walls) - statistics.median(plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": setup_s,
            "job_p50_s": statistics.median(plain),
            "jobs_per_s": (runner.attempted - runner.failed) / sum(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    correct = not problems
    for line in problems + runner.unexpected:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"attempted {runner.attempted}, failed {runner.failed}, "
          f"outputs {'correct' if correct else 'WRONG'}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")

    RESULTS.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "attempted": runner.attempted, "failed": runner.failed,
              "problems": problems, "unexpected_failures": runner.unexpected,
              "job_walls_s": plain, "metrics": metrics, "traced_jobs": records}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
