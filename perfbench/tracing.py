"""Spans and counts for the traced run, recorded from outside optpulse.

Spans wrap the benchmark's own calls into each layer (see workloads.py).
Counts and kernel times are read where optpulse calls numpy and scipy, and
at a few public optpulse functions; each wrapper replaces the function on
the module that owns it and on every ``optpulse`` module that bound it by a
public name, and ``uninstall`` puts the originals back. No name that starts
with ``_`` is read or replaced, so private helpers can change freely.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy


class Tracer:
    """Per-job span totals and counts, kept between ``begin_job`` and ``end_job``.

    Outside a job, spans and counts do nothing, so untraced rounds use the
    same tracer with no wrappers installed.
    """

    def __init__(self):
        self.values = defaultdict(float)
        self.active = False
        self.depth = 0
        self.covered = 0.0
        self.in_objective = 0
        self._restore = []

    def begin_job(self):
        self.values = defaultdict(float)
        self.depth = 0
        self.covered = 0.0
        self.active = True

    def end_job(self, wall_s: float) -> dict:
        self.active = False
        values = dict(self.values)
        values["job.self_s"] = wall_s - self.covered
        evals = values.get("optimize.objective_evals", 0.0)
        if evals:
            values["optimize.useful_eval_ratio"] = values.get("optimize.iterations", 0.0) / evals
        return values

    def _close(self, name, start):
        elapsed = time.perf_counter() - start
        self.depth -= 1
        self.values[name] += elapsed
        if self.depth == 0:
            self.covered += elapsed

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        self.depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start)

    def add(self, name, value):
        if self.active:
            self.values[name] += value

    def _timed(self, fn, span_name, count_name=None, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_name:
                self.values[count_name] += 1
            if on_call:
                on_call(args, kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_name, start)
        return wrapper

    def _count_eigh(self, args, kwargs):
        shape = numpy.shape(args[0])
        self.values["kernel.eigh_matrices"] += int(numpy.prod(shape[:-2], dtype=int))
        if len(shape) > 2 and not self.in_objective:
            # one stacked eigh per full-horizon loss evaluation (GRAPE, Krotov)
            self.values["optimize.objective_evals"] += 1

    def _minimize(self, fn):
        @functools.wraps(fn)
        def wrapper(fun, x0, *args, **kwargs):
            if not self.active:
                return fn(fun, x0, *args, **kwargs)
            self.values["optimize.goat.lbfgs_runs"] += 1

            def objective(*a, **k):
                self.values["optimize.objective_evals"] += 1
                self.in_objective += 1
                try:
                    return fun(*a, **k)
                finally:
                    self.in_objective -= 1
            return fn(objective, x0, *args, **kwargs)
        return wrapper

    def _optimize(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close("optimize.run_s", start)
            self.values["optimize.iterations"] += result.iterations
            self.values["optimize.infidelity"] += result.final_infidelity
            return result
        return wrapper

    def _replace(self, owner, name, wrapper_for):
        original = getattr(owner, name, None)
        if original is None:
            return
        wrapper = wrapper_for(original)
        self._swap(owner, name, original, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "optpulse" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original and not attr.startswith("_"):
                    self._swap(module, attr, original, wrapper)

    def _swap(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def install(self, lib):
        """Wrap the layer boundaries; ``lib`` is the imported optpulse package."""
        import scipy.optimize

        self._replace(numpy.linalg, "eigh", lambda fn: self._timed(
            fn, "kernel.eigh_s", "kernel.eigh_calls", self._count_eigh))
        self._replace(numpy, "einsum", lambda fn: self._timed(
            fn, "kernel.einsum_s", "kernel.einsum_calls"))
        self._replace(scipy.optimize, "minimize", self._minimize)
        self._replace(lib, "circuit_unitary", lambda fn: self._timed(
            fn, "circuits.unitary_s"))
        self._replace(lib, "build_operator", lambda fn: self._timed(
            fn, "model.operator_s", "model.operator_builds"))
        self._replace(lib, "matrix_exp_hermitian_skew", lambda fn: self._timed(
            fn, "dynamics.matrix_exp_s", "dynamics.matrix_exp_calls"))
        self._replace(lib.Optimizer, "optimize", self._optimize)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
