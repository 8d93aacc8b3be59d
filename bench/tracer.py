"""In-memory span tracer that times modwalk's layers from outside.

Spans are recorded by wrappers that replace module-level functions for the
duration of one traced pass (see :func:`installed`).  Every binding of a
wrapped function in ``modwalk`` and its submodules is swapped, so calls
through ``from .x import f`` imports, through the defining module's globals
and through the package namespace are all seen.  The originals are put back
when the pass ends, even if it raises.

Spans come from a single thread and nest strictly (a callee's span closes
before its caller's), so the time a span's children cover is the plain sum
of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public names one modwalk module imports from another, plus the names the
# workloads call; "<module>.<function>" relative to the modwalk package.
TRACED = (
    "cli.main",
    "montecarlo.simulate",
    "montecarlo.compare_with_analytic",
    "solver.solve_master",
    "solver.harmonic_params",
    "solver.residual",
    "solver.minkowski_residual",
    "solver.denjoy_membership_residual",
    "solver.membership_alpha_roots",
    "solver.nn_step",
    "solver.example_ex0",
    "solver.example_ex1",
    "solver.example_ex2",
    "denjoy.check_stationarity",
    "denjoy.cylinder_mass",
    "denjoy.question_mark",
    "boundary.act_on_cylinder",
    "boundary.cylinders_up_to_depth",
    "group.reduce_concat",
    "group.inverse",
    "group.word_length",
    "group.parse_word",
    "group.convolve",
    "group.conjugate",
    "group.translate_right",
    "group.strip_identity_renormalize",
    "mediant.rational_to_lr",
    "mediant.lr_to_interval",
    "mediant.rational_to_cf",
    "mediant.lr_to_cf",
    "mediant.cf_to_lr",
    "mediant.cf_value",
)

# Tallies taken from return values: wrapped name -> (tally name, measure of the result).
OBSERVED = {
    "boundary.act_on_cylinder": ("boundary.pieces", len),
    "mediant.rational_to_lr": ("mediant.lr_nodes", lambda codes: len(codes.stem)),
}


class Tracer:
    """Spans (name, start, end, parent) of one run, kept in flat arrays."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.calls: list[int] = []
        self.tallies: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of ``fn`` recording one span per call (per resumption
        for a generator function) and one call per invocation."""
        nid = self._register(name)
        calls, stack = self.calls, self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        tallies = self.tallies
        if observe is not None:
            tally, measure = observe
            tallies[tally] = 0

        def open_span() -> int:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if observe is not None:
                tallies[tally] += measure(result)
            return result

        return wrapper

    def __len__(self) -> int:
        return len(self.starts)

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        if not len(self):
            return 0.0
        roots = np.frombuffer(self.parents, dtype=np.int32) < 0
        return float(self.durations()[roots].sum())

    def table(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls, total span seconds and self seconds (span
        time minus the time its child spans cover)."""
        n_names = len(self.names)
        out = {
            name: {"calls": self.calls[i], "total_s": 0.0, "self_s": 0.0}
            for i, name in enumerate(self.names)
        }
        if not len(self):
            return out
        dur = self.durations()
        parents = np.frombuffer(self.parents, dtype=np.int32)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=dur.size)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        self_time = np.bincount(ids, weights=dur - covered, minlength=n_names)
        for i, name in enumerate(self.names):
            out[name]["total_s"] = float(total[i])
            out[name]["self_s"] = float(self_time[i])
        return out

    def write(self, path) -> None:
        """Save the spans as compressed numpy arrays: ``name`` (an index into
        ``names``), ``start``, ``end`` and ``parent`` (-1 for a root span),
        with the ``run_id`` they share."""
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )


def _modwalk_modules():
    return [m for name, m in list(sys.modules.items()) if name == "modwalk" or name.startswith("modwalk.")]


@contextmanager
def installed(tracer: Tracer, traced=TRACED):
    """Swap every modwalk binding of each traced function for a tracing
    wrapper; restore the originals on exit."""
    swapped = []
    try:
        for qualname in traced:
            module_name, func_name = qualname.rsplit(".", 1)
            original = getattr(importlib.import_module(f"modwalk.{module_name}"), func_name, None)
            if original is None:  # the function no longer exists; its metrics stay zero
                tracer._register(qualname)
                continue
            wrapper = tracer.wrap(qualname, original, OBSERVED.get(qualname))
            for module in _modwalk_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        swapped.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(swapped):
            setattr(module, attr, original)
