"""Spans around the public calls into each localsgd module, taken from outside.

`Tracer.installed()` replaces public functions and methods by wrappers at
the attribute the caller looks up: a module global such as
`localsgd.harness.run_local_sgd` (which `measure_iterations` resolves at
call time) or a class attribute such as `LogisticObjective.value`.  The
originals are restored on exit, so untraced runs pay nothing.  No file of
the package is edited.

Every wrapped call pushes a frame on a stack.  On return its duration, its
self time (duration minus the time of wrapped calls made inside it) and a
call count are added to a per-name aggregate.  Hot leaf calls (the
objective oracles, averaging updates) keep only their durations, for
percentiles; all other calls are kept as spans (id, name, start, end,
parent id) in memory and written out by `write_spans`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import localsgd.asynchronous
import localsgd.averaging
import localsgd.cli
import localsgd.data
import localsgd.harness
import localsgd.lemmas
import localsgd.objectives
import localsgd.sync

LAYERS = ("data", "objectives", "averaging", "sync", "asynchronous", "lemmas",
          "harness")

_OBJECTIVE_METHODS = {
    "value": "objectives.value",
    "gradient": "objectives.gradient",
    "minibatch_gradient": "objectives.minibatch_gradient",
    "component_value": "objectives.component",
    "component_gradient": "objectives.component",
    "component_gradients_at": "objectives.component",
    "variance_at": "objectives.moments",
    "second_moment_at": "objectives.moments",
    "minibatch_gradient_many": "objectives.batched",
    "value_many": "objectives.batched",
    "gradient_many": "objectives.batched",
    "second_moment_many": "objectives.batched",
}

_LEMMA_CHECKS = {
    "check_variance_reduction": "lemmas.variance_reduction",
    "check_deviation_bound": "lemmas.deviation_bound",
    "check_perturbed_inequality": "lemmas.perturbed_step",
    "check_recursion_lemma": "lemmas.weighted_recursion",
    "check_async_deviation": "lemmas.async_deviation",
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.stats = {}          # name -> _Stat
        self.spans = []          # (id, name, start, end, parent id)
        self.counters = {}       # name -> number
        self.pairs = {}          # (parent name, child name) -> calls
        self._stack = []         # open frames: [id, name, start, child time]
        self._next_id = 0
        self._patches = []       # (owner, attribute, original)
        self._epoch = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name, leaf, hook):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        pairs = self.pairs
        clock = time.perf_counter
        stat = stats.setdefault(name, _Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, 0.0, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                    key = (parent[1], name)
                    pairs[key] = pairs.get(key, 0) + 1
                if leaf:
                    stat.durations.append(duration)
                else:
                    spans.append((frame[0], name, start - self._epoch,
                                  end - self._epoch,
                                  None if parent is None else parent[0]))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attribute, name, leaf=False, hook=None):
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, name, leaf, hook))

    @contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._install()
        try:
            yield self
        finally:
            for owner, attribute, original in reversed(self._patches):
                setattr(owner, attribute, original)
            self._patches.clear()
            self._stack.clear()

    def _install(self):
        harness = localsgd.harness
        # data: build_problem resolves parse_libsvm in the harness namespace
        self.patch(harness, "parse_libsvm", "data.parse_libsvm", hook=_csr_bytes)
        self.patch(localsgd.data, "parse_libsvm", "data.parse_libsvm",
                   hook=_csr_bytes)

        for cls in (localsgd.objectives.LogisticObjective,
                    localsgd.objectives.QuadraticObjective):
            for method, name in _OBJECTIVE_METHODS.items():
                hook = _value_bytes if method == "value" else None
                self.patch(cls, method, name, leaf=True, hook=hook)

        for cls in (localsgd.averaging.RunningAverage,
                    localsgd.averaging.ShiftedQuadraticAverage):
            self.patch(cls, "update", "averaging.update", leaf=True)

        # sync: each caller module holds its own reference to the engine
        self.patch(harness, "run_local_sgd", "sync.run_local_sgd")
        self.patch(localsgd.sync, "run_local_sgd", "sync.run_local_sgd")
        for owner in (localsgd.sync, localsgd.lemmas):
            self.patch(owner, "run_local_sgd_ensemble", "sync.ensemble",
                       hook=_ensemble_steps)

        for owner in (localsgd.asynchronous, localsgd.lemmas):
            self.patch(owner, "run_async_local_sgd", "asynchronous.run",
                       hook=_async_writes)
            self.patch(owner, "measured_delay", "asynchronous.measured_delay")

        for attribute, name in _LEMMA_CHECKS.items():
            self.patch(localsgd.lemmas, attribute, name, hook=_check_outcome)

        self.patch(localsgd.cli, "run_experiment", "harness.run_experiment")
        self.patch(localsgd.cli, "verify_lemmas", "harness.verify_lemmas")
        self.patch(localsgd.cli, "load_experiment_config", "harness.load_config")
        self.patch(harness, "build_problem", "harness.build_problem")
        self.patch(harness, "reference_for", "harness.reference")
        self.patch(harness, "grid_search_stepsize", "harness.grid_search")
        self.patch(harness, "measure_iterations", "harness.measure_iterations")
        self.patch(harness, "write_speedup_svg", "harness.write_svg")

    # -- results ------------------------------------------------------------

    def stat(self, name):
        return self.stats.get(name) or _Stat()

    def layer_self_times(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += stat.self_time
        return out

    def spans_named(self, name):
        return [span for span in self.spans if span[1] == name]

    def write_spans(self, path):
        """Spans, per-name aggregates and counters as one JSON document."""
        doc = {
            "spans": [
                {"id": sid, "name": name, "start_s": start, "end_s": end,
                 "parent": parent}
                for sid, name, start, end, parent in self.spans
            ],
            "aggregates": {
                name: {"calls": s.calls, "total_s": s.total,
                       "self_s": s.self_time}
                for name, s in sorted(self.stats.items())
            },
            "counters": self.counters,
            "calls_by_parent": [
                {"parent": parent, "child": child, "calls": calls}
                for (parent, child), calls in sorted(self.pairs.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- hooks: counts read from arguments and results at the boundary ----------


def _csr_bytes(tracer, args, kwargs, dataset):
    A = dataset.features
    tracer.count("data.csr_bytes", A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def _value_bytes(tracer, args, kwargs, result):
    objective, x = args[0], args[1]
    if isinstance(objective, localsgd.objectives.LogisticObjective):
        A = objective.dataset.features
        moved = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
                 + objective.dataset.labels.nbytes)
    else:
        moved = objective.hess.nbytes + objective.b_mean.nbytes
    tracer.count("objectives.value.bytes_computed", moved + x.nbytes)


def _ensemble_steps(tracer, args, kwargs, result):
    config, seeds = args[0], args[2]
    tracer.count("sync.ensemble.run_steps", len(seeds) * config.T)


def _async_writes(tracer, args, kwargs, result):
    _trace, log = result
    tracer.count("asynchronous.writes", len(log.writes))


def _check_outcome(tracer, args, kwargs, report):
    tracer.count("lemmas.checks_run")
    if not report.passed:
        tracer.count("lemmas.checks_failed")
