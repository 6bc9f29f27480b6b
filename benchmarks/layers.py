"""Per-layer metrics computed from a traced set-up and traced rounds of parts.

Each metric names, in BENCHMARK.json's `per_layer` list, a quantity at one
module boundary.  A layer a workload never calls reports 0.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS

LEMMA_TIMES = ("variance_reduction", "deviation_bound", "perturbed_step",
               "weighted_recursion", "async_deviation")


def _percentile_us(durations, q):
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


def _write_outputs_s(tracer):
    """Time from the end of a sweep's last grid search to its return."""
    searches = tracer.spans_named("harness.grid_search")
    total = 0.0
    for _sid, _name, start, end, _parent in tracer.spans_named("harness.run_experiment"):
        inside = [s[3] for s in searches if start <= s[2] and s[3] <= end]
        total += end - (max(inside) if inside else start)
    return total


def layer_metrics(workload, setup_tracer, unit_tracer, unit_outputs, rounds):
    """{name: (value, unit)} for every per-layer metric; per round of parts."""
    s = setup_tracer.stat
    u = unit_tracer.stat
    count = unit_tracer.counters.get

    def per_round(value):
        return value / rounds

    m = {
        "data.parse_s": (s("data.parse_libsvm").total, "s"),
        "data.csr_bytes": (setup_tracer.counters.get("data.csr_bytes", 0), "bytes"),
        "harness.reference_s": (s("harness.reference").total, "s"),
        "objectives.gradient.calls": (s("objectives.gradient").calls, "count"),
    }

    for name in ("minibatch_gradient", "value"):
        stat = u(f"objectives.{name}")
        m[f"objectives.{name}.calls"] = (per_round(stat.calls), "count")
        m[f"objectives.{name}.us_p50"] = (_percentile_us(stat.durations, 50), "us")
        m[f"objectives.{name}.us_p99"] = (_percentile_us(stat.durations, 99), "us")
    m["objectives.value.bytes_computed"] = (
        per_round(count("objectives.value.bytes_computed", 0)), "bytes")
    m["objectives.batched.calls"] = (per_round(u("objectives.batched").calls), "count")
    m["objectives.batched.self_s"] = (per_round(u("objectives.batched").self_time), "s")

    for name in ("sync.run_local_sgd", "sync.ensemble", "asynchronous.run",
                 "averaging.update"):
        m[f"{name}.calls"] = (per_round(u(name).calls), "count")
        m[f"{name}.self_s"] = (per_round(u(name).self_time), "s")
    worker_steps = unit_tracer.pairs.get(
        ("sync.run_local_sgd", "objectives.minibatch_gradient"), 0)
    m["sync.worker_steps"] = (per_round(worker_steps), "count")
    ensemble = u("sync.ensemble")
    m["sync.ensemble.run_steps_per_s"] = (
        count("sync.ensemble.run_steps", 0) / ensemble.total if ensemble.total else 0.0,
        "1/s")
    m["asynchronous.writes"] = (per_round(count("asynchronous.writes", 0)), "count")
    m["asynchronous.measured_delay_s"] = (
        per_round(u("asynchronous.measured_delay").total), "s")

    for check in LEMMA_TIMES:
        m[f"lemmas.{check}_s"] = (per_round(u(f"lemmas.{check}").total), "s")
    m["lemmas.checks_failed"] = (count("lemmas.checks_failed", 0), "count")

    measured = [end - start for _sid, _n, start, end, _p
                in unit_tracer.spans_named("harness.measure_iterations")]
    m["harness.measure_iterations.calls"] = (per_round(len(measured)), "count")
    m["harness.measure_iterations.s_p50"] = (
        float(np.percentile(measured, 50)) if measured else 0.0, "s")
    m["harness.measure_iterations.s_p90"] = (
        float(np.percentile(measured, 90)) if measured else 0.0, "s")
    searches = u("harness.grid_search").calls
    m["harness.runs_per_cell"] = (len(measured) / searches if searches else 0.0, "count")
    useful = sum(workload.useful_worker_steps(output) for output in unit_outputs)
    m["harness.useful_step_share"] = (
        useful / worker_steps if searches and worker_steps else 0.0, "ratio")
    m["harness.write_outputs_s"] = (per_round(_write_outputs_s(unit_tracer)), "s")

    for layer, self_time in unit_tracer.layer_self_times().items():
        m[f"layer.{layer}.self_s"] = (per_round(self_time), "s")
    return m

