"""Percentiles, the tail rule, and per-layer figures from spans."""

from __future__ import annotations

import statistics
from typing import Any

from spans import STAT_KEYS, Span, Tracer

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def p50(samples: list[float]) -> float:
    """Median, or 0.0 for no samples (reported with ``n=0``)."""
    return statistics.median(samples) if samples else 0.0


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest nearest-rank percentile with >= 10 samples beyond it.

    Returns ``(value, percentile, n)``: the ``k``-th smallest sample
    with ``k = n - 10``, so exactly ten samples rank above it, and
    ``percentile = 100 * k / n``.  ``None`` when ``n < 11``.
    """
    n = len(samples)
    k = n - TAIL_BEYOND
    if k < 1:
        return None
    return sorted(samples)[k - 1], 100.0 * k / n, n


def hit_rate(stats: dict[str, float], klass: str) -> float:
    hits = stats[f"{klass}.fast_hits"]
    total = hits + stats[f"{klass}.fast_misses"]
    return hits / total if total else 0.0


def model_counts(stats: dict[str, float]) -> dict[str, float]:
    """The hybrid/mem/core counts named by the benchmark, from summed
    ``SimResult.stats``; a speed-only change must leave them equal."""
    return {
        "hybrid.hit_rate_cpu": hit_rate(stats, "cpu"),
        "hybrid.hit_rate_gpu": hit_rate(stats, "gpu"),
        "hybrid.migrations": stats["cpu.migrations"]
        + stats["gpu.migrations"],
        "hybrid.bypasses": stats["cpu.bypasses"] + stats["gpu.bypasses"],
        "hybrid.remap_fills": stats["cpu.remap_fills"]
        + stats["gpu.remap_fills"],
        "mem.fast.accesses": stats["fast.accesses"],
        "mem.slow.accesses": stats["slow.accesses"],
        "mem.slow.queue_wait_cycles": stats["slow.queue_wait"],
        "core.migration_tokens": stats["cpu.migration_tokens"]
        + stats["gpu.migration_tokens"],
    }


#: Span names timed on the client side; their self time is waiting on
#: the server, not work, so it is not attributed to a layer.
CLIENT_SPANS = ("client.submit", "client.stream")


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer times and counts of one traced pass of ``wall`` seconds.

    Times are self times summed over the pass.  ``unattributed_s`` is
    the pass wall minus every non-client self time: benchmark glue on
    the single-threaded workloads, and HTTP, asyncio and queue work on
    the service (negative when server threads overlap).
    """
    spans = tracer.spans
    selfs = tracer.self_times()

    def total(name: str) -> float:
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    runs = named("engine.run")
    stats = dict.fromkeys(STAT_KEYS, 0.0)
    for span in runs:
        for key in STAT_KEYS:
            stats[key] += span.attrs["stats"][key]
    accesses = stats["cpu.accesses"] + stats["gpu.accesses"]
    run_s = total("engine.run")
    gets = named("cache.get")
    appends = named("journal.append")
    sweeps = named("sweep")
    attributed = sum(t for s, t in zip(spans, selfs)
                     if s.name not in CLIENT_SPANS)

    def under_sweep(span: Span) -> bool:
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == "sweep":
                return True
        return False

    out = {
        "traces.build_s": total("traces.build"),
        "traces.calls": float(len(named("traces.build"))),
        "traces.refs": float(sum(s.attrs["refs"]
                                 for s in named("traces.build"))),
        "designs.setup_s": total("designs.setup"),
        "designs.calls": float(len(named("designs.setup"))),
        "engine.construct_s": total("engine.construct"),
        "engine.run_s": run_s,
        "engine.run_share": run_s / wall if wall else 0.0,
        "engine.cells": float(sum(s.attrs["cells"] for s in runs)),
        "engine.sim_accesses": accesses,
        "engine.sim_cycles": sum(s.attrs["sim_cycles"] for s in runs),
        "engine.us_per_access": 1e6 * run_s / accesses if accesses else 0.0,
        **model_counts(stats),
        "runner.self_s": total("runner"),
        "api.self_s": total("api"),
        "sweep.self_s": total("sweep"),
        "sweep.submitted": float(sum(s.attrs["submitted"] for s in sweeps)),
        "sweep.unique": float(sum(s.attrs["unique"] for s in sweeps)),
        "sweep.simulated": float(sum(s.attrs["cells"] for s in runs
                                     if under_sweep(s))),
        "cache.get_s": total("cache.get"),
        "cache.put_s": total("cache.put"),
        "cache.gets": float(len(gets)),
        "cache.puts": float(len(named("cache.put"))),
        "cache.hit_ratio": (sum(s.attrs["hit"] for s in gets) / len(gets)
                            if gets else 0.0),
        # Result-store recalls: on service-mix, the cells a restarted
        # server's journal replay reads back instead of re-simulating.
        "server.cache_hits": float(sum(s.attrs["hit"] for s in gets)),
        "journal.append_s": total("journal.append"),
        "journal.append_p50_ms": 1e3 * p50([s.duration for s in appends]),
        "journal.appends": float(len(appends)),
        "journal.replay_s": total("journal.replay"),
        "unattributed_s": wall - attributed,
        # Set by service_layer_metrics on the service workload.
        "queue.wait_p50_s": 0.0,
        "server.submit_p50_ms": 0.0,
        "server.stream_lag_p50_ms": 0.0,
    }
    return out


def service_layer_metrics(tracer: Tracer,
                          fresh: dict[str, list[tuple[str, str]]]
                          ) -> dict[str, Any]:
    """Queue wait and stream lag: client spans timed against engine spans.

    ``fresh`` maps each campaign's job id to the ``(design, mix)`` cells
    it queued for simulation.  A cell's queue wait runs from the end of
    the ``server.submit`` span that accepted the campaign to the start
    of the engine span that simulated the cell; its stream lag from the
    end of that engine span to the row reaching the client.
    """
    spans = tracer.spans
    accepted = {s.attrs["job_id"]: s.end for s in spans
                if s.name == "server.submit" and not s.attrs["replay"]}
    engine_of: dict[tuple[str, str], Span] = {}
    for span in spans:
        if span.name == "engine.run" and span.parent >= 0 \
                and spans[span.parent].name == "sweep":
            for label in spans[span.parent].attrs["labels"]:
                engine_of.setdefault(label, span)
    arrivals = {s.attrs["job_id"]: s.attrs["arrivals"] for s in spans
                if s.name == "client.stream"}
    waits: list[float] = []
    lags: list[float] = []
    for job_id, labels in fresh.items():
        rows = {(row.design, row.mix): t
                for row, t in arrivals.get(job_id, ())}
        for label in labels:
            run = engine_of[label]
            waits.append(run.start - accepted[job_id])
            lags.append(rows[label] - run.end)
    submits = [s.duration for s in spans if s.name == "client.submit"]
    return {"queue.wait_p50_s": p50(waits),
            "server.submit_p50_ms": 1e3 * p50(submits),
            "server.stream_lag_p50_ms": 1e3 * p50(lags)}
