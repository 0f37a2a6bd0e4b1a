"""Layer-attributed benchmark of the Hydrogen reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig-grid --seed 1 --seconds 10 \\
        --trace 0

Workloads (``perfbench/workloads.py``): ``fig-grid`` (cold
``api.sweep`` figure grids), ``kv-cells`` (single ``api.simulate``
calls on the KV-cache family) and ``service-mix`` (two closed-loop
clients of a journaled campaign server, restarted between two rounds).
A run repeats whole passes of the seeded plan until ``--seconds`` of
timed work have elapsed, then checks every output outside the timed
region.

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` runs every unit of work twice, untraced and traced (span
wrappers from ``perfbench/spans.py`` around the public entry points,
alternating which goes first), and prints the per-layer metrics of the
traced passes, the unattributed remainder, and the tracing overhead
(traced wall / untraced wall over the same units).  ``layers.py``
maps each layer metric to the end-to-end metric it should move.

The baseline was recorded on ``--seed 1``; a later speed claim must
also hold on a second seed (``--seed 2``) not used while writing it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files
(journals, per-seed row digests) live under ``.perfbench/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Fresh-process set-ups per run; ``setup_s`` is their median.  They
#: run in three groups, before, halfway through and after the timed
#: passes, so the median spans the run rather than a few seconds of
#: it.  The benchmark's own modules import lazily so that a set-up
#: probe times every import the program needs.
SETUP_SAMPLES = 21
SETUP_GROUPS = 3
#: Fewest untraced/traced pairs behind the overhead ratio.
MIN_PAIRS = 10
#: An overhead ratio below 1.0 fails the run once it is this many
#: standard errors of the paired ratios below 1.0.
OVERHEAD_SIGMAS = 3.0
#: ``(name, unit)`` of the end-to-end metrics BENCHMARK.json lists.  A
#: *call* is one closed-loop operation that simulated at least one new
#: cell, timed from the call to its last row: ``api.sweep`` on fig-grid,
#: ``api.simulate`` on kv-cells, a fresh campaign (submit to last
#: streamed row) on service-mix.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("cells_per_s", "1/s"), ("sim_accesses_per_s", "1/s"),
              ("rows_per_s", "1/s"), ("call_p50_ms", "ms"),
              ("call_tail_ms", "ms"), ("first_row_p50_s", "s"))
#: Printed beside them, not gated: the service's campaign latency in
#: seconds (the same samples as ``call_*``), its submit round trip and
#: dedup-served repeats, whose sub-millisecond waits on the interpreter
#: lock vary too much between runs to bound.
PRINTED = (("campaign_p50_s", "s"), ("campaign_tail_s", "s"),
           ("submit_p50_ms", "ms"), ("submit_tail_ms", "ms"),
           ("repeat_p50_ms", "ms"))


def _die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- set-up ----------------------------------------------------------------

def setup_probe(workload: str) -> None:
    """One fresh-process set-up: imports, plus server start and journal
    open for the service; prints its wall time as JSON."""
    t0 = time.perf_counter()
    for module in ("repro.api", "repro.experiments.designs"):
        importlib.import_module(module)
    if workload != "service-mix":
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return
    from repro.service import ServiceClient
    from repro.service.server import serve_in_thread
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    handle = serve_in_thread(port=0, workers=1, journal=root / "journal")
    try:
        ServiceClient("127.0.0.1", handle.port).wait_ready()
        dt = time.perf_counter() - t0
    finally:
        handle.stop()
        shutil.rmtree(root)
    print(json.dumps({"setup_s": dt}))


def measure_setup(workload: str) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES // SETUP_GROUPS):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             workload], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


# -- passes ----------------------------------------------------------------

class Pass:
    """The ops of one run of the plan and their timed wall."""

    def __init__(self) -> None:
        self.ops: list = []
        self.wall = 0.0

    def add(self, ops: list, wall: float) -> None:
        self.ops += ops
        self.wall += wall


def untraced_passes(units: list, seconds: float,
                    workload: str) -> tuple[list[Pass], list[float]]:
    """Whole passes until ``seconds`` of timed work, and the set-up
    samples taken between them (outside the timed walls)."""
    passes: list[Pass] = []
    setup = measure_setup(workload)
    while not passes or sum(p.wall for p in passes) < seconds:
        one = Pass()
        for unit in units:
            one.add(*unit())
        passes.append(one)
        if len(setup) < 2 * SETUP_SAMPLES // SETUP_GROUPS \
                and sum(p.wall for p in passes) >= seconds / 2:
            setup += measure_setup(workload)
    return passes, setup + measure_setup(workload)


def paired_passes(units: list, seconds: float) -> tuple[
        list[Pass], list[tuple[Pass, Any]], list[tuple[float, float]]]:
    """Each unit untraced and traced back to back, alternating order."""
    import spans
    untraced: list[Pass] = []
    traced: list[tuple[Pass, Any]] = []
    pairs: list[tuple[float, float]] = []
    flip = False
    while (not untraced or sum(p.wall for p in untraced) < seconds
           or len(pairs) < MIN_PAIRS):
        plain, seen, tracer = Pass(), Pass(), spans.Tracer()
        for unit in units:
            walls = {}
            for traced_now in ((True, False) if flip else (False, True)):
                if traced_now:
                    handle = spans.install(tracer)
                    try:
                        ops, wall = unit()
                    finally:
                        handle.uninstall()
                    seen.add(ops, wall)
                else:
                    ops, wall = unit()
                    plain.add(ops, wall)
                walls[traced_now] = wall
            pairs.append((walls[False], walls[True]))
            flip = not flip
        untraced.append(plain)
        traced.append((seen, tracer))
    return untraced, traced, pairs


def overhead(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Traced / untraced wall over all pairs, and the standard error of
    the mean per-pair log ratio (as a share)."""
    ratio = sum(t for _, t in pairs) / sum(u for u, _ in pairs)
    logs = [math.log(t / u) for u, t in pairs]
    se = statistics.stdev(logs) / math.sqrt(len(logs))
    return ratio, se


# -- results ---------------------------------------------------------------

def digest(ops: list) -> str:
    blob = json.dumps([op.rows for op in ops], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def pass_counts(workload: Any, plan: dict, ops: list) -> dict[str, float]:
    """Deterministic counts of one pass; equal in every pass of a seed."""
    import measure
    import spans
    results = workload.simulated(plan, ops)
    stats = spans.sum_stats(results)
    return {"cells": float(len(results)),
            "sim_accesses": stats["cpu.accesses"] + stats["gpu.accesses"],
            "rows": float(sum(len(op.rows) for op in ops)),
            "dedup_hits": float(sum(op.deduped for op in ops)),
            "cells_submitted": float(sum(len(op.rows) for op in ops
                                         if op.job_id)),
            **measure.model_counts(stats)}


def check_seed_record(name: str, plan: dict, record: dict) -> list[str]:
    """Runs of one seed must agree: compare with (or write) the record
    an earlier run of the same plan left in the work directory."""
    key = hashlib.sha256(json.dumps(plan, sort_keys=True).encode())
    path = WORK / "digests" / (f"{name}-{plan['seed']}-"
                               f"{key.hexdigest()[:12]}.json")
    if path.is_file():
        old = json.loads(path.read_text())
        if old != record:
            return [f"seed {plan['seed']}: rows or counts differ from an "
                    f"earlier run of this seed ({path.name})"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return []


def end_to_end(passes: list[Pass], counts: dict[str, float],
               setup: list[float], rss_mb: float) -> dict[str, Any]:
    import measure
    ops = [op for p in passes for op in p.ops if op.error is None]
    fresh = [op for op in ops if op.new_cells]
    calls = [1e3 * (op.end - op.start) for op in fresh]
    submits = [1e3 * (op.accepted - op.start) for op in ops if op.job_id]
    repeats = [1e3 * (op.end - op.start) for op in ops if op.repeat]

    def rate(count: float) -> float:
        return statistics.median(count / p.wall for p in passes)

    call_tail = _tail(calls)
    return {
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)}: "
                    + " ".join(f"{s:.3f}" for s in setup)),
        "peak_rss_mb": (rss_mb, "ru_maxrss after the timed passes"),
        "cells_per_s": (rate(counts["cells"]),
                        f"median of {len(passes)} pass(es)"),
        "sim_accesses_per_s": (rate(counts["sim_accesses"]), ""),
        "rows_per_s": (rate(counts["rows"]), ""),
        "call_p50_ms": (measure.p50(calls), f"n={len(calls)}"),
        "call_tail_ms": call_tail,
        "first_row_p50_s": (measure.p50([op.first_row - op.start
                                         for op in fresh]), ""),
        "campaign_p50_s": (measure.p50(calls) / 1e3, "= call_p50_ms"),
        "campaign_tail_s": (call_tail[0] / 1e3, "= call_tail_ms"),
        "submit_p50_ms": (measure.p50(submits), f"n={len(submits)}"),
        "submit_tail_ms": _tail(submits),
        "repeat_p50_ms": (measure.p50(repeats), f"n={len(repeats)}"),
    }


def _tail(samples: list[float]) -> tuple[float, str]:
    import measure
    t = measure.tail(samples)
    if t is None:
        return max(samples, default=0.0), \
            f"max: {len(samples)} samples, fewer than 11"
    value, pct, n = t
    return value, f"p{pct:.1f} n={n}"


# -- main ------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _die(f"no repro package under {SRC}; run from a checkout "
                    f"of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0

    t0 = time.perf_counter()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _die(f"--workload must be one of "
                    f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    plan = workload.plan(args.seed)
    WORK.mkdir(exist_ok=True)
    units = workload.units(plan, WORK)
    print(f"# {workload.name} seed={args.seed} "
          f"in-process set-up {time.perf_counter() - t0:.3f} s")

    if args.trace:
        passes, traced, pairs = paired_passes(units, args.seconds)
    else:
        passes, setup = untraced_passes(units, args.seconds, workload.name)
        traced, pairs = [], []
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish(plan, WORK)

    # Correctness, outside the timed region.
    every = [p.ops for p in passes] + [p.ops for p, _ in traced]
    errors = [op.error for ops in every for op in ops if op.error]
    attempted = sum(len(ops) for ops in every)
    first = [op for op in passes[0].ops if op.error is None]
    errors += workload.check(plan, first)
    digests = {digest(ops) for ops in every}
    if len(digests) != 1:
        errors.append(f"passes of one seed gave {len(digests)} row digests")
    counts = [pass_counts(workload, plan, ops) for ops in every]
    if any(c != counts[0] for c in counts):
        errors.append("deterministic counts differ between passes")
    errors += check_seed_record(workload.name, plan,
                                {"digest": min(digests),
                                 "counts": counts[0]})
    correct = not errors

    print(f"# correctness: {'ok' if correct else 'FAILED'} "
          f"({attempted} ops, {len(passes)} untraced pass(es), digest "
          f"{min(digests)[:16]})")
    for msg in errors:
        print(f"#   {msg}")
    print("# deterministic counts per pass: "
          + json.dumps(counts[0], sort_keys=True))
    print("# simulated time (model output, unvalidated: no hardware "
          "reference in the repo, so no error figure):")
    for key, value in workload.model(plan, first).items():
        print(f"#   {key} = {value:.4f}")

    if args.trace:
        metrics = traced_metrics(workload, plan, traced, pairs, counts[0],
                                 errors)
    else:
        print("# pass walls (s): "
              + " ".join(f"{p.wall:.3f}" for p in passes))
        e2e = end_to_end(passes, counts[0], setup, rss_mb)
        units_of = dict(END_TO_END + PRINTED)
        for name, (value, note) in e2e.items():
            print(f"# {name} = {value:.6g} {units_of[name]}"
                  + (f"  ({note})" if note else ""))
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    correct, failed = not errors, len(errors)
    print(f"# error_rate = {failed / attempted:.4g} "
          f"({failed} failed or incorrect of {attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_metrics(workload: Any, plan: dict, traced: list,
                   pairs: list[tuple[float, float]], counts: dict,
                   errors: list[str]) -> dict[str, Any]:
    import layers
    import measure
    per_pass = []
    for one, tracer in traced:
        m = measure.layer_metrics(tracer, one.wall)
        if workload.name == "service-mix":
            m.update(measure.service_layer_metrics(
                tracer, {op.job_id: op.fresh for op in one.ops
                         if op.job_id and op.fresh}))
        per_pass.append(m)
    for key in layers.COUNTS:
        if len({m[key] for m in per_pass}) != 1:
            errors.append(f"traced passes disagree on {key}")
    if per_pass[0]["engine.cells"] != counts["cells"]:
        errors.append(f"engine spans saw {per_pass[0]['engine.cells']} "
                      f"cells, the pass simulated {counts['cells']}")
    ratio, se = overhead(pairs)
    if ratio < 1.0 and 1.0 - ratio > OVERHEAD_SIGMAS * se:
        errors.append(f"tracing overhead x{ratio:.4f} < 1.0 beyond noise "
                      f"(se {se:.4f}): benchmark bug")
    out = {key: statistics.median(m[key] for m in per_pass)
           for key in per_pass[0]}
    out.update({"server.dedup_hits": counts["dedup_hits"],
                "server.dedup_ratio": (counts["dedup_hits"]
                                       / counts["cells_submitted"]
                                       if counts["cells_submitted"] else 0.0),
                "rows.delivered": counts["rows"],
                "trace.overhead": ratio})
    wall = statistics.median(one.wall for one, _ in traced)
    dump = WORK / f"spans-{workload.name}-{plan['seed']}.jsonl"
    traced[0][1].dump(dump)
    print(f"# spans of the first traced pass: {dump.relative_to(ROOT)}")
    print(f"# traced: {len(traced)} pass(es), median pass wall {wall:.3f} s;"
          f" overhead x{ratio:.4f} (se {se:.4f}, {len(pairs)} pairs)")
    top = max((out[k], k) for k in out if k.endswith("_s")
              and k not in ("queue.wait_p50_s", "unattributed_s"))
    print(f"# dominant self time: {top[1]} = {top[0]:.3f} s; engine.run_s "
          f"is {100 * out['engine.run_share']:.1f}% of the pass wall")
    if top[1] != "engine.run_s":
        print("# NOTE: engine.run_s is not the dominant self time")
    unit_of = {name: unit for name, unit, _ in layers.PER_LAYER}
    for layer, wraps, names, moves in layers.LAYER_MAP:
        print(f"# [{layer}] wraps {wraps}; should move: {moves}")
        for name in names.split():
            print(f"#   {name} = {out[name]:.6g} {unit_of[name]}")
    for name in layers.REMAINDER:
        print(f"# {name} = {out[name]:.6g} {unit_of[name]}")
    return {name: {"value": out[name], "unit": unit}
            for name, unit, _ in layers.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
