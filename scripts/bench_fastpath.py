#!/usr/bin/env python
"""Engine perf suite and regression gate: BENCH_fastpath.json.

Times the same workload under the reference, fast and batch simulation
engines, verifies the results are bit-exact (full ``SimResult`` equality
per cell), and — only under ``--update`` — merges a record into
``BENCH_fastpath.json`` so the perf trajectory is tracked in-repo.

Timing methodology: per-cell setup (``design_config``/``make_policy``
and mix building) happens *outside* the measured region — earlier
revisions timed it and understated the engine speedups; each engine's
wall time covers simulation (construction + run) only.  Every engine is
timed ``--repeat`` times (default 3) and the record stores the min,
median and spread; speedups are computed from the mins (on a noisy
machine the minimum is the least-interference estimate, and ratios of
mins transfer across machines far better than absolute seconds).

Modes:

* default (``fig5`` record) — the ``bench_fig5_overall.py`` workload:
  all 12 mixes x the Fig. 5 design set at scale 0.4.  Minutes of
  runtime; run it with ``--update`` when an engine changes.
* ``--smoke`` (``smoke`` and ``smoke_kv`` records) — two Table II mixes
  x Hydrogen, and the ``kvcache`` mix x the three ``kv-*`` designs
  (whose migration gates the compiled core calls back into Python), at
  tiny scale; seconds of runtime.

The fast engine's timing records which event loop ran its cells
(``engines.fast.core``: ``"c"`` for the compiled core of
:mod:`repro.engine.ccore`, ``"python"`` without a compiler); the core
is built and loaded before any timed region.
* ``--check`` — regression gate: after timing, compare the measured
  speedups against the committed record *at equal workload* (same
  mixes/designs/scale/seed/repeat floor) and fail if any engine's
  speedup regressed by more than ``--check-tolerance`` (default 10%).
  A missing or non-comparable record is reported and passes.

``scripts/check_all.py`` wires ``--smoke --check`` in as the ``bench``
gate: every full check re-validates bit-exactness and regression-gates
the smoke speedups without ever rewriting the committed JSON.  The gate
passes ``--check-tolerance 0.5``: sub-second smoke mins are noisy (the
observed run-to-run swing exceeds 30%), so the smoke gate only catches
an engine collapsing toward reference speed; the strict 10% default is
meant for the minutes-long fig5 workload, whose mins are stable.

Exit status is non-zero iff the engines disagree or ``--check`` found a
regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.config import default_system  # noqa: E402
from repro.engine import ccore  # noqa: E402
from repro.engine.batch import BatchCell, BatchSimulation  # noqa: E402
from repro.engine.fastpath import FastSimulation  # noqa: E402
from repro.engine.simulator import simulate  # noqa: E402
from repro.experiments.designs import (FIG5_DESIGNS,  # noqa: E402
                                       design_config, make_policy)
from repro.traces.mixes import ALL_MIXES, build_mix  # noqa: E402

OUT = REPO / "BENCH_fastpath.json"

#: The KV-cache placement designs of the ``smoke_kv`` record.
KV_DESIGNS = ("kv-windowpin", "kv-layersplit", "kv-tokenlru")

#: Record fields that define "the same workload" for ``--check``.
WORKLOAD_KEYS = ("mixes", "designs", "scale", "seed")


def run_workload(engine, designs, mixes, cfg, repeat):
    """Time the (mixes x designs) grid; returns (timings, results).

    All per-cell setup — design configs and fresh policies (policies are
    stateful, so every repeat gets its own) — is built before the clock
    starts; the measured region contains only simulator construction
    and the run itself.  ``engine="batch"`` runs the whole grid as one
    lock-step :class:`BatchSimulation`; the other engines dispatch one
    simulation per cell.  ``timings`` is ``{"min", "median", "spread"}``
    over the repeats, plus, for the fast engine, ``"core"``: the event
    loop its cells ran on (``"c"``, ``"python"`` or ``"mixed"``).
    """
    cfgs = {d: design_config(d, cfg) for d in designs}
    times, results, cores = [], {}, set()
    for _ in range(repeat):
        cells = [(design, mix, cfgs[design], make_policy(design))
                 for mix in mixes for design in designs]
        if engine == "batch":
            t0 = time.perf_counter()
            sims = [BatchCell(c, pol, mix) for _, mix, c, pol in cells]
            out = BatchSimulation(sims).run()
            times.append(time.perf_counter() - t0)
            for (design, mix, _, _), res in zip(cells, out):
                results[f"{design}/{mix.name}"] = res
        elif engine == "fast":
            t0 = time.perf_counter()
            for design, mix, c, pol in cells:
                sim = FastSimulation(c, pol, mix)
                results[f"{design}/{mix.name}"] = sim.run()
                cores.add(sim.core)
            times.append(time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
            for design, mix, c, pol in cells:
                res = simulate(c, pol, mix, engine=engine)
                results[f"{design}/{mix.name}"] = res
            times.append(time.perf_counter() - t0)
    timings = {"min": round(min(times), 3),
               "median": round(statistics.median(times), 3),
               "spread": round(max(times) - min(times), 3)}
    if cores:
        timings["core"] = cores.pop() if len(cores) == 1 else "mixed"
    return timings, results


def check_regression(record, committed, tolerance):
    """Compare measured speedups against a committed record.

    Returns a list of human-readable failure lines (empty = pass).
    Records are only comparable at equal workload; older single-engine
    records expose their fast speedup as ``"speedup"``.
    """
    if committed is None:
        print("bench_fastpath --check: no committed record; nothing to "
              "compare")
        return []
    if any(record.get(k) != committed.get(k) for k in WORKLOAD_KEYS):
        print("bench_fastpath --check: committed record has a different "
              "workload; nothing to compare")
        return []
    problems = []
    for key in ("speedup_fast", "speedup_batch"):
        old = committed.get(key)
        if old is None and key == "speedup_fast":
            old = committed.get("speedup")
        new = record.get(key)
        if old is None or new is None:
            continue
        if new < old * (1.0 - tolerance):
            problems.append(
                f"{key} regressed: x{new:.2f} measured vs x{old:.2f} "
                f"committed (> {tolerance:.0%} drop)")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench_fastpath",
                                     description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload; the 'smoke' record")
    parser.add_argument("--scale", type=float, default=None,
                        help="trace scale (default: 0.4, smoke 0.05)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repeats (min/median/spread recorded)")
    parser.add_argument("--update", action="store_true",
                        help="write the record into the JSON (never "
                             "written otherwise)")
    parser.add_argument("--check", action="store_true",
                        help="fail on a speedup regression vs the "
                             "committed record at equal workload")
    parser.add_argument("--check-tolerance", type=float, default=0.10,
                        help="allowed fractional speedup drop (default "
                             "0.10)")
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)

    if args.smoke:
        scale = 0.05 if args.scale is None else args.scale
        workloads = [("smoke", ["C1", "C5"], ("hydrogen",)),
                     ("smoke_kv", ["kvcache"], KV_DESIGNS)]
    else:
        scale = 0.4 if args.scale is None else args.scale
        workloads = [("fig5", list(ALL_MIXES), FIG5_DESIGNS)]

    # Build/load the compiled core outside every timed region.
    core_status = ccore.status()
    if core_status["error"]:
        print(f"bench_fastpath: compiled core unavailable: "
              f"{core_status['error']}")
    status = 0
    for record_key, mixes, designs in workloads:
        status |= bench(record_key, mixes, designs, scale, args)
    return status


def bench(record_key, mixes, designs, scale, args):
    """Time, compare and (``--check``/``--update``) record one workload;
    returns the exit status."""
    cfg = default_system()
    built = [build_mix(m, scale=scale, seed=args.seed) for m in mixes]
    timings, by_engine = {}, {}
    for engine in ("reference", "fast", "batch"):
        timings[engine], by_engine[engine] = run_workload(
            engine, designs, built, cfg, args.repeat)
    ref = by_engine["reference"]
    mismatched = sorted(k for k in ref
                        if ref[k] != by_engine["fast"][k]
                        or ref[k] != by_engine["batch"][k])

    ref_min = timings["reference"]["min"]
    record = {
        "mixes": mixes,
        "designs": list(designs),
        "scale": scale,
        "seed": args.seed,
        "repeat": args.repeat,
        "engines": timings,
        "speedup_fast": round(ref_min / timings["fast"]["min"], 3),
        "speedup_batch": round(ref_min / timings["batch"]["min"], 3),
        "equivalent": not mismatched,
    }

    print(f"bench_fastpath[{record_key}]: reference {ref_min:.2f}s, "
          f"fast {timings['fast']['min']:.2f}s "
          f"(x{record['speedup_fast']:.2f}), "
          f"batch {timings['batch']['min']:.2f}s "
          f"(x{record['speedup_batch']:.2f}), "
          f"equivalent={record['equivalent']}, "
          f"fast core={timings['fast']['core']}")

    status = 0
    if mismatched:
        print(f"bench_fastpath: ENGINES DISAGREE on {mismatched}",
              file=sys.stderr)
        status = 1

    if args.check:
        committed = None
        if args.out.exists():
            committed = json.loads(args.out.read_text()).get(record_key)
        for line in check_regression(record, committed,
                                     args.check_tolerance):
            print(f"bench_fastpath --check[{record_key}]: {line}",
                  file=sys.stderr)
            status = 1

    if args.update:
        data = {}
        if args.out.exists():
            data = json.loads(args.out.read_text())
        data[record_key] = record
        args.out.write_text(json.dumps(data, indent=2, sort_keys=True)
                            + "\n")
        print(f"bench_fastpath: wrote '{record_key}' -> {args.out.name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
