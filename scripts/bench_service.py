#!/usr/bin/env python
"""Campaign-service perf suite and smoke gate: BENCH_service.json.

Boots an in-process campaign server (``serve_in_thread``), submits the
same (mixes x designs) campaign ``--repeat`` times through the blocking
:class:`~repro.service.client.ServiceClient`, and measures the
**submit-to-last-row** wall time: everything between ``POST
/v1/campaigns`` leaving the client and the final status line of the
JSONL stream arriving — HTTP framing, schema encode/decode, fair-queue
scheduling, and the engine runs themselves.  The same grid is timed
through plain ``api.sweep`` as often, interleaved with the server runs,
so the record carries the service overhead ratio (min over min), not
just an absolute number.  Both sides run the default engine.

Correctness is asserted on every run, which makes this double as the
``service`` smoke gate of ``scripts/check_all.py``: streamed rows must
be bit-identical to the in-process facade (the schema-v1 JSON round
trip is exact), every row must survive ``to_json``/``from_json``, and
an immediately resubmitted campaign must dedup every cell.

``--recovery`` measures the crash-safety machinery instead (the
``recovery`` record): the same campaign is run once uninterrupted over
a write-ahead journal, then again on an identically configured server
with a graceful drain forced mid-campaign followed by a restart that
replays the journal and a client resume from the last received row —
the record carries ``recovery_overhead`` (interrupted / uninterrupted
wall) and asserts the recovered rows are bit-identical.

Like ``bench_fastpath.py``: per-repeat wall times are reported as
min/median/spread and throughput is computed from the min (least
interference; ratios of mins transfer across machines).  The committed
``BENCH_service.json`` is only rewritten under an explicit
``--update``; ``--check`` regression-gates ``rows_per_s`` against the
committed record at equal workload (``--check-tolerance`` default 10%,
the check_all gate passes 0.5 — sub-second smoke timings are noisy),
and fails a measured ``overhead`` / ``recovery_overhead`` that lies
below 1.0 by more than its recorded ``noise`` (the relative spreads of
both sides, summed): the service cannot beat the work it wraps, so
such a ratio is a benchmark bug.

Exit status is non-zero iff a correctness assertion fails or
``--check`` found a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro import api  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.schema import CampaignSpec, CellRow  # noqa: E402
from repro.service.server import serve_in_thread  # noqa: E402

OUT = REPO / "BENCH_service.json"

#: Record fields that define "the same workload" for ``--check``.
WORKLOAD_KEYS = ("mixes", "designs", "scale", "seed")


def row_key(row):
    return (row.design, row.mix)


def summarize(times):
    """min / median / spread of one timed leg, rounded for the record."""
    return {"min": round(min(times), 3),
            "median": round(statistics.median(times), 3),
            "spread": round(max(times) - min(times), 3)}


def ratio(num, den):
    """``min(num) / min(den)`` plus its noise: both relative spreads."""
    noise = sum((max(t) - min(t)) / min(t) for t in (num, den))
    return round(min(num) / min(den), 3), round(noise, 3)


def run_campaigns(handle, spec, repeat):
    """Submit ``spec`` ``repeat`` times; returns (timings, last rows).

    Each repeat uses a fresh client (one connection per call anyway)
    and a distinct seed-preserving campaign, so the engine's in-memory
    dedup map makes repeats 2..N measure the dedup/replay path — the
    *first* repeat is the cold number, and ``min`` is therefore taken
    over cold submissions only (one per fresh server).
    """
    client = ServiceClient(handle.host, handle.port)
    times, rows = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        rows, final = client.run(spec)
        times.append(time.perf_counter() - t0)
        assert final.ok, f"campaign failed: {final.failures}"
        assert len(rows) == final.total_cells
    return times, rows


def run_uninterrupted(spec, journal):
    """One journaled campaign start to finish; returns (rows, state)."""
    with serve_in_thread(port=0, workers=1, journal=journal) as handle:
        client = ServiceClient(handle.host, handle.port)
        rows, final = client.run(spec)
    assert final.ok, f"campaign failed: {final.failures}"
    return rows, final.state


def run_interrupted(spec, journal):
    """The same campaign cut by a drain after its first row, then
    finished by a restarted server; returns (rows, state)."""
    handle = serve_in_thread(port=0, workers=1, journal=journal)
    client = ServiceClient(handle.host, handle.port)
    status = client.submit(spec)
    stream = client.stream(status.job_id)
    rows = [next(stream)]                     # first row landed...
    threading.Thread(target=handle.drain, daemon=True).start()
    rows.extend(stream)                       # ...drain cuts the rest
    handle.stop()
    assert len(rows) < len(spec.cells()), "drain landed after the last cell"
    with serve_in_thread(port=0, workers=1, journal=journal) as restarted:
        again = ServiceClient(restarted.host, restarted.port)
        again.submit(spec, attach=True)
        rows.extend(again.stream(status.job_id, from_row=len(rows)))
        final = again.last_status
    return rows, final.state


def time_recovery(spec, repeat):
    """Uninterrupted vs drain-restart-resume wall times for ``spec``.

    The interrupted path is submit -> first row -> graceful drain
    (the in-flight cell finishes, the rest stays journaled) -> server
    stop -> fresh server over the same journal (replay) -> client
    re-attach and stream resume from the last received row.  Both
    legs run the same server configuration, and they swap order every
    repeat so neither always runs first.  Returns ``(uninterrupted,
    interrupted, rows, identical)``.
    """
    un, inter, outcomes = [], [], []
    legs = [(run_uninterrupted, un), (run_interrupted, inter)]
    for i in range(repeat):
        for leg, walls in (legs if i % 2 == 0 else legs[::-1]):
            with tempfile.TemporaryDirectory() as td:
                t0 = time.perf_counter()
                rows, state = leg(spec, Path(td) / "journal")
                walls.append(time.perf_counter() - t0)
            outcomes.append((state, sorted(rows, key=row_key)))
    ref_rows = outcomes[0][1]                 # the first uninterrupted run
    identical = all(out == ("done", ref_rows) for out in outcomes)
    return un, inter, ref_rows, identical


def check_and_update(args, record_key, record, status):
    """Shared ``--check`` / ``--update`` tail for every record kind."""
    if args.check:
        committed = None
        if args.out.exists():
            committed = json.loads(args.out.read_text()).get(record_key)
        for name in ("overhead", "recovery_overhead"):
            value = record.get(name)
            if value is not None and value < 1.0 - record["noise"]:
                print(f"bench_service --check[{record_key}]: {name} "
                      f"x{value:.3f} is below 1.0 by more than the "
                      f"noise ({record['noise']:.3f}); the comparison "
                      f"is uneven", file=sys.stderr)
                status = 1
        if committed is None:
            print("bench_service --check: no committed record; nothing "
                  "to compare")
        elif any(record.get(k) != committed.get(k)
                 for k in WORKLOAD_KEYS):
            print("bench_service --check: committed record has a "
                  "different workload; nothing to compare")
        else:
            old = committed.get("rows_per_s")
            new = record["rows_per_s"]
            if old and new < old * (1.0 - args.check_tolerance):
                print(f"bench_service --check[{record_key}]: rows_per_s "
                      f"regressed: {new:.1f} measured vs {old:.1f} "
                      f"committed (> {args.check_tolerance:.0%} drop)",
                      file=sys.stderr)
                status = 1

    if args.update:
        data = {}
        if args.out.exists():
            data = json.loads(args.out.read_text())
        data[record_key] = record
        args.out.write_text(json.dumps(data, indent=2, sort_keys=True)
                            + "\n")
        print(f"bench_service: wrote '{record_key}' -> {args.out.name}")
    return status


def recovery_main(args):
    """The ``--recovery`` record: kill-restart-resume vs uninterrupted."""
    mixes, designs = ["C1", "C5"], ("hydrogen",)
    scale = 0.02 if args.scale is None else args.scale
    spec = CampaignSpec(mixes=tuple(mixes), designs=designs, scale=scale,
                        seed=args.seed)
    un, inter, rows, identical = time_recovery(spec, args.repeat)
    overhead, noise = ratio(inter, un)
    record = {
        "mixes": mixes,
        "designs": list(designs),
        "scale": scale,
        "seed": args.seed,
        "repeat": args.repeat,
        "cells": len(rows),
        "uninterrupted_s": summarize(un),
        "interrupted_s": summarize(inter),
        "recovery_overhead": overhead,
        "noise": noise,
        "rows_per_s": round(len(rows) / min(inter), 2),
        "identical": identical,
    }
    print(f"bench_service[recovery]: {len(rows)} cells, uninterrupted "
          f"{min(un):.2f}s, drain+restart+resume {min(inter):.2f}s "
          f"(overhead x{overhead:.2f}, noise {noise:.2f}), "
          f"identical={identical}")
    status = 0
    if not identical:
        print("bench_service: RECOVERED ROWS != UNINTERRUPTED ROWS",
              file=sys.stderr)
        status = 1
    return check_and_update(args, "recovery", record, status)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench_service",
                                     description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny 4-cell campaign; the 'smoke' record")
    parser.add_argument("--recovery", action="store_true",
                        help="measure drain-restart-resume recovery "
                             "overhead; the 'recovery' record")
    parser.add_argument("--scale", type=float, default=None,
                        help="trace scale (default: 0.2, smoke 0.02)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3,
                        help="cold campaign submissions to time")
    parser.add_argument("--update", action="store_true",
                        help="write the record into the JSON (never "
                             "written otherwise)")
    parser.add_argument("--check", action="store_true",
                        help="fail on a rows_per_s regression vs the "
                             "committed record at equal workload")
    parser.add_argument("--check-tolerance", type=float, default=0.10,
                        help="allowed fractional throughput drop "
                             "(default 0.10)")
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)

    if args.recovery:
        return recovery_main(args)

    if args.smoke:
        record_key, mixes, designs = "smoke", ["C1", "C5"], ("hydrogen",)
        scale = 0.02 if args.scale is None else args.scale
    else:
        record_key = "campaign"
        mixes = ["C1", "C2", "C5", "C9"]
        designs = ("waypart", "hydrogen")
        scale = 0.2 if args.scale is None else args.scale

    spec = CampaignSpec(mixes=tuple(mixes), designs=designs, scale=scale,
                        seed=args.seed)

    # Cold submit-to-last-row: a fresh server per repeat so no repeat
    # rides the previous one's in-memory dedup map.  Each repeat also
    # times the same grid through the in-process facade, so both sides
    # are best-of-N under the same interference.
    times, direct_times, rows, direct = [], [], None, None
    for _ in range(args.repeat):
        with serve_in_thread(port=0, workers=1) as handle:
            t, rows = run_campaigns(handle, spec, repeat=1)
        times.extend(t)
        t0 = time.perf_counter()
        direct = api.sweep(mixes=mixes, designs=designs, scale=scale,
                           seed=args.seed, cache=None)
        direct_times.append(time.perf_counter() - t0)

    # Correctness gate 1: bit-identity with the in-process facade.
    mismatch = sorted(rows, key=row_key) != sorted(direct.rows(),
                                                   key=row_key)

    # Correctness gate 2: every row survives the wire round trip.
    broken = [r for r in rows if CellRow.from_json(r.to_json()) != r]

    # Correctness gate 3: resubmitting dedups every cell.
    with serve_in_thread(port=0, workers=1) as handle:
        client = ServiceClient(handle.host, handle.port)
        client.run(spec)
        _, final = client.run(spec)
    dedup_ok = final.deduped == final.total_cells

    best = min(times)
    overhead, noise = ratio(times, direct_times)
    record = {
        "mixes": mixes,
        "designs": list(designs),
        "scale": scale,
        "seed": args.seed,
        "repeat": args.repeat,
        "cells": len(rows),
        "submit_to_last_row": summarize(times),
        "rows_per_s": round(len(rows) / best, 2),
        "direct_sweep_s": summarize(direct_times),
        "overhead": overhead,
        "noise": noise,
        "identical": not mismatch,
        "wire_round_trip": not broken,
        "dedup_on_resubmit": dedup_ok,
    }

    print(f"bench_service[{record_key}]: {len(rows)} cells in "
          f"{best:.2f}s ({record['rows_per_s']:.1f} rows/s), direct "
          f"sweep {min(direct_times):.2f}s (overhead x{overhead:.2f}, "
          f"noise {noise:.2f}), "
          f"identical={record['identical']}, "
          f"dedup={record['dedup_on_resubmit']}")

    status = 0
    if mismatch:
        print("bench_service: STREAMED ROWS != api.sweep ROWS",
              file=sys.stderr)
        status = 1
    if broken:
        print(f"bench_service: {len(broken)} row(s) failed the JSON "
              f"round trip", file=sys.stderr)
        status = 1
    if not dedup_ok:
        print(f"bench_service: resubmit deduped {final.deduped}/"
              f"{final.total_cells} cells", file=sys.stderr)
        status = 1

    return check_and_update(args, record_key, record, status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
