"""The three workloads: seeded plans and their closed-loop drivers.

Every plan is a pure function of the seed.  A *pass* runs a plan once;
the benchmark repeats whole passes, so each pass must reproduce the
same rows and the same counts.  All load comes from one process with
one sweep worker, and no call names an engine: each workload measures
the defaults users get (``api`` on ``fast``, ``CampaignSpec`` on
``batch``).  Simulated caches start empty in every cell.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import api
from repro.config import default_system
from repro.experiments.designs import FIG5_DESIGNS, KVCACHE_DESIGNS
from repro.experiments.runner import geomean, weighted_speedup
from repro.service import CampaignSpec, ServiceClient
from repro.service.server import serve_in_thread
from repro.traces.llm import LLM_MIXES
from repro.traces.mixes import MIXES


#: Trace length scale of every simulated cell (about 0.1-0.2 s of host
#: time per cell on the fast engine).
SCALE = 0.05
TABLE2 = tuple(MIXES)
KV_MIXES = tuple(LLM_MIXES)

Label = tuple[str, str]          # (design, mix)


@dataclass
class Op:
    """One closed-loop operation as its caller saw it (host seconds)."""

    start: float
    accepted: float = 0.0        # the blocking call returned
    first_row: float = 0.0
    end: float = 0.0
    rows: list[Any] = field(default_factory=list)   # JSON-able
    results: list[tuple[str, str, Any]] = field(default_factory=list)
    new_cells: int = 0
    job_id: str = ""
    fresh: list[Label] = field(default_factory=list)
    repeat: bool = False
    deduped: int = 0
    order: tuple = ()
    error: str | None = None


Unit = Callable[[], tuple[list[Op], float]]


def result_json(res: Any) -> dict[str, Any]:
    """The parts of a :class:`SimResult` a row digest covers."""
    return {"mix": res.mix, "policy": res.policy,
            "cycles_cpu": res.cycles_cpu, "cycles_gpu": res.cycles_gpu,
            "elapsed": res.elapsed,
            "stats": {k: res.stats[k] for k in sorted(res.stats)}}


def _trace_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31 - 1)


class Workload:
    """A seeded plan, the units of closed-loop work one pass runs, and
    the checks and model outputs of a finished pass."""

    name = ""

    def plan(self, seed: int) -> dict[str, Any]:
        raise NotImplementedError

    def units(self, plan: dict[str, Any], work: Path) -> list[Unit]:
        raise NotImplementedError

    def check(self, plan: dict[str, Any], ops: list[Op]) -> list[str]:
        """Outside the timed region: errors, empty when correct."""
        raise NotImplementedError

    def model(self, plan: dict[str, Any], ops: list[Op]) -> dict[str, float]:
        """Simulated-time model outputs, printed for information."""
        raise NotImplementedError

    def simulated(self, plan: dict[str, Any], ops: list[Op]) -> list[Any]:
        """The SimResult of every cell one pass simulated (after check)."""
        return [res for op in ops for _, _, res in op.results]

    def finish(self, plan: dict[str, Any], work: Path) -> None:
        """Remove what the units left in ``work`` once every pass ran."""


def _reference_errors(plan: dict[str, Any], ops: list[Op],
                      sample: int) -> list[str]:
    """Re-simulate a seed-chosen sample of cells on the reference engine
    and require full :class:`SimResult` equality."""
    cells = [cell for op in ops for cell in op.results]
    rng = random.Random(plan["seed"] * 7919 + 1)
    errors = []
    for design, mix, res in rng.sample(cells, min(sample, len(cells))):
        ref = api.simulate(mix=mix, design=design, scale=SCALE,
                           seed=plan["trace_seed"], engine="reference")
        if ref != res:
            errors.append(f"reference replay differs: {design}@{mix}")
    return errors


#: Table II mixes one fig-grid pass covers, each swept as three calls
#: of baseline + two FIG5_DESIGNS: 24 calls of 3 cells (about 14 s of
#: host time), so a 20 s run makes two passes and about 48 calls.
FIG_MIXES = 8
FIG_PAIR = 2


class FigGrid(Workload):
    """Serial, cold ``api.sweep`` calls over a seeded subset of the
    Table II mixes x FIG5_DESIGNS (the Fig. 5 path).  Each call sweeps
    one mix against a seeded pair of the designs (plus the baseline the
    sweep adds), so a pass holds enough calls for an upper percentile."""

    name = "fig-grid"

    def plan(self, seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        calls = []
        for mix in rng.sample(TABLE2, FIG_MIXES):
            designs = list(FIG5_DESIGNS)
            rng.shuffle(designs)
            calls += [(mix, designs[i:i + FIG_PAIR])
                      for i in range(0, len(designs), FIG_PAIR)]
        rng.shuffle(calls)
        return {"seed": seed, "trace_seed": _trace_seed(rng),
                "calls": calls}

    def units(self, plan: dict[str, Any], work: Path) -> list[Unit]:
        return [lambda c=call: self._op(plan, *c) for call in plan["calls"]]

    def _op(self, plan: dict[str, Any], mix: str,
            designs: list[str]) -> tuple[list[Op], float]:
        op = Op(start=time.perf_counter())
        try:
            res = api.sweep(mixes=[mix], designs=tuple(designs), scale=SCALE,
                            seed=plan["trace_seed"], jobs=1, cache=None)
        except Exception as exc:          # counted, the loop goes on
            op.error = f"{mix}: {type(exc).__name__}: {exc}"
            op.end = time.perf_counter()
            return [op], op.end - op.start
        op.accepted = op.first_row = op.end = time.perf_counter()
        rows = res.rows()
        op.rows = [r.to_json() for r in rows]
        op.results = [(d, m, combo.result) for d, by_mix in res.grid.items()
                      for m, combo in by_mix.items()]
        op.new_cells = len(op.results)
        if not res.ok or len(rows) != len(designs) + 1:
            op.error = f"{mix}: incomplete grid ({len(rows)} rows)"
        return [op], op.end - op.start

    def check(self, plan: dict[str, Any], ops: list[Op]) -> list[str]:
        errors = _reference_errors(plan, ops, sample=2)
        for op in ops:
            for row in op.rows:
                if row["design"] == "baseline" \
                        and row["weighted_speedup"] != 1.0:
                    errors.append(f"baseline speedup != 1: {row['mix']}")
        return errors

    def model(self, plan: dict[str, Any], ops: list[Op]) -> dict[str, float]:
        by_design: dict[str, list[float]] = {}
        for op in ops:
            for row in op.rows:
                by_design.setdefault(row["design"], []).append(
                    row["weighted_speedup"])
        return {f"geomean_ws.{d}": geomean(v)
                for d, v in by_design.items() if d != "baseline"}


class KvCells(Workload):
    """Back-to-back single ``api.simulate`` calls over the KV-cache mixes
    x (baseline + KVCACHE_DESIGNS), each building its mix fresh."""

    name = "kv-cells"

    def plan(self, seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        cells = [(mix, design) for mix in KV_MIXES
                 for design in ("baseline", *KVCACHE_DESIGNS)]
        rng.shuffle(cells)
        return {"seed": seed, "trace_seed": _trace_seed(rng),
                "cells": cells}

    def units(self, plan: dict[str, Any], work: Path) -> list[Unit]:
        return [lambda c=cell: self._op(plan, *c) for cell in plan["cells"]]

    def _op(self, plan: dict[str, Any], mix: str,
            design: str) -> tuple[list[Op], float]:
        op = Op(start=time.perf_counter())
        try:
            res = api.simulate(mix=mix, design=design, scale=SCALE,
                               seed=plan["trace_seed"])
        except Exception as exc:          # counted, the loop goes on
            op.error = f"{design}@{mix}: {type(exc).__name__}: {exc}"
            op.end = time.perf_counter()
            return [op], op.end - op.start
        op.accepted = op.first_row = op.end = time.perf_counter()
        op.rows = [result_json(res)]
        op.results = [(design, mix, res)]
        op.new_cells = 1
        return [op], op.end - op.start

    def check(self, plan: dict[str, Any], ops: list[Op]) -> list[str]:
        errors = _reference_errors(plan, ops, sample=3)
        for op in ops:
            for design, mix, res in op.results:
                if not res.stats.get("gpu.accesses"):
                    errors.append(f"no GPU accesses: {design}@{mix}")
        return errors

    def model(self, plan: dict[str, Any], ops: list[Op]) -> dict[str, float]:
        cfg = default_system()
        cells = {(d, m): r for op in ops for d, m, r in op.results}
        out = {}
        for design in KVCACHE_DESIGNS:
            out[f"geomean_ws.{design}"] = geomean([
                weighted_speedup(cells[design, m], cells["baseline", m],
                                 cfg.weight_cpu, cfg.weight_gpu)
                .weighted_speedup for m in KV_MIXES])
        return out


#: Campaigns per client per round.  A fresh campaign sweeps one mix no
#: campaign has used against 3 or 5 FIG5_DESIGNS, 4 or 6 cells with the
#: baseline: the low end of the 4- and 12-cell campaigns
#: BENCH_service.json records, kept small so a 20 s run still holds
#: about two dozen of them.  Every fresh campaign is matched by one
#: repeat of a completed grid, as ``scripts/bench_service.py``
#: resubmits each of its campaigns once.  Each client sends one fresh
#: campaign and one repeat of each size per round, so every seed
#: simulates the same number of cells and delivers the same rows.
DESIGNS_PER_CAMPAIGN = (3, 5)
N_FRESH = len(DESIGNS_PER_CAMPAIGN)
N_REPEAT = N_FRESH
PRIORITY_CLASSES = ("interactive", "batch")


class ServiceMix(Workload):
    """A journaled in-thread ``CampaignServer`` driven by two closed-loop
    ``ServiceClient`` threads, one per priority class, over two rounds
    with a drain and restart on the same journal between them.  Each
    round is one unit of work: a later round starts its server over a
    copy of the journal the previous round left, so its repeats are
    served through journal replay and result-store reads."""

    name = "service-mix"

    def plan(self, seed: int) -> dict[str, Any]:
        """Every fresh campaign opens a mix no campaign has used, so it
        shares no cell with another; every repeat names a grid of its
        size that completed before it was sent (in the first round a
        client's fresh campaigns come first, so both sizes exist).  The
        two clients draw from disjoint halves of the mixes, so what
        dedups never depends on thread timing."""
        rng = random.Random(seed)
        mixes = list(TABLE2 + KV_MIXES)
        rng.shuffle(mixes)
        half = len(mixes) // 2
        pools = dict(zip(PRIORITY_CLASSES, (mixes[:half], mixes[half:])))
        earlier: list[tuple[str, list[str]]] = []   # grids of earlier rounds
        rounds = []
        for _ in range(2):
            this_round = {}
            grids_now = []
            for prio in PRIORITY_CLASSES:
                kinds = ["fresh"] * N_FRESH + ["repeat"] * N_REPEAT
                if earlier:
                    rng.shuffle(kinds)
                sizes = {kind: rng.sample(DESIGNS_PER_CAMPAIGN, N_FRESH)
                         for kind in ("fresh", "repeat")}
                own: list[tuple[str, list[str]]] = []
                seq = []
                for kind in kinds:
                    size = sizes[kind].pop()
                    if kind == "fresh":
                        mix = pools[prio].pop()
                        designs = rng.sample(FIG5_DESIGNS, size)
                        grid = (mix, designs)
                        fresh = [("baseline", mix)] + [(d, mix)
                                                       for d in designs]
                    else:
                        grid = rng.choice([g for g in earlier + own
                                           if len(g[1]) == size])
                        fresh = []
                    seq.append({"mix": grid[0], "designs": grid[1],
                                "repeat": kind == "repeat",
                                "fresh": fresh})
                    own.append(grid)
                this_round[prio] = seq
                grids_now += own
            earlier += grids_now
            rounds.append(this_round)
        return {"seed": seed, "trace_seed": _trace_seed(rng),
                "rounds": rounds}

    def _journal_copy(self, plan: dict[str, Any], work: Path) -> Path:
        """Where a round leaves its journal for the next round."""
        return work / f"service-journal-{plan['seed']}"

    def units(self, plan: dict[str, Any], work: Path) -> list[Unit]:
        return [lambda r=rnd: self._round(plan, r, work)
                for rnd in range(len(plan["rounds"]))]

    def finish(self, plan: dict[str, Any], work: Path) -> None:
        shutil.rmtree(self._journal_copy(plan, work), ignore_errors=True)

    def _spec(self, plan: dict[str, Any], entry: dict[str, Any],
              prio: str) -> CampaignSpec:
        return CampaignSpec(mixes=(entry["mix"],),
                            designs=tuple(entry["designs"]), scale=SCALE,
                            seed=plan["trace_seed"], priority=prio)

    def _campaign(self, client: ServiceClient, spec: CampaignSpec,
                  entry: dict[str, Any], order: tuple) -> Op:
        op = Op(start=time.perf_counter(), repeat=entry["repeat"],
                new_cells=len(entry["fresh"]), order=order,
                fresh=[tuple(label) for label in entry["fresh"]])
        status = client.submit(spec)
        op.accepted = time.perf_counter()
        op.job_id = status.job_id
        rows = []
        for row in client.stream(status.job_id):
            if not rows:
                op.first_row = time.perf_counter()
            rows.append(row)
        op.end = time.perf_counter()
        final = client.last_status
        op.rows = sorted((r.to_json() for r in rows),
                         key=lambda r: (r["design"], r["mix"]))
        op.deduped = final.deduped
        expect = len(spec.cells())
        if not final.ok or len(rows) != expect or final.total_cells != expect:
            op.error = (f"{status.job_id}: {len(rows)}/{expect} rows, "
                        f"failures={list(final.failures)}")
        elif final.deduped != expect - len(entry["fresh"]):
            op.error = (f"{status.job_id}: deduped {final.deduped}, "
                        f"planned {expect - len(entry['fresh'])}")
        return op

    def _client(self, port: int, plan: dict[str, Any], rnd: int, prio: str,
                ops: list[Op], errors: list[str]) -> None:
        client = ServiceClient("127.0.0.1", port)
        for i, entry in enumerate(plan["rounds"][rnd][prio]):
            try:
                ops.append(self._campaign(client,
                                          self._spec(plan, entry, prio),
                                          entry, (rnd, prio, i)))
            except Exception as exc:      # counted, the loop goes on
                errors.append(f"{prio} round {rnd} #{i}: "
                              f"{type(exc).__name__}: {exc}")

    def _serve(self, journal: Path) -> Any:
        handle = serve_in_thread(port=0, workers=1, journal=journal)
        ServiceClient("127.0.0.1", handle.port).wait_ready()
        return handle

    def _round(self, plan: dict[str, Any], rnd: int,
               work: Path) -> tuple[list[Op], float]:
        """One round, timed from its server start (a journal replay after
        the first round) through its clients to the drain and stop."""
        work.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="svc-", dir=work))
        journal = root / "journal"
        keep = self._journal_copy(plan, work)
        if rnd:
            shutil.copytree(keep, journal)
        ops: list[Op] = []
        errors: list[str] = []
        t0 = time.perf_counter()
        handle = self._serve(journal)
        try:
            threads = [threading.Thread(
                target=self._client, name=f"client-{prio}",
                args=(handle.port, plan, rnd, prio, ops, errors))
                for prio in PRIORITY_CLASSES]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=150)
                if t.is_alive():
                    errors.append(f"{t.name} did not finish")
        finally:
            handle.drain()
            if not handle.stop():
                errors.append("server did not stop")
        wall = time.perf_counter() - t0
        if rnd + 1 < len(plan["rounds"]):
            shutil.rmtree(keep, ignore_errors=True)
            shutil.move(str(journal), str(keep))
        shutil.rmtree(root)
        ops.sort(key=lambda o: o.order)
        for msg in errors:
            ops.append(Op(start=0.0, error=msg))
        return ops, wall

    def expected(self, plan: dict[str, Any]) -> dict[Label, Any]:
        """Every planned cell through an in-process ``api.sweep``:
        ``{(design, mix): (row json, SimResult)}``."""
        by_mix: dict[str, list[str]] = {}
        for rnd in plan["rounds"]:
            for seq in rnd.values():
                for entry in seq:
                    designs = by_mix.setdefault(entry["mix"], [])
                    designs += [d for d in entry["designs"]
                                if d not in designs]
        out = {}
        for mix, designs in by_mix.items():
            res = api.sweep(mixes=[mix], designs=tuple(designs), scale=SCALE,
                            seed=plan["trace_seed"], jobs=1, cache=None)
            for row in res.rows():
                out[row.design, row.mix] = (
                    row.to_json(), res.grid[row.design][row.mix].result)
        return out

    def check(self, plan: dict[str, Any], ops: list[Op]) -> list[str]:
        want = self._expected = self.expected(plan)
        errors = []
        for op in ops:
            if op.error is not None:
                continue
            for row in op.rows:
                if want[row["design"], row["mix"]][0] != row:
                    errors.append(f"round {op.order[0]} {op.order[1]}: "
                                  f"row {row['design']}@{row['mix']} "
                                  f"differs from api.sweep")
        return errors

    def simulated(self, plan: dict[str, Any], ops: list[Op]) -> list[Any]:
        return [self._expected[label][1] for op in ops for label in op.fresh]

    def model(self, plan: dict[str, Any], ops: list[Op]) -> dict[str, float]:
        by_design: dict[str, list[float]] = {}
        for (design, _), (row, _) in self._expected.items():
            if design != "baseline":
                by_design.setdefault(design, []).append(
                    row["weighted_speedup"])
        return {f"geomean_ws.{d}": geomean(v)
                for d, v in sorted(by_design.items())}


WORKLOADS: dict[str, Workload] = {w.name: w for w in
                                  (FigGrid(), KvCells(), ServiceMix())}

