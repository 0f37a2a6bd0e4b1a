"""The benchmark's own tests, at smoke size.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro import api  # noqa: E402
from repro.service import CampaignSpec, ServiceClient  # noqa: E402
from repro.service.server import serve_in_thread  # noqa: E402

SMOKE = 0.02


def _targets() -> dict[tuple[str, str], object]:
    out = {}
    for _, module, path, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[module, path] = owner.__dict__[attr]
    return out


def _service_rows(tmp_path: Path) -> list[dict]:
    with serve_in_thread(port=0, workers=1,
                         journal=tmp_path / "journal") as handle:
        client = ServiceClient(handle.host, handle.port)
        rows, final = client.run(CampaignSpec(
            mixes=("C2",), designs=("waypart",), scale=SMOKE))
        assert final.ok
        handle.drain()
    return sorted((r.to_json() for r in rows),
                  key=lambda r: (r["design"], r["mix"]))


def _cells(tmp_path: Path) -> tuple:
    sim = api.simulate(mix="kvcache", design="kv-windowpin", scale=SMOKE)
    grid = api.sweep(mixes=["C1"], designs=("hydrogen",), scale=SMOKE,
                     jobs=1, cache=None)
    return sim, [r.to_json() for r in grid.rows()], _service_rows(tmp_path)


def test_wrappers_change_no_row_and_uninstall_restores(tmp_path):
    before = _targets()
    plain = _cells(tmp_path / "plain")

    tracer = spans.Tracer()
    handle = spans.install(tracer)
    try:
        assert spans.installed_wrappers()
        traced = _cells(tmp_path / "traced")
    finally:
        handle.uninstall()

    assert traced == plain
    assert _targets() == before
    assert all(_targets()[k] is v for k, v in before.items())
    assert spans.installed_wrappers() == []
    names = {s.name for s in tracer.spans}
    assert {"api", "traces.build", "designs.setup", "runner", "sweep",
            "engine.construct", "engine.run", "cache.get", "cache.put",
            "journal.append", "server.submit", "client.submit",
            "client.stream"} <= names
    assert all(t >= -1e-9 for t in tracer.self_times())


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    s_outer, s_inner = tracer.self_times()
    assert s_inner == pytest.approx(tracer.spans[inner].duration)
    assert s_outer == pytest.approx(tracer.spans[outer].duration
                                    - tracer.spans[inner].duration)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_a_pure_function_of_the_seed(name):
    make = type(workloads.WORKLOADS[name])
    random.seed(1)
    first = make().plan(11)
    random.seed(2)
    assert make().plan(11) == first
    json.dumps(first)                  # plans are plain data
    assert make().plan(12) != first


def test_service_plan_keeps_its_promises():
    for seed in range(20):
        plan = workloads.ServiceMix().plan(seed)
        pools: dict[str, set[str]] = {}
        opened = []
        earlier: set[tuple] = set()
        for by_prio in plan["rounds"]:
            done_now = set()
            for prio, seq in by_prio.items():
                assert len(seq) == workloads.N_FRESH + workloads.N_REPEAT
                own = set()
                for entry in seq:
                    assert bool(entry["fresh"]) != entry["repeat"]
                    grid = (entry["mix"], tuple(entry["designs"]))
                    if entry["repeat"]:
                        assert grid in earlier | own
                    own.add(grid)
                done_now |= own
                for repeat in (False, True):
                    sizes = sorted(len(e["designs"]) for e in seq
                                   if e["repeat"] == repeat)
                    assert sizes == sorted(workloads.DESIGNS_PER_CAMPAIGN)
                for entry in seq:
                    if not entry["repeat"]:
                        pools.setdefault(prio, set()).add(entry["mix"])
                        opened.append(entry["mix"])
            earlier |= done_now
        assert not pools["interactive"] & pools["batch"]
        assert len(opened) == len(set(opened))


def test_tail_needs_ten_samples_beyond():
    assert measure.tail([1.0] * 10) is None
    assert measure.tail(list(range(11))) == (0, 100 / 11, 11)
    samples = [float(x) for x in random.Random(3).sample(range(1000), 100)]
    value, pct, n = measure.tail(samples)
    assert (pct, n) == (90.0, 100)
    assert sum(1 for x in samples if x > value) == 10
    value, pct, n = measure.tail(list(range(37)))
    assert sum(1 for x in range(37) if x > value) == 10


def test_benchmark_json_mirrors_the_metric_lists():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


def test_layer_map_names_every_per_layer_metric_once():
    named = [n for row in layers.LAYER_MAP for n in row[2].split()]
    named += list(layers.REMAINDER)
    assert sorted(named) == sorted(n for n, _, _ in layers.PER_LAYER)
    assert set(layers.COUNTS) <= set(named)
