"""The compiled event core (repro.engine.ccore) against the reference.

A generated differential test draws seeds, Table II and KV-cache mixes,
Fig. 5 and ``kv-*`` designs and cache geometries, and requires full
``SimResult`` equality between the core and the reference engine.  The
robustness tests cover the sweep's SIGALRM job timeout interrupting a
long core run (with and without a Python migration gate), an exception
raised inside a gate, a finished run's buffers being freed without the
cyclic collector, concurrent simulations on threads, and the fallback
to the Python event loop on a host without a C compiler.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.config import default_system
from repro.engine import ccore
from repro.engine.fastpath import FastSimulation
from repro.engine.simulator import Simulation
from repro.experiments.designs import FIG5_DESIGNS, design_config, make_policy
from repro.experiments.resilience import JobTimeout, time_limit
from repro.hybrid.policies.llm import TokenLRUPolicy
from repro.traces.llm import LLM_MIXES
from repro.traces.mixes import ALL_MIXES, build_mix

needs_core = pytest.mark.skipif(ccore.load() is None,
                                reason="compiled core unavailable")

TINY = dict(cpu_refs=600, gpu_refs=3000)


def _cfg(design, geometry):
    if geometry is None:
        return design_config(design, default_system())
    assoc, block = geometry
    # Fig. 11 methodology: every design on the drawn geometry.
    return design_config(design, default_system().with_geometry(
        assoc=assoc, block=block), native_geometry=False)


#: The KV-cache placement designs, whose migration gates the core calls
#: back into Python.
KV_DESIGNS = ("kv-windowpin", "kv-layersplit", "kv-tokenlru")


@needs_core
@settings(max_examples=24, deadline=None, derandomize=True)
@given(seed=st.integers(1, 10_000),
       mix_name=st.sampled_from(ALL_MIXES + tuple(LLM_MIXES)),
       design=st.sampled_from(("baseline",) + FIG5_DESIGNS + KV_DESIGNS),
       geometry=st.one_of(st.none(), st.tuples(
           st.sampled_from((1, 2, 4, 8)), st.sampled_from((128, 256, 512)))))
# One way: kv-layersplit gives the CPU no ways at all.
@example(seed=5, mix_name="kvcache", design="kv-layersplit",
         geometry=(1, 256))
def test_core_matches_reference(seed, mix_name, design, geometry):
    mix = build_mix(mix_name, seed=seed, **TINY)
    cfg = _cfg(design, geometry)
    ref = Simulation(cfg, make_policy(design), mix).run()
    sim = FastSimulation(cfg, make_policy(design), mix)
    assert sim.run() == ref
    assert sim.core == "c"


@needs_core
def test_job_timeout_interrupts_core_run():
    # About 0.4 s of core time uninterrupted; the alarm must cut it short
    # at the next return to Python (a tick or the event budget).
    mix = build_mix("C1", seed=7, scale=2.0)
    cfg = design_config("hydrogen", default_system())
    sim = FastSimulation(cfg, make_policy("hydrogen"), mix)
    # An alarm landing in a gc callback (hypothesis registers one) would
    # be swallowed as unraisable, so keep the collector out of the way.
    gc.disable()
    try:
        t0 = time.perf_counter()
        with pytest.raises(JobTimeout):
            with time_limit(0.02, "long cell"):
                sim.run()
        assert time.perf_counter() - t0 < 0.15
    finally:
        gc.enable()
    assert sim.core == "c"


@needs_core
def test_job_timeout_interrupts_gated_core_run():
    """The alarm lands while the core calls kv-windowpin's gate back in
    Python; it must surface as JobTimeout, not be dropped by ctypes.
    Where it lands varies, so the cell is cut short several times."""
    mix = build_mix("kvcache", seed=7, scale=1.0)
    cfg = design_config("kv-windowpin", default_system())
    for _ in range(5):
        sim = FastSimulation(cfg, make_policy("kv-windowpin"), mix)
        gc.disable()
        try:
            t0 = time.perf_counter()
            with pytest.raises(JobTimeout):
                with time_limit(0.02, "long cell"):
                    sim.run()
            assert time.perf_counter() - t0 < 0.15
        finally:
            gc.enable()
        assert sim.core == "c"


class GateError(Exception):
    pass


class FailingTokenLRU(TokenLRUPolicy):
    """Keeps the allow-listed gate; its helper raises on the 50th call."""

    calls = 0

    def token_of(self, block):
        self.calls += 1
        if self.calls == 50:
            raise GateError("token_of failed")
        return super().token_of(block)


@needs_core
def test_gate_exception_propagates(monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    mix = build_mix("kvcache", seed=7, **TINY)
    sim = FastSimulation(design_config("kv-tokenlru", default_system()),
                         FailingTokenLRU(), mix)
    with pytest.raises(GateError, match="token_of failed"):
        sim.run()
    assert sim.core == "c"
    assert unraisable == []
    assert sim.ctrl._occ_source is None


@needs_core
@pytest.mark.parametrize("design", KV_DESIGNS + ("hydrogen",))
def test_finished_core_run_is_freed_without_gc(monkeypatch, design):
    """The run's buffers must not wait for the cyclic collector: nothing
    of the controller may keep the CoreRun (or its gate) alive."""
    runs = []
    run = ccore.CoreRun.run

    def tracked(self):
        runs.append(weakref.ref(self))
        return run(self)
    monkeypatch.setattr(ccore.CoreRun, "run", tracked)
    mix = build_mix("kvcache", seed=7, **TINY)
    sim = FastSimulation(design_config(design, default_system()),
                         make_policy(design), mix)
    gc.disable()
    try:
        sim.run()
        assert sim.core == "c"
        assert len(runs) == 1 and runs[0]() is None
    finally:
        gc.enable()
    assert sim.ctrl._occ_source is None


@needs_core
def test_concurrent_simulations_match_serial():
    """More threads than cores, each simulation on its own buffers; the
    ``kv-*`` cells take the interpreter lock back for every gate call,
    and a short switch interval makes those hand-offs frequent."""
    mix = build_mix("C5", seed=3, scale=0.2)
    designs = ("hydrogen", "profess", "hashcache", "waypart",
               "kv-windowpin", "kv-tokenlru")
    cfgs = {d: design_config(d, default_system()) for d in designs}
    serial = {d: FastSimulation(cfgs[d], make_policy(d), mix).run()
              for d in designs}
    out = {}

    def run(design):
        out[design] = FastSimulation(cfgs[design], make_policy(design),
                                     mix).run()

    threads = [threading.Thread(target=run, args=(d,)) for d in designs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert out == serial


def test_no_compiler_falls_back_to_python(monkeypatch, tmp_path):
    kw = dict(mixes=["C2"], designs=("hydrogen", "hashcache"), scale=0.02,
              seed=5, jobs=1, cache=None)
    with_core = [r.to_json() for r in api.sweep(**kw).rows()]
    monkeypatch.setattr(ccore, "_compiler", lambda: None)
    monkeypatch.setattr(ccore, "_cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(ccore, "_LOADER", ccore._Loader())
    assert ccore.status() == {"loaded": False, "path": None,
                              "error": "no C compiler found"}
    without = [r.to_json() for r in api.sweep(**kw).rows()]
    assert without == with_core
    mix = build_mix("C2", seed=5, **TINY)
    sim = FastSimulation(design_config("hydrogen", default_system()),
                         make_policy("hydrogen"), mix)
    sim.run()
    assert sim.core == "python"
