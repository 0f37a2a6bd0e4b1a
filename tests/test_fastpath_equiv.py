"""Golden bit-exact equivalence: fast and batch engines vs reference.

The fast path's contract is *bit-exact replay* — not approximate
agreement — so every comparison here is full ``SimResult`` dataclass
equality (cycles, IPCs, the whole stats dict, energy, per-agent metrics,
policy end state, epoch log).  The grid covers the inlined policy fast
paths (baseline/hashcache/profess/waypart/hydrogen) plus a custom policy
subclass that forces every delegate fallback, and the same contract is
enforced for the lock-step batch engine: mixed cell shapes sharing one
:class:`~repro.engine.batch.BatchSimulation`, warmup-boundary variants,
single-cell batch == fastpath, and the numba-absent kernel fallback.
Every fast-engine case runs twice: on the compiled event core
(:mod:`repro.engine.ccore`) where the cell is eligible, and with the
core forced off, on the Python event loop.
"""

from __future__ import annotations

import importlib
import sys
import types

import pytest

from repro.config import default_system
from repro.engine import ccore
from repro.engine.batch import BatchCell, BatchSimulation
from repro.engine.fastpath import FastSimulation
from repro.engine.simulator import Simulation, simulate
from repro.experiments.designs import design_config, make_policy
from repro.hybrid.policies.hashcache import HAShCachePolicy
from repro.hybrid.policies.llm import WindowPinPolicy
from repro.traces.mixes import build_mix

TINY = dict(cpu_refs=1500, gpu_refs=7000)

#: Designs exercising every inline mode of the fast controller: base
#: hooks, HAShCache chaining + alternate sets, ProFess probabilistic
#: migration, WayPart geometry, and Hydrogen's decoupled map + tokens.
DESIGNS = ("baseline", "hashcache", "profess", "waypart",
           "hydrogen-dp", "hydrogen-dp-token", "hydrogen")


def run_fast(cfg, make, mix, **kw):
    """Fast-engine results of one cell: ``{"c": ..., "python": ...}``.

    The first runs wherever the engine puts the cell (the compiled core
    when the cell is eligible and the core loads), the second with the
    core forced off.
    """
    sim = FastSimulation(cfg, make(), mix, **kw)
    expect = ("c" if ccore.eligible(sim) and ccore.load() is not None
              else "python")
    on = sim.run()
    assert sim.core == expect
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ccore, "_DISABLED", True)
        sim = FastSimulation(cfg, make(), mix, **kw)
        off = sim.run()
    assert sim.core == "python"
    return {"c": on, "python": off}


def run_engines(design, mix_name="C1", seed=7, sim_kw=None, **mix_kw):
    """(reference, fast results by core, batch) of one cell."""
    mix = build_mix(mix_name, seed=seed, **{**TINY, **mix_kw})
    cfg = design_config(design, default_system())
    kw = sim_kw or {}
    ref = Simulation(cfg, make_policy(design), mix, **kw).run()
    fast = run_fast(cfg, lambda: make_policy(design), mix, **kw)
    batch = BatchCell(cfg, make_policy(design), mix, **kw).run()
    return ref, fast, batch


def assert_fast(fast, ref):
    for core, res in fast.items():
        assert res == ref, f"fast engine ({core} core) differs"


@pytest.mark.parametrize("design", DESIGNS)
def test_bit_exact_per_design(design):
    ref, fast, batch = run_engines(design)
    assert_fast(fast, ref)
    assert batch == ref


@pytest.mark.parametrize("mix_name", ["C2", "C5", "C7", "C10"])
def test_bit_exact_across_mixes(mix_name):
    ref, fast, batch = run_engines("hydrogen", mix_name=mix_name)
    assert_fast(fast, ref)
    assert batch == ref


def test_core_eligibility():
    """The Fig. 5 and ``kv-*`` designs take the compiled core; other
    delegate gates (custom subclasses included) and observed runs stay
    on the Python loop."""
    from repro.telemetry import EpochRecorder
    mix = build_mix("C1", seed=7, **TINY)
    for design in DESIGNS + KV_DESIGNS:
        cfg = design_config(design, default_system())
        assert ccore.eligible(FastSimulation(cfg, make_policy(design), mix))
    cfg = design_config("kv-windowpin", default_system())
    assert not ccore.eligible(FastSimulation(cfg, EagerWindowPin(), mix))
    cfg = design_config("hashcache", default_system())
    assert not ccore.eligible(FastSimulation(cfg, ChattyHAShCache(), mix))
    cfg = design_config("hydrogen", default_system())
    assert not ccore.eligible(FastSimulation(
        cfg, make_policy("hydrogen"), mix, telemetry=EpochRecorder()))


def test_bit_exact_long_cell_reconfigures_and_swaps():
    """A cell long enough for the tuner to reconfigure and for fast
    swaps to fire, so the core's tick hand-offs and geometry reloads
    are exercised."""
    mix = build_mix("C3", seed=7, scale=0.2)
    cfg = design_config("hydrogen", default_system())
    ref = Simulation(cfg, make_policy("hydrogen"), mix).run()
    assert ref.stats["reconfig.count"] > 0
    assert ref.stats["swap.count"] > 0
    assert_fast(run_fast(cfg, lambda: make_policy("hydrogen"), mix), ref)


#: The ported KV-cache placement baselines (repro.hybrid.policies.llm):
#: every one overrides the migration gate, which the compiled core calls
#: back into Python and the batch engine delegates; both must still
#: replay bit-exactly.
KV_DESIGNS = ("kv-windowpin", "kv-layersplit", "kv-tokenlru")


@pytest.mark.parametrize("design", KV_DESIGNS + ("hydrogen", "baseline"))
def test_bit_exact_kvcache_mix(design):
    ref, fast, batch = run_engines(design, mix_name="kvcache")
    assert_fast(fast, ref)
    assert batch == ref


def test_bit_exact_pressured_tokenlru():
    """Occupancy pressure flips kv-tokenlru's gate mid-run; on the core
    its epoch hook counts the core's store, not the stale Python one."""
    mix = build_mix("kvcache-prefill", seed=7, scale=0.1)
    cfg = design_config("kv-tokenlru", default_system())
    ref = Simulation(cfg, make_policy("kv-tokenlru"), mix).run()
    assert ref.policy_state["pressured"] is True
    fast = run_fast(cfg, lambda: make_policy("kv-tokenlru"), mix)
    assert_fast(fast, ref)


def test_bit_exact_kvcache_variants():
    for mix_name in ("kvcache-prefill", "kvcache-batch"):
        ref, fast, batch = run_engines("kv-windowpin", mix_name=mix_name)
        assert_fast(fast, ref)
        assert batch == ref


@pytest.mark.parametrize("seed", [3, 11])
def test_bit_exact_across_seeds(seed):
    ref, fast, batch = run_engines("profess", seed=seed)
    assert_fast(fast, ref)
    assert batch == ref


class ChattyHAShCache(HAShCachePolicy):
    """Subclass overriding hooks so every inline mode must fall back to
    its delegate path (the identity checks in FastHybridController)."""

    name = "chatty-hashcache"

    def alternate_set(self, set_id, block):
        return super().alternate_set(set_id, block)

    def extra_probe_latency(self, klass, chained):
        return super().extra_probe_latency(klass, chained)

    def allow_migration(self, klass, block, cost, is_write):
        return super().allow_migration(klass, block, cost, is_write)

    def pick_insertion(self, set_id, block, klass):
        return super().pick_insertion(set_id, block, klass)


class EagerWindowPin(WindowPinPolicy):
    """Overrides the allow-listed gate, so the cell stays on Python."""

    name = "eager-windowpin"

    def allow_migration(self, klass, block, cost, is_write):
        return is_write or super().allow_migration(klass, block, cost,
                                                   is_write)


def test_bit_exact_custom_policy_delegate_paths():
    mix = build_mix("C1", seed=7, **TINY)
    cfg = design_config("hashcache", default_system())
    ref = Simulation(cfg, ChattyHAShCache(), mix).run()
    assert_fast(run_fast(cfg, ChattyHAShCache, mix), ref)
    mix = build_mix("kvcache", seed=7, **TINY)
    cfg = design_config("kv-windowpin", default_system())
    ref = Simulation(cfg, EagerWindowPin(), mix).run()
    assert_fast(run_fast(cfg, EagerWindowPin, mix), ref)


def test_engine_kwarg_selects_fastpath(monkeypatch):
    mix = build_mix("C1", **TINY)
    cfg = design_config("hydrogen", default_system())
    via_kw = simulate(cfg, make_policy("hydrogen"), mix, engine="fast")
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    via_env = simulate(cfg, make_policy("hydrogen"), mix)
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    via_ref = simulate(cfg, make_policy("hydrogen"), mix)
    assert via_kw == via_env == via_ref


# -- batch engine ----------------------------------------------------------

#: Heterogeneous cells for one lock-step batch: different designs,
#: mixes, trace footprints, seeds and warmup boundaries, so no two cells
#: agree on shape or on where their measurement windows open.
MIXED_CELLS = (
    ("hashcache", "C1", 7, dict(cpu_refs=900, gpu_refs=4000), {}),
    ("hydrogen", "C5", 3, dict(cpu_refs=1500, gpu_refs=7000), {}),
    ("profess", "C2", 11, dict(cpu_refs=400, gpu_refs=9000),
     dict(warmup_cpu=0.0, warmup_gpu=0.5)),
    ("waypart", "C7", 5, dict(cpu_refs=2000, gpu_refs=2000),
     dict(warmup_cpu=0.5, warmup_gpu=0.1)),
    ("kv-windowpin", "kvcache", 7, dict(cpu_refs=900, gpu_refs=4000), {}),
)


def test_batch_mixed_cells_one_lockstep_batch():
    cells, expect = [], []
    for design, mix_name, seed, shape, sim_kw in MIXED_CELLS:
        mix = build_mix(mix_name, seed=seed, **shape)
        cfg = design_config(design, default_system())
        expect.append(
            Simulation(cfg, make_policy(design), mix, **sim_kw).run())
        cells.append(BatchCell(cfg, make_policy(design), mix, **sim_kw))
    assert BatchSimulation(cells).run() == expect


@pytest.mark.parametrize("warmups", [
    dict(warmup_cpu=0.0, warmup_gpu=0.0),
    dict(warmup_cpu=0.5, warmup_gpu=0.1),
])
def test_batch_warmup_boundaries(warmups):
    ref, fast, batch = run_engines("hydrogen", sim_kw=warmups)
    assert_fast(fast, ref)
    assert batch == ref


def test_batch_single_cell_equals_fastpath():
    mix = build_mix("C1", seed=7, **TINY)
    cfg = design_config("hydrogen-dp", default_system())
    fast = run_fast(cfg, lambda: make_policy("hydrogen-dp"), mix)
    solo = BatchCell(cfg, make_policy("hydrogen-dp"), mix).run()
    via_engine = simulate(cfg, make_policy("hydrogen-dp"), mix,
                          engine="batch")
    for res in fast.values():
        assert solo == res
        assert via_engine == res


def test_batch_custom_policy_delegate_paths():
    mix = build_mix("C1", seed=7, **TINY)
    cfg = design_config("hashcache", default_system())
    ref = Simulation(cfg, ChattyHAShCache(), mix).run()
    batch = BatchCell(cfg, ChattyHAShCache(), mix).run()
    assert batch == ref


def test_batch_rejects_empty():
    with pytest.raises(ValueError, match="at least one cell"):
        BatchSimulation([])


def _reload_engine_modules():
    """Re-run the import-time kernel selection in _kernels and batch."""
    import repro.engine._kernels as kernels
    import repro.engine.batch as batch
    importlib.reload(kernels)
    importlib.reload(batch)
    return kernels, batch


def _restore_numba(had):
    if had is None:
        sys.modules.pop("numba", None)
    else:
        sys.modules["numba"] = had
    _reload_engine_modules()


def test_numba_absent_selects_pure_fallback():
    had = sys.modules.get("numba")
    # ``None`` in sys.modules makes ``import numba`` raise ImportError
    # even where numba is installed.
    sys.modules["numba"] = None
    try:
        kernels, batch = _reload_engine_modules()
        assert kernels.HAVE_NUMBA is False
        assert kernels.bank_service is kernels._bank_service_py
        assert batch._BANK_SERVICE is None
        mix = build_mix("C1", seed=7, **TINY)
        cfg = design_config("hydrogen", default_system())
        ref = Simulation(cfg, make_policy("hydrogen"), mix).run()
        cell = batch.BatchCell(cfg, make_policy("hydrogen"), mix)
        assert cell.run() == ref
    finally:
        _restore_numba(had)


def test_numba_present_selects_compiled_kernel():
    had = sys.modules.get("numba")
    fake = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn
        return deco

    fake.njit = njit
    sys.modules["numba"] = fake
    try:
        kernels, batch = _reload_engine_modules()
        assert kernels.HAVE_NUMBA is True
        assert batch._BANK_SERVICE is kernels.bank_service
        mix = build_mix("C1", seed=7, **TINY)
        cfg = design_config("hydrogen", default_system())
        ref = Simulation(cfg, make_policy("hydrogen"), mix).run()
        cell = batch.BatchCell(cfg, make_policy("hydrogen"), mix)
        # the kernelized channels keep their int64 open-row tables
        assert all(ch._rows_arr is not None
                   for ch in (*cell.ctrl.fast.channels,
                              *cell.ctrl.slow.channels))
        assert cell.run() == ref
    finally:
        _restore_numba(had)
