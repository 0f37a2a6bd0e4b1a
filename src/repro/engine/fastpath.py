"""Vectorized fast-path simulation engine (bit-exact with the reference).

The reference engine (:mod:`repro.engine.simulator`) walks a scalar
per-event loop: every access re-derives its block/set decomposition, its
way->channel/owner geometry (a SplitMix64 hash chain per query) and pays
a stack of delegating method calls.  This module keeps the *schedule*
of that loop — every observable event fires with the same ``(time, seq)``
heap key, so same-time tiebreaks, float accumulation order and policy
RNG draws are identical — while removing the per-access recomputation:

* **Shared SoA trace decode** — ``addr // block`` and
  ``block % num_sets`` are precomputed for the whole trace in one
  vectorized pass and memoized per (trace, geometry) on the trace
  itself (:meth:`repro.traces.base.Trace.columns`); the sweep engine
  hands consecutive cells of one mix spec the same built mix, so a
  sweep replaying one mix under many designs decodes each trace once,
  not once per cell.
* **Lazy channel releases** — the reference schedules a bus-release
  event for *every* transfer; most find an empty queue and are pure
  no-ops.  The fast channel reserves the release's sequence number
  (keeping the global ``seq`` stream identical) but only materializes
  the event — at its reserved ``(time, seq)`` key, hence at exactly the
  reference's heap position — when a request actually queues behind it.
  Whether the bus is busy is derived by comparing the event loop's
  current ``(now, cur_seq)`` against the pending release's key, which
  reproduces the reference's ``_busy`` flag bit-exactly even for events
  landing on the release timestamp itself.
* **Vectorized, hash-consed geometry** — a policy backed by a
  :class:`~repro.core.partition.DecoupledMap` is upgraded to a
  :class:`~repro.core.partition.VectorDecoupledMap`; per-set geometry
  rows (way->channel, ownership, eligibility) are cached and, for the
  Hydrogen family, *hash-consed* on a ``(rotation, ownership-mask)``
  key so the cache survives reconfigurations: a generation bump only
  rebuilds the key array (one vectorized pass), not the rows.
* **Inlined mechanics** — the hit/miss flow of the controller, the
  LRU/victim scans, the remap-cache probe and the channel bookkeeping
  run as straight-line code over the same state, with argument-carrying
  event callbacks in place of per-request closures.

Serializing work — epoch/faucet/phase ticks, reconfigurations, token
accounting, policy adaptation — still runs through the scalar event
core, exactly as the reference does.

**Compiled event core.**  When every decision hook of the controller
resolves to an inlined mode (the built-in Fig. 5 designs in cache
mode) or, for the migration gate, to one of the allow-listed ``kv-*``
gates the core calls back into Python, and the run is unobserved (no
telemetry sink, no sanitizer), :class:`FastSimulation` runs the
per-access layers above on :mod:`repro.engine.ccore` — a C port built
with ``gcc`` on the first fast simulation and cached per source hash in
``~/.cache/repro/`` — and keeps only the ticks and those gates in
Python; :meth:`FastHybridController.occupancy_by_class` then counts
the core's store.  Any other cell, and every cell on a host without a
C compiler, runs on the Python loop of this module;
:attr:`FastSimulation.core` records which one ran.

**Exactness guarantee:** policy *decisions* are only inlined when the
policy inherits the known base implementation (checked by method
identity); anything overridden is delegated to the policy object with
the reference call pattern, so third-party policies run bit-exact too.
The only contract relied upon is the documented purity of the geometry
hooks (``way_channel``/``way_owner``/``eligible_ways`` are pure in
``(set_id, way, klass, generation)``); policies with geometry that
changes without a generation bump must set ``geometry_static = False``.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from typing import Any, Callable

import numpy as np

from repro.config import MemConfig
from repro.core.hydrogen import HydrogenPolicy
from repro.core.partition import DecoupledMap, VectorDecoupledMap, splitmix64
from repro.engine.agents import TraceAgent
from repro.engine.events import EventQueue
from repro.engine.simulator import SimResult, Simulation
from repro.engine.stats import Stats
from repro.hybrid.controller import HybridMemoryController
from repro.hybrid.policies.base import PartitionPolicy
from repro.hybrid.policies.hashcache import HAShCachePolicy
from repro.hybrid.policies.llm import LayerSplitPolicy
from repro.hybrid.policies.profess import P_LEVELS, ProfessPolicy
from repro.hybrid.policies.waypart import WayPartPolicy
from repro.hybrid.setassoc import FastStore
from repro.mem.device import MemoryDevice
from repro.traces.base import Trace

class FastEventQueue(EventQueue):
    """Event queue that exposes the sequence number of the firing event.

    ``cur_seq`` lets the lazy-release channels decide whether a pending
    (unmaterialized) release event at the current timestamp has
    logically fired yet: the release with key ``(t, s)`` precedes an
    event with key ``(t, s')`` iff ``s < s'``.  Outside any event
    (before the run starts) ``cur_seq`` is a sentinel larger than any
    real sequence number, i.e. "everything scheduled has fired".
    """

    __slots__ = ("cur_seq",)

    def __init__(self) -> None:
        super().__init__()
        self.cur_seq = 1 << 63

    def step(self) -> bool:
        if not self._heap:
            return False
        time, seq, fn, args = heapq.heappop(self._heap)
        self.now = time
        self.cur_seq = seq
        fn(*args)
        return True

    def run(self, until: float | None = None,
            stop: Callable[[], bool] | None = None,
            max_events: int | None = None) -> int:
        n = 0
        heap = self._heap
        pop = heapq.heappop
        if max_events is None and until is not None and stop is not None:
            # The shape Simulation.run uses; tightened accordingly.
            while heap:
                if heap[0][0] > until:
                    self.now = until
                    break
                time, seq, fn, args = pop(heap)
                self.now = time
                self.cur_seq = seq
                fn(*args)
                n += 1
                if stop():
                    break
            return n
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                break
            time, seq, fn, args = pop(heap)
            self.now = time
            self.cur_seq = seq
            fn(*args)
            n += 1
            if stop is not None and stop():
                break
            if max_events is not None and n >= max_events:
                break
        return n


class FastChannel:
    """Slotted re-implementation of :class:`repro.mem.channel.Channel`.

    Identical queueing, timing and counter arithmetic (same operands in
    the same order), argument-carrying completion callbacks in place of
    per-request closures, and *lazy* release events: the release's
    sequence number is always consumed (so the global ordering stream
    matches the reference), but the event itself is only pushed — at
    its reserved ``(time, seq)`` key — when a request queues behind it.
    """

    __slots__ = ("index", "cfg", "timing", "eq", "stats", "prefix", "_rows",
                 "_link", "_qc", "_qg", "_rr", "busy_cycles",
                 "priority_class", "_bytes_read", "_bytes_written",
                 "_accesses", "_activations", "_queue_wait", "_cb_cpu",
                 "_cb_gpu", "_row_bytes", "_bpc", "_t_cas", "_t_rcd_cas",
                 "_t_rp", "_nbanks", "_t_free", "_s_rel", "_rel_pushed",
                 "_rel_cb", "_hp")

    def __init__(self, index: int, cfg: MemConfig, eq: EventQueue,
                 stats: Stats, prefix: str) -> None:
        self.index = index
        self.cfg = cfg
        self.timing = cfg.timing
        self.eq = eq
        self.stats = stats
        self.prefix = prefix
        self._rows: list[int | None] = [None] * cfg.timing.banks
        self._nbanks = cfg.timing.banks
        self._link = cfg.link_latency
        self._qc: deque = deque()
        self._qg: deque = deque()
        self._rr = "cpu"
        self.busy_cycles = 0.0
        self.priority_class: str | None = None
        self._bytes_read = 0
        self._bytes_written = 0
        self._accesses = 0
        self._activations = 0
        self._queue_wait = 0.0
        self._cb_cpu = 0
        self._cb_gpu = 0
        timing = cfg.timing
        self._row_bytes = timing.row_bytes
        self._bpc = timing.bytes_per_cycle
        self._t_cas = timing.t_cas
        # Same operands/order as the reference's t_rcd + t_cas.
        self._t_rcd_cas = timing.t_rcd + timing.t_cas
        self._t_rp = timing.t_rp
        # Lazy release bookkeeping: the bus frees at _t_free via the
        # (reserved, possibly never-pushed) release event with seq _s_rel.
        self._t_free = -1.0
        self._s_rel = -1
        self._rel_pushed = False
        self._rel_cb = self._release
        self._hp = eq._heap

    # -- public API --------------------------------------------------------

    def submit(self, klass: str, nbytes: int, is_write: bool, addr: int,
               on_complete: Any = None, extra: float = 0.0,
               args: tuple = ()) -> None:
        qc = self._qc
        qg = self._qg
        eq = self.eq
        if not (qc or qg):
            now = eq.now
            tf = self._t_free
            if now > tf or (now == tf and eq.cur_seq > self._s_rel):
                # Bus idle (the pending release has logically fired).
                self._start2(klass, nbytes, is_write, addr, on_complete,
                             extra, now, args)
                return
        elif klass == "cpu":
            qc.append((klass, nbytes, is_write, addr, on_complete, extra,
                       eq.now, args))
            return
        else:
            qg.append((klass, nbytes, is_write, addr, on_complete, extra,
                       eq.now, args))
            return
        # Bus busy with empty queues: first waiter — materialize the
        # release event at its reserved heap key.
        (qc if klass == "cpu" else qg).append(
            (klass, nbytes, is_write, addr, on_complete, extra, now, args))
        if not self._rel_pushed:
            heappush(self._hp, (tf, self._s_rel, self._rel_cb, ()))
            self._rel_pushed = True

    @property
    def queue_depth(self) -> int:
        q = len(self._qc) + len(self._qg)
        if q:
            return q + 1
        eq = self.eq
        now = eq.now
        tf = self._t_free
        if now < tf or (now == tf and eq.cur_seq < self._s_rel):
            return 1
        return 0

    def flush_stats(self) -> None:
        st = self.stats
        p = self.prefix
        st.add(f"{p}.bytes_read", self._bytes_read)
        st.add(f"{p}.bytes_written", self._bytes_written)
        st.add(f"{p}.accesses", self._accesses)
        st.add(f"{p}.activations", self._activations)
        st.add(f"{p}.queue_wait", self._queue_wait)
        st.add(f"{p}.cpu.bytes", self._cb_cpu)
        st.add(f"{p}.gpu.bytes", self._cb_gpu)
        self._bytes_read = self._bytes_written = 0
        self._accesses = self._activations = 0
        self._queue_wait = 0.0
        self._cb_cpu = self._cb_gpu = 0

    def reset_banks(self) -> None:
        for i in range(len(self._rows)):
            self._rows[i] = None

    # -- internals ----------------------------------------------------------

    def _start2(self, klass: str, nbytes: int, is_write: bool, addr: int,
                on_complete: Any, extra: float, submit_time: float,
                args: tuple) -> None:
        eq = self.eq
        now = eq.now
        row = addr // self._row_bytes
        rows = self._rows
        bank = row % self._nbanks
        cur = rows[bank]
        if cur == row:
            latency = self._t_cas
        else:
            rows[bank] = row
            self._activations += 1
            latency = self._t_rcd_cas
            if cur is not None:
                latency += self._t_rp
        burst = nbytes / self._bpc
        if is_write:
            self._bytes_written += nbytes
        else:
            self._bytes_read += nbytes
        self._accesses += 1
        self._queue_wait += now - submit_time
        if klass == "cpu":
            self._cb_cpu += nbytes
        else:
            self._cb_gpu += nbytes
        self.busy_cycles += burst
        # Reserve the release's sequence number exactly where the
        # reference consumed it (eq.after(burst, self._release)), but
        # defer pushing the event until someone queues behind the bus.
        s = eq._seq
        self._t_free = now + burst
        self._s_rel = s
        self._rel_pushed = False
        if on_complete is not None:
            # Same float expression shape as the reference's
            # after(latency + burst + extra + self._link).
            heappush(self._hp, (now + (latency + burst + extra + self._link),
                                s + 1, on_complete, args))
            eq._seq = s + 2
        else:
            eq._seq = s + 1

    def _release(self) -> None:
        # Only ever fires with a non-empty queue: releases that would
        # find both queues empty are never materialized (they are pure
        # no-ops in the reference).  The start logic is a hand-inlined
        # copy of :meth:`_start2` (same operands in the same order) to
        # avoid a star-unpacked call on this hot path.
        qc, qg = self._qc, self._qg
        pc = self.priority_class
        if pc is not None:
            hi = qc if pc == "cpu" else qg
            lo = qg if hi is qc else qc
            src = hi if hi else lo
        else:
            first, second = (qc, qg) if self._rr == "cpu" else (qg, qc)
            if first:
                self._rr = "gpu" if first is qc else "cpu"
                src = first
            else:
                self._rr = "gpu" if second is qc else "cpu"
                src = second
        klass, nbytes, is_write, addr, on_complete, extra, submit_time, \
            args = src.popleft()
        eq = self.eq
        now = eq.now
        row = addr // self._row_bytes
        rows = self._rows
        bank = row % self._nbanks
        cur = rows[bank]
        if cur == row:
            latency = self._t_cas
        else:
            rows[bank] = row
            self._activations += 1
            latency = self._t_rcd_cas
            if cur is not None:
                latency += self._t_rp
        burst = nbytes / self._bpc
        if is_write:
            self._bytes_written += nbytes
        else:
            self._bytes_read += nbytes
        self._accesses += 1
        self._queue_wait += now - submit_time
        if klass == "cpu":
            self._cb_cpu += nbytes
        else:
            self._cb_gpu += nbytes
        self.busy_cycles += burst
        s = eq._seq
        tf = now + burst
        self._t_free = tf
        self._s_rel = s
        if on_complete is not None:
            heappush(self._hp, (now + (latency + burst + extra + self._link),
                                s + 1, on_complete, args))
            eq._seq = s + 2
        else:
            eq._seq = s + 1
        if qc or qg:
            heappush(self._hp, (tf, s, self._rel_cb, ()))
        else:
            self._rel_pushed = False


class _FastDevice(MemoryDevice):
    """Memory tier built from :class:`FastChannel` servers."""

    _channel_cls = FastChannel


class _LazyStore(FastStore):
    """A :class:`FastStore` whose per-set tables are built on first use,
    so a cell the compiled core runs never allocates them."""

    def _allocate(self) -> None:
        pass

    def __getattr__(self, name: str) -> Any:
        if name not in ("_ways", "_index"):
            raise AttributeError(name)
        FastStore._allocate(self)
        return getattr(self, name)

    @property
    def allocated(self) -> bool:
        return "_index" in self.__dict__


class FastAgent(TraceAgent):
    """Trace agent replaying shared structure-of-arrays trace columns.

    Block/set decomposition comes from the memoized
    :meth:`~repro.traces.base.Trace.columns` SoA (one vectorized decode
    per trace x geometry, shared by every cell of a sweep).  The
    per-reference issue loop submits straight into the fast controller
    (no per-request ``functools.partial``) and issue timestamps live in
    a flat ring (the outstanding window is at most ``mlp`` wide, so
    ``seq % len`` slots never collide); blocking-model arithmetic is
    identical to :class:`TraceAgent`.  The plain-list columns and the
    ring are bound on the Python loop's first use; a cell the compiled
    core runs reads the NumPy columns (``_cols``) instead.
    """

    __slots__ = ("ctrl", "_cols", "_blocks", "_sets", "_issue_arr", "_ilen")

    def __init__(self, name: str, trace: Trace, mlp: int, eq: EventQueue,
                 ctrl: "FastHybridController", warmup_frac: float = 0.0,
                 instr_scale: float = 1.0) -> None:
        self.ctrl = ctrl
        super().__init__(name, trace, mlp, eq, ctrl.access, warmup_frac,
                         instr_scale=instr_scale)
        self._ilen = max(self._n, mlp)

    def _bind_trace(self, trace: Trace) -> None:
        self._cols = trace.columns(self.ctrl._block, self.ctrl._nsets)

    def __getattr__(self, name: str) -> list:
        # Only reached while the Python loop's lists are unbound.
        if name not in ("_addrs", "_writes", "_gaps", "_blocks", "_sets",
                        "_issue_arr"):
            raise AttributeError(name)
        cols = self._cols
        self._addrs = cols.addr_list
        self._writes = cols.write_list
        self._gaps = cols.gap_list
        self._blocks = cols.block_list
        self._sets = cols.set_list
        self._issue_arr = [0.0] * self._ilen
        return getattr(self, name)

    def _pump(self) -> None:
        eq = self.eq
        access = self.ctrl.fast_access
        gaps = self._gaps
        addrs = self._addrs
        writes = self._writes
        blocks = self._blocks
        sets = self._sets
        klass = self.klass
        scale = self.instr_scale
        n = self._n
        mlp = self.mlp
        arr = self._issue_arr
        ilen = self._ilen
        while self.inflight < mlp:
            i = self.idx % n
            gap = gaps[i]
            t = self.stream_t + gap
            now = eq.now
            if t > now:
                if not self._wake_pending:
                    self._wake_pending = True
                    eq.schedule(t, self._wake)
                return
            self.stream_t = now
            seq = self.idx
            self.idx = seq + 1
            self.inflight += 1
            self.retired += (gap + 1.0) * scale
            arr[seq % ilen] = now
            access(klass, addrs[i], blocks[i], sets[i], writes[i], self, seq)

    def _on_response(self, seq: int) -> None:
        self.inflight -= 1
        rd = self.refs_done + 1
        self.refs_done = rd
        now = self.eq.now
        self.latency_sum += now - self._issue_arr[seq % self._ilen]
        if rd == self.warmup_refs:
            self.warm_time = now
        if self.done_time is None and rd >= self.measure_target:
            self.done_time = now
            if self.on_done is not None:
                self.on_done()
        self._pump()


class FastHybridController(HybridMemoryController):
    """Hybrid memory controller with an inlined, table-driven hot path.

    The inherited scalar :meth:`access` path keeps working (and is used
    by any external callers); agents built by :class:`FastSimulation`
    enter through :meth:`fast_access` with predecoded block/set indices.
    Requires a :class:`FastEventQueue` (the lazy-release channels read
    ``eq.cur_seq``).
    """

    _device_cls = _FastDevice
    _store_cls = _LazyStore

    def __init__(self, cfg, eq, stats, policy, telemetry=None) -> None:
        if not hasattr(eq, "cur_seq"):
            raise TypeError(
                "FastHybridController requires a FastEventQueue (the "
                "lazy-release channel model reads eq.cur_seq)")
        super().__init__(cfg, eq, stats, policy, telemetry=telemetry)
        # Upgrade a plain DecoupledMap to the vectorized table-backed
        # variant (bit-identical geometry; reconfiguration preserves the
        # class via DecoupledMap.spawn).
        m = getattr(policy, "map", None)
        if type(m) is DecoupledMap:
            policy.map = VectorDecoupledMap(m.assoc, m.channels, m.cap, m.bw,
                                            m.cap_units,
                                            num_sets=cfg.num_sets)
        # Specialization flags: a decision hook is inlined only when the
        # policy inherits a known implementation (checked by method
        # identity); otherwise it is delegated with the reference call
        # pattern, preserving bit-exactness for custom policies.
        cls = type(policy)
        base = PartitionPolicy
        # Alternate-set probing: 0 = never, 2 = HAShCache chain inline,
        # 1 = delegate.  (HAShCache with chaining disabled always returns
        # None — ``chaining`` is frozen at attach time.)
        hc_chain = (cls.alternate_set is HAShCachePolicy.alternate_set
                    and cls._chain_set is HAShCachePolicy._chain_set)
        if cls.alternate_set is base.alternate_set:
            self._alt_mode = 0
        elif hc_chain and not policy.chaining:
            self._alt_mode = 0
        elif hc_chain:
            self._alt_mode = 2
        else:
            self._alt_mode = 1
        # Extra probe latency: 0 = none, 2 = HAShCache chained probe,
        # 4 = HAShCache flat tag latency, 1 = delegate.
        if cls.extra_probe_latency is base.extra_probe_latency:
            self._probe_mode = 0
        elif cls.extra_probe_latency is HAShCachePolicy.extra_probe_latency:
            self._probe_mode = 2 if policy.chaining else 4
            self._hc_chain_lat = policy.chain_probe_latency
            self._hc_tag_lat = policy.extra_tag_latency
        else:
            self._probe_mode = 1
        # Migration gate: 0 = always, 2 = ProFess probability ladder,
        # 3 = HAShCache write-around, 4 = Hydrogen token guard inline
        # (GPU misses still consult the faucet), 1 = delegate.
        if cls.allow_migration is base.allow_migration:
            self._mig_mode = 0
        elif (cls.allow_migration is ProfessPolicy.allow_migration
                and cls.p_of is ProfessPolicy.p_of):
            self._mig_mode = 2
            self._prof_random = policy._rng.random
            self._prof_levels = policy.levels
        elif cls.allow_migration is HAShCachePolicy.allow_migration:
            self._mig_mode = 3
        elif cls.allow_migration is HydrogenPolicy.allow_migration:
            self._mig_mode = 4
        else:
            self._mig_mode = 1
        self._chan_changed_call = (
            cls.channel_changed is not base.channel_changed
            and cls.channel_changed is not HydrogenPolicy.channel_changed)
        if cls.on_fast_hit is base.on_fast_hit:
            self._hit_hook = 0      # never fires
        elif cls.on_fast_hit is HydrogenPolicy.on_fast_hit:
            self._hit_hook = 1      # RNG-free early-outs inlined
        else:
            self._hit_hook = 2      # always delegate
        if (cls.pick_insertion is base.pick_insertion
                and cls.pick_victim is base.pick_victim):
            self._pick_mode = 1     # free way, else LRU among eligible
        elif (cls.pick_insertion is base.pick_insertion
                and cls.pick_victim is ProfessPolicy.pick_victim):
            self._pick_mode = 2     # free way, else fewest-hits (MDM)
        elif (cls.pick_insertion is HAShCachePolicy.pick_insertion
                and cls.pick_victim is base.pick_victim):
            # HAShCache: primary slot, else free chained slot, else evict
            # the primary occupant (chaining off degrades to mode 1).
            # Mode 3 reuses the chain set computed by alt-mode 2, so it
            # additionally requires the un-overridden chain hash.
            self._pick_mode = 3 if (policy.chaining and hc_chain) else (
                0 if policy.chaining else 1)
        else:
            self._pick_mode = 0     # delegate to the policy
        self._static_geometry = bool(getattr(policy, "geometry_static", True))
        self._assoc = cfg.hybrid.assoc
        self._remap_bytes = cfg.hybrid.remap_entry_bytes
        self._agent_cb = FastAgent._on_response
        self._cnt_cpu = self._cnt["cpu"]
        self._cnt_gpu = self._cnt["gpu"]
        # Per-set geometry rows (chans, owners, eligible_cpu,
        # eligible_gpu), built lazily, invalidated on generation bumps.
        # Rows are hash-consed whenever the geometry hooks are known to
        # be pure in a cheap per-set key (``_geo_mode``):
        #   1 = Hydrogen map tables: key packs (rotation, CPU-ownership
        #       mask); a reconfiguration only rebuilds the key array
        #       (one vectorized pass), never the rows.
        #   2 = base geometry (baseline/HAShCache/ProFess): the default
        #       hooks are pure in ``set_id % channels`` (LayerSplit's
        #       set-independent owners and eligible ways keep that key).
        #   3 = WayPart: the coupled layout ignores ``set_id`` entirely.
        #   0 = per-set lazy caching (anything else, e.g. SetPartition's
        #       per-set hash), invalidated on generation bumps.
        self._geo: list = [None] * self._nsets
        self._geo_gen = policy.generation
        if (self._static_geometry
                and cls.way_channel is HydrogenPolicy.way_channel
                and cls.way_owner is HydrogenPolicy.way_owner
                and cls.eligible_ways is HydrogenPolicy.eligible_ways
                and isinstance(getattr(policy, "map", None),
                               VectorDecoupledMap)
                and policy.map.num_sets == self._nsets):
            self._geo_mode = 1
        elif (self._static_geometry
                and cls.way_channel is base.way_channel
                and (cls.way_owner, cls.eligible_ways) in (
                    (base.way_owner, base.eligible_ways),
                    (LayerSplitPolicy.way_owner,
                     LayerSplitPolicy.eligible_ways))):
            self._geo_mode = 2
        elif (self._static_geometry
                and cls.way_channel is WayPartPolicy.way_channel
                and cls.way_owner is WayPartPolicy.way_owner
                and cls.eligible_ways is WayPartPolicy.eligible_ways):
            self._geo_mode = 3
        else:
            self._geo_mode = 0
        self._geo_memo: dict[int, tuple] = {}
        self._geo_keys: list[int] | None = None
        if self._geo_mode == 1:
            self._geo_refresh_keys()

    #: Answers :meth:`occupancy_by_class` while the compiled core runs
    #: the cell (the Python ``store`` is stale then); set and cleared by
    #: :meth:`repro.engine.ccore.CoreRun.run`.
    _occ_source: Callable[[], dict[str, int]] | None = None

    def occupancy_by_class(self) -> dict[str, int]:
        if self._occ_source is not None:
            return self._occ_source()
        return super().occupancy_by_class()

    def __getattr__(self, name: str) -> Any:
        # The store tables, bound on the Python loop's first access.
        if name == "_store_ways":
            value = self.store._ways
        elif name == "_store_index":
            value = self.store._index
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    # -- geometry rows -------------------------------------------------------

    def _geo_row(self, set_id: int) -> tuple:
        pol = self.policy
        nf = self._nfast
        assoc = self._assoc
        chans = tuple(pol.way_channel(set_id, w) % nf for w in range(assoc))
        owners = tuple(pol.way_owner(set_id, w) for w in range(assoc))
        return (chans, owners, pol.eligible_ways(set_id, "cpu"),
                pol.eligible_ways(set_id, "gpu"))

    def _geo_refresh_keys(self) -> None:
        """Rebuild the per-set hash-cons keys from the current map tables.

        The key packs (rotation, CPU-ownership mask); every geometry
        hook the vector mode covers is a pure function of that pair
        (given the fixed assoc/channel counts), so rows may be shared
        across sets and across generations.
        """
        m = self.policy.map
        if not isinstance(m, VectorDecoupledMap) or m.num_sets != self._nsets:
            self._geo_mode = 0
            self._geo_keys = None
            return
        self._geo_keys = self._geo_key_array().tolist()

    def _geo_key_array(self) -> np.ndarray:
        """The mode-1 hash-cons key of every set, as an int64 array."""
        m = self.policy.map
        assoc = self._assoc
        weights = np.int64(1) << np.arange(assoc, dtype=np.int64)
        bits = m._cpu_mask.astype(np.int64) @ weights
        return (m._chan[:, 0] << np.int64(assoc)) + bits

    def _geo_fill(self, set_id: int) -> tuple:
        mode = self._geo_mode
        if mode:
            if mode == 1:
                key = self._geo_keys[set_id]
            elif mode == 2:
                key = set_id % self._nfast
            else:
                key = 0
            memo = self._geo_memo
            row = memo.get(key)
            if row is None:
                row = self._geo_row(set_id)
                memo[key] = row
            self._geo[set_id] = row
            return row
        row = self._geo_row(set_id)
        if self._static_geometry:
            self._geo[set_id] = row
        return row

    # -- fast entry point ----------------------------------------------------

    def fast_access(self, klass: str, addr: int, block: int, set_id: int,
                    is_write: bool, agent: TraceAgent, seq: int) -> None:
        """One LLC-miss request with predecoded block/set indices."""
        cnt = self._cnt_cpu if klass == "cpu" else self._cnt_gpu
        cnt["accesses"] += 1
        rc = self.remap
        lru = rc._lru
        if set_id in lru:
            lru.move_to_end(set_id)
            rc.hits += 1
            self._fast_lookup(klass, addr, block, set_id, is_write, agent,
                              seq, self._base_extra)
        else:
            rc.misses += 1
            lru[set_id] = None
            if len(lru) > rc.capacity:
                lru.popitem(last=False)
            cnt["remap_fills"] += 1
            self._fast_ch[set_id % self._nfast].submit(
                klass, self._remap_bytes, False, set_id * 64,
                self._fast_lookup, 0.0,
                (klass, addr, block, set_id, is_write, agent, seq,
                 self._llc_lat))

    def _fast_lookup(self, klass: str, addr: int, block: int, set_id: int,
                     is_write: bool, agent: TraceAgent, seq: int,
                     extra: float) -> None:
        # Entry layout (setassoc): [TAG, DIRTY, KLASS, STAMP, HITS, GEN]
        #                            0     1      2      3     4    5
        policy = self.policy
        index = self._store_index
        way = index[set_id].get(block)
        chained = False
        alt = None
        am = self._alt_mode
        if way is None and am:
            if am == 2:
                # HAShCache chain hash, inlined (pure in ``block``).
                alt = splitmix64(block * 2 + 1) % self._nsets
                if alt == set_id:
                    alt = None
            else:
                alt = policy.alternate_set(set_id, block)
            if alt is not None:
                away = index[alt].get(block)
                if away is not None:
                    set_id, way, chained = alt, away, True
        pm = self._probe_mode
        if pm:
            if pm == 2:
                # Chained probe: the reference adds 0.0 when unchained,
                # which is exact to skip (``extra`` is a finite
                # non-negative latency, never -0.0).
                if chained:
                    extra += self._hc_chain_lat
            elif pm == 4:
                extra += self._hc_tag_lat
            else:
                extra += policy.extra_probe_latency(klass, chained)

        gen = policy.generation
        if self._geo_gen != gen:
            self._geo = [None] * self._nsets
            self._geo_gen = gen
            mode = self._geo_mode
            if mode == 1:
                self._geo_refresh_keys()
            elif mode:
                self._geo_memo.clear()
        geo = self._geo
        row = geo[set_id]
        if row is None:
            row = self._geo_fill(set_id)
        chans = row[0]

        eq = self.eq
        cnt = self._cnt_cpu if klass == "cpu" else self._cnt_gpu

        if way is not None:
            # -- fast-tier hit ---------------------------------------------
            ways_row = self._store_ways[set_id]
            entry = ways_row[way]
            cnt["fast_hits"] += 1
            misplaced = False
            if not self.ideal_reconfig:
                owner = row[1][way]
                if owner != "shared" and owner != entry[2]:
                    misplaced = True
                elif entry[5] != gen:
                    if self._chan_changed_call and policy.channel_changed(
                            set_id, way, entry[5]):
                        misplaced = True
                    else:
                        entry[5] = gen
            else:
                entry[5] = gen

            self._fast_ch[chans[way]].submit(klass, 64, is_write, addr,
                                             self._agent_cb, extra,
                                             (agent, seq))
            if misplaced:
                self._lazy_invalidations += 1
                if is_write:
                    entry[1] = True
                ways_row[way] = None
                del index[set_id][entry[0]]
                if entry[1]:
                    self._cnt[entry[2]]["writebacks"] += 1
                    self._slow_ch[entry[0] % self._nslow].submit(
                        entry[2], self._block, True, entry[0] * self._block)
                return

            entry[3] = eq.now
            entry[4] += 1
            if is_write:
                entry[1] = True
            hook = self._hit_hook
            if hook:
                if hook == 1:
                    # Hydrogen swap hook: inline its RNG-free early-outs
                    # and call through only when a swap decision (and
                    # its possible RNG draw) is actually live.
                    if (klass == "cpu" and policy.swap_mode != "off"
                            and entry[2] == "cpu"):
                        m = policy.map
                        if (m.bw != 0 and chans[way] >= m.bw
                                and entry[4] >= policy.swap_threshold):
                            swap_way = policy.on_fast_hit(set_id, way, entry,
                                                          klass)
                            if swap_way is not None and swap_way != way:
                                self._fast_swap(set_id, way, swap_way, klass)
                else:
                    swap_way = policy.on_fast_hit(set_id, way, entry, klass)
                    if swap_way is not None and swap_way != way:
                        self._fast_swap(set_id, way, swap_way, klass)
            return

        # -- fast-tier miss -------------------------------------------------
        cnt["fast_misses"] += 1
        slow = self._slow_ch[block % self._nslow]
        q = len(slow._qc) + len(slow._qg)
        if q:
            q += 1
        else:
            now = eq.now
            tf = slow._t_free
            q = 1 if (now < tf or (now == tf
                                   and eq.cur_seq < slow._s_rel)) else 0
        if q >= self._mig_qlimit:
            ins = None
            cnt["queue_bypasses"] += 1
        else:
            pick = self._pick_mode
            if pick == 0:
                ins = policy.pick_insertion(set_id, block, klass)
            elif pick == 3:
                # HAShCache chained insertion: primary slot, else a free
                # chained slot, else evict the primary occupant.  ``alt``
                # is the chain set from the probe above (None iff it
                # collides with the primary, matching the reference's
                # ``alt != set_id`` test).
                if self._store_ways[set_id][0] is None:
                    ins = (set_id, 0)
                elif alt is not None and self._store_ways[alt][0] is None:
                    ins = (alt, 0)
                else:
                    ins = (set_id, 0)
            else:
                cands = row[2] if klass == "cpu" else row[3]
                iway = None
                if cands:
                    srow = self._store_ways[set_id]
                    for w in cands:
                        if srow[w] is None:
                            iway = w
                            break
                    else:
                        if pick == 1:       # LRU
                            best_stamp = None
                            for w in cands:
                                e = srow[w]
                                if e is not None and (best_stamp is None
                                                      or e[3] < best_stamp):
                                    iway, best_stamp = w, e[3]
                        else:               # ProFess fewest-hits (MDM)
                            best_key = None
                            for w in cands:
                                e = srow[w]
                                if e is None:
                                    continue
                                key = (e[4], e[3])
                                if best_key is None or key < best_key:
                                    iway, best_key = w, key
                ins = (set_id, iway) if iway is not None else None

        migrate = False
        cost = 0
        flat = self._flat
        if ins is not None:
            iset, iway = ins
            victim = self._store_ways[iset][iway]
            cost = 2 if (flat or (victim is not None and victim[1])) else 1
            mm = self._mig_mode
            if mm == 0:
                migrate = True
            elif mm == 4:
                # Hydrogen: CPU misses always migrate; only GPU misses
                # consult the token faucet (which may draw/consume).
                migrate = (True if klass != "gpu"
                           else policy.allow_migration(klass, block, cost,
                                                       is_write))
            elif mm == 3:
                migrate = not (is_write and klass == "gpu")
            elif mm == 2:
                # ProFess ladder: same single RNG draw as the reference.
                migrate = (self._prof_random()
                           < P_LEVELS[self._prof_levels[klass]])
            else:
                migrate = policy.allow_migration(klass, block, cost,
                                                 is_write)

        slow.submit(klass, 64, is_write and not migrate, addr,
                    self._agent_cb, extra, (agent, seq))

        if not migrate:
            cnt["bypasses"] += 1
            return

        cnt["migrations"] += 1
        cnt["migration_tokens"] += cost
        iset, iway = ins
        irow = self._store_ways[iset]
        victim = irow[iway]
        if victim is not None:
            irow[iway] = None
            del index[iset][victim[0]]
            if flat:
                self._swap_out(iset, iway, victim, klass)
            elif victim[1]:
                self._cnt[victim[2]]["writebacks"] += 1
                self._slow_ch[victim[0] % self._nslow].submit(
                    victim[2], self._block, True, victim[0] * self._block)
            cnt["evictions"] += 1

        blk = self._block
        irow[iway] = [block, is_write, klass, eq.now, 0, gen]
        index[iset][block] = iway
        if blk > 64:
            slow.submit(klass, blk - 64, False, addr)
        if iset == set_id:
            fch = chans[iway]
        else:
            alt_row = geo[iset]
            if alt_row is None:
                alt_row = self._geo_fill(iset)
            fch = alt_row[0][iway]
        self._fast_ch[fch].submit(klass, blk, True, block * blk)
        self._fast_ch[iset % self._nfast].submit(klass, 64, True, iset * 64)


class FastSimulation(Simulation):
    """Drop-in :class:`Simulation` running on the fast-path components.

    Produces bit-exact ``Stats``/:class:`SimResult` values versus the
    reference engine for any policy (see the module docstring for the
    guarantee and its one contract).
    """

    _eq_cls = FastEventQueue
    _controller_cls = FastHybridController

    #: Which event loop ran the cell: ``"c"`` (the compiled core of
    #: :mod:`repro.engine.ccore`) or ``"python"``; None before the run.
    core: str | None = None

    def _drive(self) -> None:
        from repro.engine import ccore
        lib = ccore.load() if ccore.eligible(self) else None
        if lib is None:
            self.core = "python"
            super()._drive()
            return
        self.core = "c"
        ccore.CoreRun(self, lib).run()

    def _make_agent(self, name: str, trace, mlp: int, warmup_frac: float,
                    instr_scale: float) -> TraceAgent:
        return FastAgent(name, trace, mlp, self.eq, self.ctrl,
                         warmup_frac, instr_scale)


def simulate_fast(cfg, policy, mix, **kw) -> SimResult:
    """One-shot fast-engine runner (``simulate(..., engine="fast")``)."""
    return FastSimulation(cfg, policy, mix, **kw).run()
