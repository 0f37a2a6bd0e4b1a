"""Compiled event core of the fast engine.

:class:`~repro.engine.fastpath.FastSimulation` hands a cell to this core
when every decision hook of its
:class:`~repro.engine.fastpath.FastHybridController` resolves to an
inlined mode (:func:`eligible`): the baseline, HAShCache, ProFess,
WayPart and Hydrogen (DP, DP+Token, Full) designs in cache mode, with
telemetry and the sanitizer off.  The ``kv-windowpin``,
``kv-layersplit`` and ``kv-tokenlru`` designs qualify too: their
``allow_migration`` stays Python and is called back from C (see
*Delegate gates*).  Every other cell — other delegate policies, custom
policies, traced or sanitized runs, flat mode — and every cell on a
host without a C compiler runs on the Python event loop instead.  Both
paths produce bit-identical results.

**What C owns.**  ``ccore.c`` is a line-for-line port of the per-access
layers: the ``(time, seq)`` event heap (same sequence stream, same lazy
channel releases as :class:`~repro.engine.fastpath.FastChannel`), the
agents' issue/response loop, the remap-cache LRU, the set-associative
store and the inlined hit/miss/victim/swap/token/ProFess decisions.
ProFess's ``random.Random`` is mirrored by an MT19937 in C, loaded and
written back with ``getstate()``/``setstate()``.

**What stays in Python.**  Epoch, faucet and phase ticks remain Python
events in the shared heap.  The core returns at each one; counters,
agent fields, faucet state and channel ``busy_cycles`` are written back
to the Python objects before the tick runs and read again after it, and
the geometry table is reloaded from the controller's hash-consed rows
after a generation bump.  The controller's ``store`` and ``remap``
objects are not mirrored: after a compiled run they still hold their
pre-run state (the remap-cache hit/miss counters excepted).

**Delegate gates.**  A migration gate on the allowlist (:data:`_GATES`,
checked by method identity; a subclass overriding ``allow_migration``
is not on it) is called at the same point, with the same arguments, as
the Python loop calls it, through one ``ctypes`` callback
(:func:`_gate_loop`).  The allow-listed gates read only their own
policy's state, never the controller's ``store``.  An exception raised
in a gate — a ``SIGALRM`` job timeout included — ends the core run
after the current event and is re-raised by :meth:`CoreRun.run`.
While a run is active, the controller's ``occupancy_by_class()`` (read
by ``kv-tokenlru``'s epoch hook) counts the core's ``TAG``/``EKLASS``
buffers.  The callback and that hook are dropped when the run ends, so
no reference cycle keeps the run's buffers alive.

**State and threads.**  All state lives in NumPy buffers owned by one
:class:`CoreRun`; the C code keeps no static mutable state.  The library
is called through :class:`ctypes.CDLL`, which releases the GIL for the
call, and the core returns to Python at least every :data:`BUDGET`
events, so signal handlers (the sweep's ``SIGALRM`` job timeout,
Ctrl-C) run promptly.

**Build and load.**  The shared library is compiled once per machine
and source hash with ``gcc -O2 -ffp-contract=off`` (no fast-math: the
results must stay bit-exact) into ``~/.cache/repro/`` (falling back to
a per-user directory under the system temp dir), installed with an
atomic rename, and loaded lazily by the first fast simulation — never
at ``import repro.api``.  :func:`status` reports whether it loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.tokens import TokenFaucet
from repro.hybrid.controller import CLASS_KEYS
from repro.hybrid.policies.llm import (LayerSplitPolicy, TokenLRUPolicy,
                                       WindowPinPolicy)
from repro.hybrid.policies.profess import P_LEVELS

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds,
#: which would change the rounding of the Python expressions mirrored.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-std=c99")

#: Longest run of events between two returns to Python.
BUDGET = 1 << 18

#: Tests set this to force the Python event loop.
_DISABLED = False

_SOURCE = Path(__file__).with_name("ccore.c")

# -- field tables shared with ccore.c (emitted as #defines) ---------------

_INT_FIELDS = (
    "SEQ", "CUR_SEQ", "REMAINING", "HEAP_N", "HEAP_CAP", "HEAP_NEED",
    "POOL_CAP", "POOL_LIVE", "POOL_USED", "POOL_FREE", "POOL_NEED",
    "BUDGET", "PY_ID", "NSETS", "ASSOC", "BLOCK", "NFAST", "NSLOW",
    "REMAP_BYTES", "MIG_QLIMIT", "ALT_MODE", "PROBE_MODE", "MIG_MODE",
    "HIT_HOOK", "PICK_MODE", "SWAP_ON", "SWAP_THRESH", "IDEAL_SWAP",
    "IDEAL_RECONFIG", "GEN", "BW", "HAS_FAUCET", "GRANTED", "DENIED",
    "MT_INDEX", "LRU_HEAD", "LRU_TAIL", "LRU_COUNT", "LRU_CAP", "RC_HITS",
    "RC_MISSES", "LAZY_INV", "SWAPS", "ERR", "CNT")
#: Buffer addresses, stored in the int table after the scalars.
_PTR_FIELDS = (
    "AGENT_I", "AGENT_D", "CHAN_I", "CHAN_D", "ROWS", "RING", "HEAP",
    "POOL", "TAG", "DIRTY", "EKLASS", "STAMP", "HITS", "EGEN", "LRU_PREV",
    "LRU_NEXT", "LRU_IN", "ROW_OF_SET", "GCHAN", "GOWNER", "GELIG",
    "GNELIG", "MT", "GATE")
_DBL_FIELDS = ("NOW", "UNTIL", "BASE_EXTRA", "LLC_LAT", "HC_CHAIN_LAT",
               "HC_TAG_LAT", "TOKENS", "P_CPU", "P_GPU")
_AGENT_INT = ("KLASS", "MLP", "N", "ILEN", "RING_OFF", "IDX", "INFLIGHT",
              "REFS_DONE", "WARMUP_REFS", "MEASURE_TARGET", "DONE",
              "WAKE_PENDING", "ADDR", "BLOCK", "SET", "WRITE", "GAP")
_AGENT_DBL = ("STREAM_T", "RETIRED", "SCALE", "LATENCY_SUM", "WARM_TIME",
              "DONE_TIME")
_CHAN_INT = ("PRIO", "RR", "NBANKS", "ROW_BYTES", "ROWS_OFF", "BYTES_READ",
             "BYTES_WRITTEN", "ACCESSES", "ACTIVATIONS", "CB_CPU", "CB_GPU",
             "S_REL", "REL_PUSHED", "QH0", "QT0", "QN0", "QH1", "QT1", "QN1")
_CHAN_DBL = ("BUSY", "QUEUE_WAIT", "T_FREE", "BPC", "T_CAS", "T_RCD_CAS",
             "T_RP", "LINK")
_RETURN_CODES = ("PY", "STOP", "UNTIL", "EMPTY", "GROW", "BUDGET", "ERR")
_EVENT_KINDS = ("PUMP", "WAKE", "LOOKUP", "RESP", "REL", "PY")
#: Way-ownership codes; classes are coded cpu=0, gpu=1 throughout.
_OWNERS = ("cpu", "gpu", "shared")
#: Delegate migration gates the core calls back into Python.  Each reads
#: only its own policy's state, never the controller's store or remap
#: cache, which the core does not mirror.
_GATES = (WindowPinPolicy.allow_migration, LayerSplitPolicy.allow_migration,
          TokenLRUPolicy.allow_migration)
#: C signature of a gate call (see :func:`_gate_loop`).
_GATE_T = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_int64)


def _index(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


_GI = _index(_INT_FIELDS)
_NCNT = 2 * len(CLASS_KEYS)
_PI = {name: len(_INT_FIELDS) - 1 + _NCNT + i
       for i, name in enumerate(_PTR_FIELDS)}
_NI = len(_INT_FIELDS) - 1 + _NCNT + len(_PTR_FIELDS)
_GD = _index(_DBL_FIELDS)
_AI = _index(_AGENT_INT)
_AD = _index(_AGENT_DBL)
_CI = _index(_CHAN_INT)
_CD = _index(_CHAN_DBL)
_RC = _index(_RETURN_CODES)
_EV = _index(_EVENT_KINDS)
_OWN = _index(_OWNERS)
#: Channel counters a flush resets: int and float columns.
_CHAN_CNT = ("BYTES_READ", "BYTES_WRITTEN", "ACCESSES", "ACTIVATIONS",
             "CB_CPU", "CB_GPU")
_CHAN_CNT_ATTRS = ("_bytes_read", "_bytes_written", "_accesses",
                   "_activations", "_cb_cpu", "_cb_gpu")
_CHAN_CNT_COLS = [_CI[n] for n in _CHAN_CNT]


def _header() -> str:
    """The ``#define`` lines ``ccore.c`` is compiled with."""
    owners = _index(tuple(o.upper() for o in _OWNERS))
    keys = _index(tuple(k.upper() for k in CLASS_KEYS))
    groups = (("G_", _GI), ("P_", _PI), ("G_", _GD), ("A_", _AI),
              ("A_", _AD), ("C_", _CI), ("C_", _CD), ("RC_", _RC),
              ("EV_", _EV), ("OWN_", owners), ("K_", keys))
    lines = [f"#define {prefix}{name} {i}"
             for prefix, table in groups for name, i in table.items()]
    for name, fields in (("NAI", _AGENT_INT), ("NAD", _AGENT_DBL),
                         ("NCI", _CHAN_INT), ("NCD", _CHAN_DBL),
                         ("NK", CLASS_KEYS)):
        lines.append(f"#define {name} {len(fields)}")
    return "\n".join(lines) + "\n"


# -- build and load ---------------------------------------------------------

def _compiler() -> str | None:
    """Path of the C compiler, or None when the host has none."""
    return shutil.which("gcc") or shutil.which("cc")


def _cache_dirs() -> list[Path]:
    """Where the shared library may live, most preferred first."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return [Path.home() / ".cache" / "repro",
            Path(tempfile.gettempdir()) / f"repro-{uid}"]


def _usable_dir(path: Path) -> bool:
    """Create ``path`` (private to this user) and check that we own it."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return (not hasattr(os, "getuid") or st.st_uid == os.getuid()) \
        and os.access(path, os.W_OK)


class _Loader:
    """Builds the library on first use and remembers the outcome."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.tried = False
        self.lib: Any = None
        self.path: Path | None = None
        self.error: str | None = None

    def get(self) -> Any:
        with self.lock:
            if not self.tried:
                self.tried = True
                try:
                    self.lib, self.path = self._load()
                except (OSError, subprocess.SubprocessError) as exc:
                    self.error = f"{type(exc).__name__}: {exc}"
            return self.lib

    def _load(self) -> tuple[Any, Path | None]:
        source = _header() + _SOURCE.read_text()
        key = hashlib.sha256("\0".join(
            (source, " ".join(CFLAGS), sys.platform,
             os.uname().machine if hasattr(os, "uname") else "")
        ).encode()).hexdigest()[:16]
        name = f"ccore-{key}.so"
        dirs = [d for d in _cache_dirs() if _usable_dir(d)]
        for d in dirs:
            if (d / name).is_file():
                return _bind(ctypes.CDLL(str(d / name))), d / name
        cc = _compiler()
        if cc is None:
            self.error = "no C compiler found"
            return None, None
        if not dirs:
            self.error = "no writable cache directory"
            return None, None
        target = dirs[0] / name
        fd, tmp = tempfile.mkstemp(prefix=".ccore-", suffix=".so",
                                   dir=dirs[0])
        os.close(fd)
        src = Path(tmp).with_suffix(".c")
        try:
            src.write_text(source)
            proc = subprocess.run([cc, *CFLAGS, "-o", tmp, str(src)],
                                  capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                self.error = f"compile failed: {proc.stderr.strip()[-2000:]}"
                return None, None
            os.replace(tmp, target)
        finally:
            for leftover in (tmp, str(src)):
                if os.path.exists(leftover):
                    os.unlink(leftover)
        return _bind(ctypes.CDLL(str(target))), target


def _bind(lib: Any) -> Any:
    lib.hc_run.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    lib.hc_run.restype = ctypes.c_int64
    lib.hc_push.argtypes = [ctypes.c_void_p, ctypes.c_double,
                            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                            ctypes.c_int64]
    lib.hc_push.restype = None
    for sizeof in (lib.hc_sizeof_event, lib.hc_sizeof_request):
        sizeof.argtypes = []
        sizeof.restype = ctypes.c_int64
    return lib


_LOADER = _Loader()


def load() -> Any:
    """The loaded library, building it on first use; None when the core
    is disabled or cannot be built on this host."""
    if _DISABLED:
        return None
    return _LOADER.get()


def status() -> dict[str, Any]:
    """Whether the compiled core loads here, from where, or why not."""
    lib = load()
    return {"loaded": lib is not None,
            "path": str(_LOADER.path) if _LOADER.path else None,
            "error": "disabled" if _DISABLED else _LOADER.error}


# -- eligibility -------------------------------------------------------------

def eligible(sim: Any) -> bool:
    """Whether ``sim`` (a fresh FastSimulation) can run on the core.

    Every decision hook must resolve to a mode the C code inlines (or,
    for the migration gate, to an allow-listed gate it calls back), and
    the run must be unobserved (no telemetry, no sanitizer) and start
    from a pristine controller.
    """
    from repro.engine.fastpath import (FastAgent, FastChannel,
                                       FastEventQueue, FastHybridController)
    from repro.engine.simulator import Simulation
    ctrl = sim.ctrl
    policy = sim.policy
    if (type(sim.eq) is not FastEventQueue
            or type(ctrl) is not FastHybridController
            or sim.telemetry.enabled or sim.sanitizer.enabled
            or ctrl._flat
            or ctrl._alt_mode not in (0, 2)
            or ctrl._probe_mode not in (0, 2, 4)
            or ctrl._chan_changed_call
            or ctrl._hit_hook not in (0, 1)
            or ctrl._pick_mode not in (1, 2, 3)
            or ctrl._geo_mode not in (1, 2, 3)):
        return False
    if ctrl._hit_hook == 1 and (policy.swap_mode not in ("on", "off",
                                                         "ideal")
                                or ctrl._geo_mode != 1):
        return False
    if ctrl._mig_mode == 4:
        faucet = policy.faucet
        if policy.per_channel_tokens or not (
                faucet is None or (type(faucet) is TokenFaucet
                                   and isinstance(faucet.tokens, float))):
            return False
    if ctrl._mig_mode == 2 and type(policy._rng) is not random.Random:
        return False
    if ctrl._mig_mode == 1 and type(policy).allow_migration not in _GATES:
        return False
    store = ctrl.store
    if (getattr(store, "allocated", True) and any(store._index)) \
            or len(ctrl.remap):
        return False
    # The queue may hold only agent pumps and the simulation's own ticks.
    agents = {id(a) for a in sim.agents}
    for _, _, fn, args in sim.eq._heap:
        owner = getattr(fn, "__self__", None)
        if not (owner is sim or (id(owner) in agents and not args
                                 and fn.__name__ == "_pump")):
            return False
    for ch in (*ctrl._fast_ch, *ctrl._slow_ch):
        if (type(ch) is not FastChannel or ch._qc or ch._qg
                or ch._rel_pushed
                or ch.priority_class not in (None, "cpu", "gpu")):
            return False
    # The core decrements the live-agent count itself.
    if type(sim)._agent_done is not Simulation._agent_done:
        return False
    for agent in sim.agents:
        if (type(agent) is not FastAgent or agent.on_done != sim._agent_done
                or agent.inflight):
            return False
    return True


# -- one compiled run -------------------------------------------------------

def _klass(name: str) -> int:
    return 0 if name == "cpu" else 1


def _gate_loop(allow: Any, errors: list) -> Any:
    """``allow`` (a policy's ``allow_migration``) as a generator the core
    resumes once per gate call, with ``(klass, block, cost, is_write)``
    packed in one int as ``block << 4 | cost << 2 | is_write << 1 |
    klass``; it yields 0/1, or -1 after storing an exception in
    ``errors[0]``.

    A callback that raises is printed and dropped by ctypes, and a
    pending signal handler (the sweep's ``SIGALRM`` timeout, Ctrl-C)
    runs when the callback's frame is entered, before any ``try`` of a
    plain function.  So the callback is this generator's ``send``: it
    resumes inside the ``try``, and nothing between the handler and the
    final ``yield -1`` checks for pending signals again.
    """
    klasses = ("cpu", "gpu")
    try:
        packed = yield 0
        while True:
            packed = yield allow(klasses[packed & 1], packed >> 4,
                                 (packed >> 2) & 3, (packed & 2) != 0)
    except GeneratorExit:
        raise
    except BaseException as exc:  # noqa: ROB01 - re-raised by CoreRun.run
        errors[0] = exc
    yield -1


class CoreRun:
    """The buffers of one simulation on the compiled core, and the loop
    that alternates between the core and the Python ticks."""

    def __init__(self, sim: Any, lib: Any) -> None:
        self.sim = sim
        self.lib = lib
        ctrl = sim.ctrl
        policy = sim.policy
        eq = sim.eq
        self.I = np.zeros(_NI, dtype=np.int64)
        self.D = np.zeros(len(_DBL_FIELDS), dtype=np.float64)
        #: Buffers whose addresses the int table holds.
        self._keep: dict[str, np.ndarray] = {}
        self._ev_size = int(lib.hc_sizeof_event())
        self._req_size = int(lib.hc_sizeof_request())
        self._mt_gauss = None
        self._py: dict[int, tuple] = {}
        self._next_py = 0
        self._agent_ids = {id(a): k for k, a in enumerate(sim.agents)}
        nsets, assoc = ctrl._nsets, ctrl._assoc
        self.channels = [*ctrl._fast_ch, *ctrl._slow_ch]
        g = self._set_int
        g("NSETS", nsets)
        g("ASSOC", assoc)
        g("BLOCK", ctrl._block)
        g("NFAST", ctrl._nfast)
        g("NSLOW", ctrl._nslow)
        g("REMAP_BYTES", ctrl._remap_bytes)
        g("MIG_QLIMIT", ctrl._mig_qlimit)
        g("ALT_MODE", ctrl._alt_mode)
        g("PROBE_MODE", ctrl._probe_mode)
        g("MIG_MODE", ctrl._mig_mode)
        g("HIT_HOOK", ctrl._hit_hook)
        g("PICK_MODE", ctrl._pick_mode)
        g("IDEAL_SWAP", int(ctrl.ideal_swap))
        g("IDEAL_RECONFIG", int(ctrl.ideal_reconfig))
        g("REMAINING", sim._remaining)
        g("BUDGET", BUDGET)
        g("SEQ", eq._seq)
        g("CUR_SEQ", min(eq.cur_seq, (1 << 63) - 1))
        g("LRU_HEAD", -1)
        g("LRU_TAIL", -1)
        g("LRU_CAP", ctrl.remap.capacity)
        g("RC_HITS", ctrl.remap.hits)
        g("RC_MISSES", ctrl.remap.misses)
        if ctrl._hit_hook == 1:
            g("SWAP_ON", int(policy.swap_mode != "off"))
            g("SWAP_THRESH", policy.swap_threshold)
        d = self._set_dbl
        d("NOW", eq.now)
        d("UNTIL", sim.max_cycles)
        d("BASE_EXTRA", ctrl._base_extra)
        d("LLC_LAT", ctrl._llc_lat)
        d("HC_CHAIN_LAT", getattr(ctrl, "_hc_chain_lat", 0.0))
        d("HC_TAG_LAT", getattr(ctrl, "_hc_tag_lat", 0.0))
        self._faucet = (policy.faucet if ctrl._mig_mode == 4
                        and policy.faucet is not None else None)
        g("HAS_FAUCET", int(self._faucet is not None))
        self._load_agents()
        self._load_channels()
        # Store, remap LRU and the event/request buffers.
        self._buf("TAG", np.full(nsets * assoc, -1, dtype=np.int64))
        self._buf("DIRTY", np.zeros(nsets * assoc, dtype=np.int8))
        self._buf("EKLASS", np.zeros(nsets * assoc, dtype=np.int8))
        self._buf("STAMP", np.zeros(nsets * assoc, dtype=np.float64))
        self._buf("HITS", np.zeros(nsets * assoc, dtype=np.int64))
        self._buf("EGEN", np.zeros(nsets * assoc, dtype=np.int64))
        self._buf("LRU_PREV", np.full(nsets, -1, dtype=np.int32))
        self._buf("LRU_NEXT", np.full(nsets, -1, dtype=np.int32))
        self._buf("LRU_IN", np.zeros(nsets, dtype=np.int8))
        mlp = max(a.mlp for a in sim.agents)
        g("HEAP_NEED", 10 * mlp + 8)
        g("POOL_NEED", 5 * mlp + 8)
        g("HEAP_CAP", 4 * (10 * mlp + 8))
        g("POOL_CAP", 4 * (5 * mlp + 8))
        g("POOL_FREE", -1)
        self._buf("HEAP", np.zeros(self._int("HEAP_CAP") * self._ev_size,
                                   dtype=np.uint8))
        self._buf("POOL", np.zeros(self._int("POOL_CAP") * self._req_size,
                                   dtype=np.uint8))
        mt = np.zeros(624, dtype=np.uint32)
        if ctrl._mig_mode == 2:
            _, words, self._mt_gauss = policy._rng.getstate()
            mt[:] = words[:624]
            g("MT_INDEX", words[624])
        self._buf("MT", mt)
        self._load_geometry()
        self._pull()
        self._adopt_python_heap()

    # -- table access --------------------------------------------------------

    def _set_int(self, name: str, value: int) -> None:
        self.I[_GI[name]] = value

    def _int(self, name: str) -> int:
        return int(self.I[_GI[name]])

    def _set_dbl(self, name: str, value: float) -> None:
        self.D[_GD[name]] = value

    def _buf(self, name: str, arr: np.ndarray) -> None:
        self._keep[name] = arr
        self.I[_PI[name]] = arr.ctypes.data

    # -- loading -------------------------------------------------------------

    def _load_agents(self) -> None:
        sim = self.sim
        n = len(sim.agents)
        ai = np.zeros((n, len(_AGENT_INT)), dtype=np.int64)
        ad = np.zeros((n, len(_AGENT_DBL)), dtype=np.float64)
        # No request is in flight (eligible()), so no slot is read before
        # the core writes it.
        ring = np.zeros(sum(a._ilen for a in sim.agents), dtype=np.float64)
        off = 0
        for k, agent in enumerate(sim.agents):
            cols = agent._cols
            arrays = {
                "ADDR": np.ascontiguousarray(cols.addr, dtype=np.int64),
                "BLOCK": np.ascontiguousarray(cols.block, dtype=np.int64),
                "SET": np.ascontiguousarray(cols.set_id, dtype=np.int64),
                "WRITE": np.ascontiguousarray(
                    cols.is_write, dtype=np.bool_).view(np.uint8),
                "GAP": np.ascontiguousarray(cols.gap, dtype=np.float64)}
            for name, arr in arrays.items():
                if len(arr) != agent._n:
                    raise ValueError(f"trace column {name} of {agent.name} "
                                     f"has {len(arr)} entries, not "
                                     f"{agent._n}")
                self._keep[f"agent{k}.{name}"] = arr
                ai[k, _AI[name]] = arr.ctypes.data
            ai[k, _AI["KLASS"]] = _klass(agent.klass)
            ai[k, _AI["MLP"]] = agent.mlp
            ai[k, _AI["N"]] = agent._n
            ai[k, _AI["ILEN"]] = agent._ilen
            ai[k, _AI["RING_OFF"]] = off
            ai[k, _AI["WARMUP_REFS"]] = agent.warmup_refs
            ai[k, _AI["MEASURE_TARGET"]] = agent.measure_target
            ad[k, _AD["SCALE"]] = agent.instr_scale
            off += agent._ilen
            ai[k, _AI["IDX"]] = agent.idx
            ai[k, _AI["INFLIGHT"]] = agent.inflight
            ai[k, _AI["REFS_DONE"]] = agent.refs_done
            ai[k, _AI["DONE"]] = agent.done_time is not None
            ai[k, _AI["WAKE_PENDING"]] = agent._wake_pending
            ad[k, _AD["STREAM_T"]] = agent.stream_t
            ad[k, _AD["RETIRED"]] = agent.retired
            ad[k, _AD["LATENCY_SUM"]] = agent.latency_sum
            ad[k, _AD["WARM_TIME"]] = agent.warm_time
            if agent.done_time is not None:
                ad[k, _AD["DONE_TIME"]] = agent.done_time
        self._buf("AGENT_I", ai)
        self._buf("AGENT_D", ad)
        self._buf("RING", ring)

    def _load_channels(self) -> None:
        chans = self.channels
        ci = np.zeros((len(chans), len(_CHAN_INT)), dtype=np.int64)
        cd = np.zeros((len(chans), len(_CHAN_DBL)), dtype=np.float64)
        rows = []
        for k, ch in enumerate(chans):
            pc = ch.priority_class
            ci[k, _CI["PRIO"]] = -1 if pc is None else _klass(pc)
            ci[k, _CI["RR"]] = _klass(ch._rr)
            ci[k, _CI["NBANKS"]] = ch._nbanks
            ci[k, _CI["ROW_BYTES"]] = ch._row_bytes
            ci[k, _CI["ROWS_OFF"]] = len(rows)
            ci[k, _CI["S_REL"]] = ch._s_rel
            for q in ("QH0", "QT0", "QH1", "QT1"):
                ci[k, _CI[q]] = -1
            rows += [-1 if r is None else r for r in ch._rows]
            cd[k, _CD["T_FREE"]] = ch._t_free
            cd[k, _CD["BPC"]] = ch._bpc
            cd[k, _CD["T_CAS"]] = ch._t_cas
            cd[k, _CD["T_RCD_CAS"]] = ch._t_rcd_cas
            cd[k, _CD["T_RP"]] = ch._t_rp
            cd[k, _CD["LINK"]] = ch._link
        self._buf("CHAN_I", ci)
        self._buf("CHAN_D", cd)
        self._buf("ROWS", np.array(rows, dtype=np.int64))

    def _load_geometry(self) -> None:
        """Per-set row ids and the row table of the current generation.

        Rows come from the controller's hash-consed ``_geo_memo`` (the
        same rows ``_geo_fill`` serves the Python loop), one per
        distinct key, so a reconfiguration rebuilds only the key array
        and the rows of keys not seen before.
        """
        ctrl = self.sim.ctrl
        policy = self.sim.policy
        nsets, assoc = ctrl._nsets, ctrl._assoc
        mode = ctrl._geo_mode
        if mode == 1:
            keys = ctrl._geo_key_array()
        elif mode == 2:
            keys = np.arange(nsets, dtype=np.int64) % ctrl._nfast
        else:
            keys = np.zeros(nsets, dtype=np.int64)
        uniq, first, inv = np.unique(keys, return_index=True,
                                     return_inverse=True)
        # Only mode-1 keys name the same row in every generation; the
        # other modes have a handful of rows, rebuilt on each load.
        memo = ctrl._geo_memo if mode == 1 else {}
        nrows = len(uniq)
        gchan = np.zeros((nrows, assoc), dtype=np.int32)
        gowner = np.zeros((nrows, assoc), dtype=np.int8)
        gelig = np.zeros((nrows, 2, assoc), dtype=np.int32)
        gnelig = np.zeros((nrows, 2), dtype=np.int32)
        for r, (key, s) in enumerate(zip(uniq.tolist(), first.tolist())):
            row = memo.get(key)
            if row is None:
                row = ctrl._geo_row(s)
                memo[key] = row
            chans, owners, el_cpu, el_gpu = row
            gchan[r] = chans
            gowner[r] = [_OWN[o] for o in owners]
            for k, el in enumerate((el_cpu, el_gpu)):
                gelig[r, k, :len(el)] = el
                gnelig[r, k] = len(el)
        self._buf("ROW_OF_SET", inv.astype(np.int32).ravel())
        self._buf("GCHAN", gchan)
        self._buf("GOWNER", gowner)
        self._buf("GELIG", gelig)
        self._buf("GNELIG", gnelig)
        self._set_int("GEN", policy.generation)
        if ctrl._hit_hook == 1:
            self._set_int("BW", policy.map.bw)

    def _adopt_python_heap(self) -> None:
        """Move every event queued on the Python heap into the core:
        agent pumps become core events, anything else a Python tick."""
        heap = self.sim.eq._heap
        agents = self._agent_ids
        ptr = self.I.ctypes.data
        for t, s, fn, args in heap:
            owner = getattr(fn, "__self__", None)
            if (getattr(fn, "__name__", "") == "_pump" and not args
                    and id(owner) in agents):
                self._ensure_heap(1)
                self.lib.hc_push(ptr, t, s, _EV["PUMP"], agents[id(owner)],
                                 0)
                continue
            k = self._next_py
            self._next_py += 1
            self._py[k] = (fn, args)
            self._ensure_heap(1)
            self.lib.hc_push(ptr, t, s, _EV["PY"], 0, k)
        heap.clear()

    def _ensure_heap(self, extra: int) -> None:
        if self._int("HEAP_CAP") - self._int("HEAP_N") < extra:
            self._grow("HEAP", "HEAP_CAP", self._ev_size)

    def _grow(self, buf: str, cap: str, size: int) -> None:
        old = self._keep[buf]
        new = np.zeros(2 * len(old), dtype=np.uint8)
        new[:len(old)] = old
        self._buf(buf, new)
        self._set_int(cap, len(new) // size)

    # -- state exchange with the Python objects -------------------------------

    def _push(self) -> None:
        """Core state -> Python objects (before a tick, and at the end)."""
        sim = self.sim
        ctrl = sim.ctrl
        il = self.I.tolist()
        dl = self.D.tolist()
        eq = sim.eq
        eq.now = dl[_GD["NOW"]]
        eq.cur_seq = il[_GI["CUR_SEQ"]]
        eq._seq = il[_GI["SEQ"]]
        base = _GI["CNT"]
        nk = len(CLASS_KEYS)
        ctrl._cnt["cpu"].update(zip(CLASS_KEYS, il[base:base + nk]))
        ctrl._cnt["gpu"].update(zip(CLASS_KEYS, il[base + nk:base + 2 * nk]))
        ctrl._lazy_invalidations = il[_GI["LAZY_INV"]]
        ctrl._swaps = il[_GI["SWAPS"]]
        ctrl.remap.hits = il[_GI["RC_HITS"]]
        ctrl.remap.misses = il[_GI["RC_MISSES"]]
        cil = self._keep["CHAN_I"].tolist()
        cdl = self._keep["CHAN_D"].tolist()
        busy, wait = _CD["BUSY"], _CD["QUEUE_WAIT"]
        for ch, ci, cd in zip(self.channels, cil, cdl):
            for attr, col in zip(_CHAN_CNT_ATTRS, _CHAN_CNT_COLS):
                setattr(ch, attr, ci[col])
            ch.busy_cycles = cd[busy]
            ch._queue_wait = cd[wait]
        ail = self._keep["AGENT_I"].tolist()
        adl = self._keep["AGENT_D"].tolist()
        for agent, ai, ad in zip(sim.agents, ail, adl):
            agent.idx = ai[_AI["IDX"]]
            agent.inflight = ai[_AI["INFLIGHT"]]
            agent.refs_done = ai[_AI["REFS_DONE"]]
            agent._wake_pending = bool(ai[_AI["WAKE_PENDING"]])
            agent.stream_t = ad[_AD["STREAM_T"]]
            agent.retired = ad[_AD["RETIRED"]]
            agent.latency_sum = ad[_AD["LATENCY_SUM"]]
            agent.warm_time = ad[_AD["WARM_TIME"]]
            agent.done_time = (ad[_AD["DONE_TIME"]] if ai[_AI["DONE"]]
                               else None)
        sim._remaining = il[_GI["REMAINING"]]
        if self._faucet is not None:
            self._faucet.tokens = dl[_GD["TOKENS"]]
            self._faucet.granted = il[_GI["GRANTED"]]
            self._faucet.denied = il[_GI["DENIED"]]
        if ctrl._mig_mode == 2:
            words = tuple(self._keep["MT"].tolist()) + (il[_GI["MT_INDEX"]],)
            sim.policy._rng.setstate((3, words, self._mt_gauss))

    def _pull(self) -> None:
        """Python objects -> core state (at the start, and after a tick)."""
        sim = self.sim
        ctrl = sim.ctrl
        policy = sim.policy
        I = self.I
        I[_GI["SEQ"]] = sim.eq._seq
        base = _GI["CNT"]
        nk = len(CLASS_KEYS)
        I[base:base + nk] = [ctrl._cnt["cpu"][k] for k in CLASS_KEYS]
        I[base + nk:base + 2 * nk] = [ctrl._cnt["gpu"][k]
                                      for k in CLASS_KEYS]
        I[_GI["LAZY_INV"]] = ctrl._lazy_invalidations
        I[_GI["SWAPS"]] = ctrl._swaps
        ci = self._keep["CHAN_I"]
        cd = self._keep["CHAN_D"]
        ci[:, _CHAN_CNT_COLS] = [[getattr(ch, a) for a in _CHAN_CNT_ATTRS]
                                 for ch in self.channels]
        cd[:, _CD["BUSY"]] = [ch.busy_cycles for ch in self.channels]
        cd[:, _CD["QUEUE_WAIT"]] = [ch._queue_wait for ch in self.channels]
        if self._faucet is not None:
            self.D[_GD["TOKENS"]] = self._faucet.tokens
            I[_GI["GRANTED"]] = self._faucet.granted
            I[_GI["DENIED"]] = self._faucet.denied
        if ctrl._mig_mode == 2:
            self.D[_GD["P_CPU"]] = P_LEVELS[policy.levels["cpu"]]
            self.D[_GD["P_GPU"]] = P_LEVELS[policy.levels["gpu"]]
        if policy.generation != I[_GI["GEN"]]:
            self._load_geometry()

    # -- the loop ----------------------------------------------------------

    def _occupancy(self) -> dict[str, int]:
        """Valid fast-tier ways by class, counted in the core's store
        (``occupancy_by_class()`` while the run is active)."""
        valid = self._keep["TAG"] >= 0
        gpu = int(np.count_nonzero(self._keep["EKLASS"][valid]))
        return {"cpu": int(np.count_nonzero(valid)) - gpu, "gpu": gpu}

    def run(self) -> None:
        """Drive the simulation to its end (``Simulation.run``'s loop)."""
        ctrl = self.sim.ctrl
        errors: list[BaseException | None] = [None]
        gate = cb = None
        if ctrl._mig_mode == 1:
            gate = _gate_loop(self.sim.policy.allow_migration, errors)
            next(gate)
            cb = _GATE_T(gate.send)
            self.I[_PI["GATE"]] = ctypes.cast(cb, ctypes.c_void_p).value
        ctrl._occ_source = self._occupancy
        try:
            self._loop(errors)
        finally:
            # Dropped here, so no reference cycle ties the controller
            # to this run.
            ctrl._occ_source = None
            del gate, cb

    def _loop(self, errors: list) -> None:
        sim = self.sim
        run = self.lib.hc_run
        iptr, dptr = self.I.ctypes.data, self.D.ctypes.data
        rc_py, rc_grow, rc_budget = _RC["PY"], _RC["GROW"], _RC["BUDGET"]
        rc_err = _RC["ERR"]
        while True:
            rc = run(iptr, dptr)
            if rc == rc_py:
                fn, args = self._py.pop(self._int("PY_ID"))
                self._push()
                fn(*args)
                self._pull()
                if sim._all_done():
                    break
                self._adopt_python_heap()
            elif rc == rc_grow:
                if (self._int("POOL_CAP") - self._int("POOL_LIVE")
                        < self._int("POOL_NEED")):
                    self._grow("POOL", "POOL_CAP", self._req_size)
                if (self._int("HEAP_CAP") - self._int("HEAP_N")
                        < self._int("HEAP_NEED")):
                    self._grow("HEAP", "HEAP_CAP", self._ev_size)
            elif rc == rc_err:
                exc, errors[0] = errors[0], None
                raise exc
            elif rc != rc_budget:
                break
        self._push()
