"""In-memory spans around repro's public entry points.

The benchmark never edits ``src/``: :func:`install` replaces each entry
point named in :data:`TARGETS` with a wrapper that records one
:class:`Span` per call into a :class:`Tracer`, and
:meth:`Installed.uninstall` puts every original back.  A function
target is replaced in every loaded ``repro`` module that holds it
(``from x import f`` copies the reference), a method target on its
class.  Spans stay in memory until :meth:`Tracer.dump` writes them out
at the end of a run.

A span's parent is the innermost open span of the same thread, so the
single-threaded workloads form one call tree per operation, and the
campaign server's loop and engine threads form their own.  Self time is
a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Stats keys summed over every simulated cell (``SimResult.stats``).
STAT_KEYS = ("cpu.accesses", "gpu.accesses", "cpu.fast_hits",
             "cpu.fast_misses", "gpu.fast_hits", "gpu.fast_misses",
             "cpu.migrations", "gpu.migrations", "cpu.bypasses",
             "gpu.bypasses", "cpu.remap_fills", "gpu.remap_fills",
             "cpu.migration_tokens", "gpu.migration_tokens",
             "fast.accesses", "slow.accesses", "slow.queue_wait")


@dataclass
class Span:
    """One call: name, host start/end (``perf_counter``), parent index."""

    name: str
    start: float
    end: float
    parent: int
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), float("nan"),
                    stack[-1] if stack else -1, threading.get_ident())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its children.

        Children run inside their parent on the parent's thread, one
        after another, so their durations never overlap and their sum
        is the part of the parent they cover.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (scalar attributes only)."""
        with open(path, "w") as out:
            for span in self.spans:
                rec = {"name": span.name, "start": span.start,
                       "end": span.end, "parent": span.parent,
                       "thread": span.thread}
                rec.update((k, v) for k, v in span.attrs.items()
                           if isinstance(v, (str, int, float, bool)))
                out.write(json.dumps(rec) + "\n")


def sum_stats(results: list) -> dict[str, float]:
    """:data:`STAT_KEYS` summed over ``SimResult`` objects."""
    out = dict.fromkeys(STAT_KEYS, 0.0)
    for res in results:
        for key in STAT_KEYS:
            out[key] += res.stats.get(key, 0.0)
    return out


# -- what each wrapper records beside the timing ---------------------------

def _engine_run(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    results = [r for r in (out if isinstance(out, list) else [out])
               if not isinstance(r, Exception)]
    return {"cells": len(results), "stats": sum_stats(results),
            "sim_cycles": sum(r.elapsed for r in results),
            "engine": type(args[0]).__name__}


def _construct(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"engine": type(args[0]).__name__}


def _build_mix(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"refs": sum(len(tr) for tr in out.traces)}


def _sweep_run(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    jobs = list(args[1]) if len(args) > 1 else list(kwargs["jobs"])
    return {"labels": [(job.design, job.mix_name) for job in jobs],
            "submitted": len(jobs), "unique": len(set(jobs))}


def _cache_get(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"hit": out is not None}


def _server_submit(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"job_id": out.job_id, "replay": kwargs.get("job_id") is not None}


def _client_submit(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"job_id": out.job_id}


#: ``(span name, module, attribute path, attrs hook)``.  ``FastSimulation``
#: and ``BatchCell`` inherit ``__init__``/``run`` from ``Simulation``, so
#: the ``Simulation`` wrappers time every engine; ``attrs["engine"]``
#: names the class.  ``ServiceClient.stream`` is a generator and is
#: wrapped by :func:`_wrap_generator`.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("api", "repro.api", "simulate", None),
    ("api", "repro.api", "sweep", None),
    ("traces.build", "repro.traces.mixes", "build_mix", _build_mix),
    ("designs.setup", "repro.experiments.designs", "design_config", None),
    ("designs.setup", "repro.experiments.designs", "make_policy", None),
    ("runner", "repro.experiments.runner", "run_design", None),
    ("sweep", "repro.experiments.sweep", "SweepEngine.run", _sweep_run),
    ("engine.construct", "repro.engine.simulator", "Simulation.__init__",
     _construct),
    ("engine.run", "repro.engine.simulator", "Simulation.run", _engine_run),
    ("engine.run", "repro.engine.batch", "BatchSimulation.run_isolated",
     _engine_run),
    ("cache.get", "repro.experiments.cache", "SweepCache.get", _cache_get),
    ("cache.put", "repro.experiments.cache", "SweepCache.put", None),
    ("journal.append", "repro.service.journal", "Journal.append", None),
    ("journal.replay", "repro.service.journal", "Journal.replay", None),
    ("server.submit", "repro.service.server", "CampaignServer.submit",
     _server_submit),
    ("client.submit", "repro.service.client", "ServiceClient.submit",
     _client_submit),
    ("client.stream", "repro.service.client", "ServiceClient.stream", None),
)

_ORIGINAL = "__perfbench_original__"


def _wrap(tracer: Tracer, name: str, fn: Callable,
          hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            span = tracer.close(idx)
        if hook is not None:
            span.attrs.update(hook(args, kwargs, out))
        return out
    setattr(wrapper, _ORIGINAL, fn)
    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A generator's span covers its whole iteration; every yielded
    item's arrival time lands in ``attrs["arrivals"]``.  Used only for
    ``ServiceClient.stream(job_id)``, whose job id lands in
    ``attrs["job_id"]``."""
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = tracer.open(name)
        arrivals: list[tuple[Any, float]] = []
        try:
            for item in fn(*args, **kwargs):
                arrivals.append((item, time.perf_counter()))
                yield item
        finally:
            span = tracer.close(idx)
            span.attrs["arrivals"] = arrivals
            span.attrs["job_id"] = args[1] if len(args) > 1 \
                else kwargs["job_id"]
    setattr(wrapper, _ORIGINAL, fn)
    return wrapper


def _repro_modules() -> list[Any]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro"
                                    or name.startswith("repro."))]


class Installed:
    """Handle returned by :func:`install`; :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer) -> Installed:
    """Wrap every :data:`TARGETS` entry point; returns the undo handle.

    Every target module is imported first, so no module loaded later
    can copy a wrapper that :meth:`Installed.uninstall` would miss.
    """
    for _, module, _, _ in TARGETS:
        importlib.import_module(module)
    handle = Installed()
    modules = _repro_modules()
    for name, module, path, hook in TARGETS:
        owner: Any = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = owner.__dict__[attr]
        if inspect.isgeneratorfunction(fn):
            wrapped = _wrap_generator(tracer, name, fn)
        else:
            wrapped = _wrap(tracer, name, fn, hook)
        if outer:
            handle.replace(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    handle.replace(mod, key, wrapped)
    return handle


def installed_wrappers() -> list[str]:
    """Names of loaded ``repro`` attributes that are still wrappers."""
    found = []
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if hasattr(value, _ORIGINAL):
                found.append(f"{mod.__name__}.{key}")
            elif inspect.isclass(value):
                found.extend(f"{mod.__name__}.{key}.{k}"
                             for k, v in vars(value).items()
                             if hasattr(v, _ORIGINAL))
    return found
