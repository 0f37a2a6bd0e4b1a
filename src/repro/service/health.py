"""Operational health view of a running campaign server.

``GET /v1/health`` is what a load balancer, autoscaler, or human on
call reads, so its shape is a first-class schema rather than an ad-hoc
dict assembled inside the HTTP handler: :class:`HealthReport` snapshots
queue depth (total and per priority class), in-flight cells, drain
state, admission-control capacity, and — when the server runs with a
write-ahead journal — the journal's durability status and *lag* (cells
the server has accepted whose outcome is not yet on disk; exactly the
work a crash right now would have to recompute after replay).

The report is advisory: ``ok`` is pure liveness (the server answered),
while ``journal["ok"] == False`` (an append failed, journaling is
disabled) and ``state == "draining"`` are the conditions operators
alert on.  See the Operations section of docs/service.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.service.schema import SCHEMA_VERSION, check_version

#: Lifecycle states reported by :class:`HealthReport.state`.
SERVER_STATES = ("serving", "draining")


@dataclass(frozen=True)
class HealthReport:
    """One snapshot of ``/v1/health``.

    ``queued_cells`` counts cells sitting in the fair queue
    (``queued_by_class`` splits them per priority class),
    ``inflight_cells`` cells currently inside an engine step, and
    ``jobs`` every campaign the server knows (live or replayed).
    ``max_queued_cells`` echoes the admission-control limit (``None``
    = unlimited).  ``journal`` is ``None`` when the server runs
    without a journal; otherwise a dict with ``ok`` (appends are
    landing), ``records`` (appended by this process), ``lag_cells``
    (accepted cells whose outcome is not yet durable) and
    ``quarantined`` (torn records dropped at the last replay).
    """

    ok: bool
    state: str
    jobs: int
    queued_cells: int
    inflight_cells: int
    queued_by_class: dict[str, int] = field(default_factory=dict)
    max_queued_cells: int | None = None
    journal: dict[str, Any] | None = None
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_server(cls, server: Any) -> "HealthReport":
        """Snapshot a :class:`~repro.service.server.CampaignServer`."""
        inflight = sum(1 for c in server._cells.values()
                       if c.state == "running")
        journal = None
        if server.journal is not None:
            pending = sum(1 for c in server._cells.values()
                          if c.state in ("queued", "running"))
            journal = {"ok": not server.journal.disabled,
                       "records": server.journal.appended,
                       "lag_cells": pending,
                       "quarantined": server.journal.quarantined}
        return cls(ok=True,
                   state="draining" if server.draining else "serving",
                   jobs=len(server._jobs),
                   queued_cells=len(server._queue),
                   inflight_cells=inflight,
                   queued_by_class=server._queue.depths(),
                   max_queued_cells=server.max_queued_cells,
                   journal=journal)

    def to_json(self) -> dict[str, Any]:
        """Plain-dict wire form (schema-stamped)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "HealthReport":
        """Inverse of :meth:`to_json`; validates the version stamp.

        Tolerates extra keys (older clients reading a same-version
        server that grew fields) but requires the core counters.
        """
        check_version(data, "HealthReport")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})
