"""Per-layer metrics of the traced run and the end-to-end metric each
should move; BENCHMARK.json's ``per_layer`` list mirrors
:data:`PER_LAYER`.

Layer times are self times of the spans ``spans.py`` records around the
public calls named in :data:`LAYER_MAP`, summed over one traced pass
(the median over the run's traced passes).  Counts are per pass and
must repeat exactly in every pass of one seed.
"""

from __future__ import annotations

#: ``(layer, public calls wrapped, its metrics, what it should move)``.
#: On service-mix ``call_*`` is the campaign latency (submit to last row
#: of a campaign that simulated new cells); ``repeat_p50_ms`` is printed
#: but not gated.  ``server.cache_hits`` counts result-store recalls
#: (``SweepCache.get`` hits): on service-mix, the cells the restarted
#: server's journal replay reads back instead of simulating again.
LAYER_MAP = (
    ("traces", "build_mix",
     "traces.build_s traces.calls traces.refs",
     "call_p50_ms on kv-cells; under 3% of cells_per_s on fig-grid"),
    ("experiments.designs", "design_config make_policy",
     "designs.setup_s designs.calls",
     "call_p50_ms on kv-cells"),
    ("engine", "Simulation.__init__/.run (FastSimulation and BatchCell "
     "inherit both), BatchSimulation.run_isolated",
     "engine.construct_s engine.run_s engine.run_share engine.cells "
     "engine.sim_accesses engine.sim_cycles engine.us_per_access",
     "cells_per_s and sim_accesses_per_s on fig-grid (dominant); "
     "call_p50_ms on kv-cells; call_p50_ms (campaign latency) and "
     "first_row_p50_s on service-mix; not repeat_p50_ms"),
    ("hybrid / mem / core", "counts summed from SimResult.stats",
     "hybrid.hit_rate_cpu hybrid.hit_rate_gpu hybrid.migrations "
     "hybrid.bypasses hybrid.remap_fills mem.fast.accesses "
     "mem.slow.accesses mem.slow.queue_wait_cycles core.migration_tokens",
     "none: identical under any speed-only change; a modelling change "
     "moves them, so compare engine.us_per_access"),
    ("experiments.runner, api", "run_design; api.simulate, api.sweep",
     "runner.self_s api.self_s",
     "fig-grid and kv-cells glue; predicted small"),
    ("experiments.sweep", "SweepEngine.run",
     "sweep.self_s sweep.submitted sweep.unique sweep.simulated",
     "cells_per_s on fig-grid (dispatch share)"),
    ("experiments.cache", "SweepCache.get/put",
     "cache.get_s cache.put_s cache.gets cache.puts cache.hit_ratio",
     "call_p50_ms (put) and rows_per_s after restart (get), on "
     "service-mix"),
    ("service.journal", "Journal.append/replay",
     "journal.append_s journal.append_p50_ms journal.appends "
     "journal.replay_s",
     "call_p50_ms and rows_per_s on service-mix; no visible move "
     "predicted"),
    ("service.queue / service.server",
     "CampaignServer.submit, ServiceClient.submit/stream timed against "
     "engine spans",
     "queue.wait_p50_s server.submit_p50_ms server.stream_lag_p50_ms "
     "server.dedup_ratio server.dedup_hits server.cache_hits "
     "rows.delivered",
     "first_row_p50_s and call_p50_ms (queue wait) on service-mix, and "
     "the printed repeat_p50_ms (submit and stream)"),
)

#: ``(name, unit, better)`` of every per-layer metric.
PER_LAYER = (
    ("traces.build_s", "s", "lower"),
    ("traces.calls", "count", "lower"),
    ("traces.refs", "count", "lower"),
    ("designs.setup_s", "s", "lower"),
    ("designs.calls", "count", "lower"),
    ("engine.construct_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.run_share", "ratio", "lower"),
    ("engine.cells", "count", "higher"),
    ("engine.sim_accesses", "count", "higher"),
    ("engine.sim_cycles", "cycles", "lower"),
    ("engine.us_per_access", "us", "lower"),
    ("hybrid.hit_rate_cpu", "ratio", "higher"),
    ("hybrid.hit_rate_gpu", "ratio", "higher"),
    ("hybrid.migrations", "count", "lower"),
    ("hybrid.bypasses", "count", "lower"),
    ("hybrid.remap_fills", "count", "lower"),
    ("mem.fast.accesses", "count", "higher"),
    ("mem.slow.accesses", "count", "lower"),
    ("mem.slow.queue_wait_cycles", "cycles", "lower"),
    ("core.migration_tokens", "count", "lower"),
    ("runner.self_s", "s", "lower"),
    ("api.self_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.submitted", "count", "lower"),
    ("sweep.unique", "count", "lower"),
    ("sweep.simulated", "count", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.gets", "count", "lower"),
    ("cache.puts", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("journal.append_s", "s", "lower"),
    ("journal.append_p50_ms", "ms", "lower"),
    ("journal.appends", "count", "lower"),
    ("journal.replay_s", "s", "lower"),
    ("queue.wait_p50_s", "s", "lower"),
    ("server.submit_p50_ms", "ms", "lower"),
    ("server.stream_lag_p50_ms", "ms", "lower"),
    ("server.dedup_ratio", "ratio", "higher"),
    ("server.dedup_hits", "count", "higher"),
    ("server.cache_hits", "count", "higher"),
    ("rows.delivered", "count", "higher"),
    ("unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Per-layer metrics outside any layer: wall not covered by a layer's
#: self time, and traced / untraced wall over the same units.
REMAINDER = ("unattributed_s", "trace.overhead")

#: Per-layer counts that must be equal in every traced pass of a seed.
COUNTS = ("traces.calls", "traces.refs", "designs.calls", "engine.cells",
          "engine.sim_accesses", "engine.sim_cycles", "hybrid.migrations",
          "hybrid.bypasses", "hybrid.remap_fills", "mem.fast.accesses",
          "mem.slow.accesses", "mem.slow.queue_wait_cycles",
          "core.migration_tokens", "sweep.submitted", "sweep.unique",
          "sweep.simulated", "cache.gets", "cache.puts", "journal.appends",
          "server.cache_hits")
