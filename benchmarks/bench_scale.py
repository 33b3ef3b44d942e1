"""Benchmark: paper-scale slot-sim memory/throughput + flow-model speed.

Runs the fused vectorized engine on SORN fabrics at N ∈ {1024, 2048,
4096} — the largest being the paper's Table 1 fabric (N=4096, Nc=64 at
the optimal q for x=0.56) — and writes the measurement to
``BENCH_scale.json`` for CI regression tracking:

- **slots/s**: end-to-end wall clock of an untraced run (the schedule,
  its dense destination table, the router and the workload are built
  outside the timed region, exactly like ``bench_kernel.py``).  Every
  rung gets one untimed warmup run first so the measurement is warm
  steady-state, not first-touch page faults; the paper-scale N=4096
  rung carries a hard slots/s floor on the warm number so a driver or
  kernel regression at the scale the paper actually ran cannot land
  silently.
- **schedule cache**: at N=4096 the compiled-schedule cache
  (:class:`repro.exp.ScheduleCache`) is timed cold (miss: dense-table
  build + content-addressed store) vs warm (hit: read-only memory-map
  of the stored table), gated on the warm path being at least
  ``SCHED_CACHE_MIN_SPEEDUP`` x faster — the property every
  segment/replica/sweep worker banks on when it maps the shared copy
  instead of rebuilding the period-3843 tables.
- **peak memory**: a second, identical run under ``tracemalloc`` (numpy
  registers its buffers with the tracer, so the dominant VOQ cubes,
  qlen counter and cell tables are all seen); ``reset_peak`` before
  each run makes the peaks per-N rather than monotonic, and the
  process-wide VOQ cube pool is cleared first so the traced run
  allocates — rather than recycles, invisibly — the big cubes.  The
  hard gate
  is a per-N byte budget sized ~30% above the measured footprint of the
  chunked-presampling + int32 engine, so dtype or chunking regressions
  (e.g. qlen back to int64, whole-run presample blocks) fail CI.
- **flow-level model**: builds :class:`repro.sim.flowlevel.
  FlowLevelModel` for both Table 1 rows (Nc=64 *and* Nc=32 — the Nc=32
  realized schedule's period is ~240k slots, far beyond what the slot
  engine can hold, which is exactly the regime the flow model exists
  for) and evaluates one million sampled flows per row, recording
  model-build and evaluate seconds plus flows/s.  Never gated on speed;
  the evaluated reports must be stable and finite.

The two slot-engine runs must produce identical reports (determinism
assert), so a memory measurement can never hide a correctness change.
``--smoke`` runs a reduced ladder and records without gating.
"""

import json
import tempfile
import time
import tracemalloc
from pathlib import Path

from conftest import bench_environment

from repro.analysis import optimal_q
from repro.exp import ScheduleCache
from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import SimConfig, SlotSimulator, clear_cube_pool
from repro.sim.flowlevel import FlowLevelModel, sample_flow_arrays
from repro.traffic import FlowSizeDistribution, Workload, clustered_matrix
from repro.util import ensure_rng

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: The paper's Table 1 operating point.
LOCALITY = 0.56
LOAD = 0.30

#: Warm slots/s floor at the paper's N=4096 rung (~1.5x the ~210 slots/s
#: measured before VOQ-cube pooling and the schedule cache).  The
#: per-slot driver is close to it on a shared 2-vCPU host: see
#: EXPERIMENTS.md "Paper-scale runs" for the measured margin.
SCALE_FLOOR_SLOTS_PER_S = 315.0
#: Minimum warm (mmap hit) over cold (build + store) speedup for the
#: compiled-schedule cache at N=4096.
SCHED_CACHE_MIN_SPEEDUP = 5.0

#: (num_nodes, num_cliques, q, slots, peak-byte budget, slots/s floor).
#: q is the optimal 2/(1-x) wherever the realized schedule period stays
#: small; N=2048 has no such Nc (every option lands near a ~119k-slot
#: period, a ~1 GiB destination table), so that rung uses q=2 — the
#: memory ladder cares about N, not q.  Budgets are ~30% above the
#: measured footprint of the int32 + chunked-presampling engine (N=4096
#: measured ~334 MiB: 268 MiB head/tail cubes + 64 MiB qlen + cell
#: tables).  Only the paper-scale rung carries a throughput floor:
#: smaller rungs finish too fast on a busy runner for a stable gate.
FULL_SCALE = [
    (1024, 32, optimal_q(LOCALITY), 200, 64 * 2**20, None),
    (2048, 32, 2.0, 120, 160 * 2**20, None),
    (4096, 64, optimal_q(LOCALITY), 80, 448 * 2**20, SCALE_FLOOR_SLOTS_PER_S),
]
SMOKE_SCALE = [(256, 16, optimal_q(LOCALITY), 120, None, None)]

#: Flow-model rows: the two Table 1 clique counts at paper scale.
FLOW_MODEL_NODES = 4096
FLOW_MODEL_CLIQUES = (64, 32)
FLOW_MODEL_FLOWS = 1_000_000


def _fabric(num_nodes, num_cliques, q):
    schedule = build_sorn_schedule(num_nodes, num_cliques, q=q)
    schedule.dest_table()  # warm the shared cache outside the measured region
    return schedule, SornRouter(schedule.layout)


def _flows(schedule, slots):
    workload = Workload(
        clustered_matrix(schedule.layout, LOCALITY),
        FlowSizeDistribution.fixed(4500),
        load=LOAD,
        cell_bytes=1500.0,
    )
    return workload.generate(slots, rng=1)


def _run(schedule, router, flows, slots):
    sim = SlotSimulator(
        schedule, router, SimConfig(engine="vectorized"), rng=2
    )
    return sim.run(flows, slots, measure_from=slots // 2)


def _sched_cache_timing(schedule):
    """Cold (build + store) vs warm (mmap hit) compiled-schedule timing.

    Both calls go through the cache so the comparison is the real choice
    a sweep worker faces: rebuild the dense table from the matchings, or
    map the content-addressed copy a sibling already stored.  The warm
    table is spot-checked against the cold one (full-table equality is
    covered by the schedule-cache tests; paging the whole mmap in here
    would just re-measure the cold read).
    """
    with tempfile.TemporaryDirectory(prefix="schedcache-bench-") as root:
        cache = ScheduleCache(root=root)
        start = time.perf_counter()
        cold_table = cache.dest_table(schedule)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm_table = cache.dest_table(schedule)
        warm_s = time.perf_counter() - start
        assert (cache.misses, cache.hits) == (1, 1), cache.stats()
        assert warm_table.shape == cold_table.shape
        assert warm_table.dtype == cold_table.dtype
        assert (warm_table[0] == cold_table[0]).all()
        del warm_table, cold_table  # release the mmap before cleanup
    return {
        "num_nodes": schedule.num_nodes,
        "period": schedule.period,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 1),
        "min_speedup": SCHED_CACHE_MIN_SPEEDUP,
    }


def test_scale_memory_and_throughput(report, smoke):
    """Slot engine at N ∈ {1024, 2048, 4096}: slots/s + gated peak RSS."""
    scales = SMOKE_SCALE if smoke else FULL_SCALE
    results = []
    lines = []
    sched_cache_result = None
    for num_nodes, num_cliques, q, slots, budget, floor in scales:
        schedule, router = _fabric(num_nodes, num_cliques, q)
        flows = _flows(schedule, slots)
        warm_report = _run(schedule, router, flows, slots)  # untimed warmup
        start = time.perf_counter()
        timed_report = _run(schedule, router, flows, slots)
        elapsed = time.perf_counter() - start
        assert timed_report == warm_report, "non-deterministic benchmark run"
        # The warm runs above pooled this shape's VOQ cubes; drop them so
        # the traced run allocates — and tracemalloc sees — the real
        # footprint rather than recycled, untraced arrays.
        clear_cube_pool()
        tracemalloc.start()
        tracemalloc.reset_peak()
        traced_report = _run(schedule, router, flows, slots)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert traced_report == timed_report, "non-deterministic benchmark run"
        results.append(
            {
                "num_nodes": num_nodes,
                "num_cliques": num_cliques,
                "q": round(schedule.q, 4),
                "slots": slots,
                "num_flows": len(flows),
                "delivered_cells": timed_report.delivered_cells,
                "seconds": round(elapsed, 4),
                "slots_per_s": round(slots / elapsed, 1),
                "slots_per_s_floor": floor,
                "peak_bytes": peak,
                "peak_mib": round(peak / 2**20, 1),
                "budget_bytes": budget,
            }
        )
        lines.append(
            f"N={num_nodes:>5} Nc={num_cliques:>3}  "
            f"{slots / elapsed:>7.1f} slots/s"
            + (f" (floor {floor:.0f})" if floor else "")
            + f"   peak {peak / 2**20:>7.1f} MiB"
            + (f" (budget {budget / 2**20:.0f} MiB)" if budget else "")
        )
        if floor is not None:
            sched_cache_result = _sched_cache_timing(schedule)
            lines.append(
                f"schedule cache N={num_nodes}  "
                f"cold {sched_cache_result['cold_seconds']:.3f}s   "
                f"warm {sched_cache_result['warm_seconds']:.4f}s   "
                f"speedup {sched_cache_result['speedup']:.0f}x "
                f"(gate >= {SCHED_CACHE_MIN_SPEEDUP:.0f}x)"
            )

    flow_results = []
    if not smoke:
        rng = ensure_rng(3)
        for nc in FLOW_MODEL_CLIQUES:
            start = time.perf_counter()
            schedule = build_sorn_schedule(
                FLOW_MODEL_NODES, nc, q=optimal_q(LOCALITY)
            )
            model = FlowLevelModel(
                schedule,
                SornRouter(schedule.layout),
                load=LOAD,
                locality=LOCALITY,
            )
            build_s = time.perf_counter() - start
            srcs, dsts, sizes = sample_flow_arrays(
                schedule.layout, LOCALITY, FLOW_MODEL_FLOWS, rng
            )
            start = time.perf_counter()
            flow_report = model.evaluate(srcs, dsts, sizes)
            eval_s = time.perf_counter() - start
            assert flow_report.stable, "Table 1 operating point went unstable"
            assert flow_report.mean_fct is not None
            flow_results.append(
                {
                    "num_nodes": FLOW_MODEL_NODES,
                    "num_cliques": nc,
                    "num_flows": FLOW_MODEL_FLOWS,
                    "build_seconds": round(build_s, 4),
                    "evaluate_seconds": round(eval_s, 4),
                    "flows_per_s": round(FLOW_MODEL_FLOWS / eval_s, 1),
                    "mean_fct_slots": round(flow_report.mean_fct, 2),
                    "p99_fct_slots": round(flow_report.fct_percentile(99.0), 2),
                    "mean_slowdown": round(flow_report.mean_slowdown, 3),
                    "saturation_throughput": round(
                        flow_report.saturation_throughput, 6
                    ),
                }
            )
            lines.append(
                f"flow model N={FLOW_MODEL_NODES} Nc={nc:>3}  "
                f"{FLOW_MODEL_FLOWS / eval_s:>11.1f} flows/s   "
                f"mean FCT {flow_report.mean_fct:>9.1f} slots"
            )

    payload = {
        "benchmark": "scale",
        "environment": bench_environment(),
        "config": {
            "locality": LOCALITY,
            "load": LOAD,
            "smoke": smoke,
        },
        "results": results,
        "schedule_cache": sched_cache_result,
        "flow_model": flow_results,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "Paper-scale ladder: slot engine memory/throughput + flow model"
        + (" (smoke)" if smoke else ""),
        lines + [f"written to {BENCH_JSON.name}"],
    )

    if smoke:
        return
    for entry in results:
        assert entry["peak_bytes"] <= entry["budget_bytes"], (
            f"N={entry['num_nodes']}: peak {entry['peak_mib']} MiB over the "
            f"{entry['budget_bytes'] / 2**20:.0f} MiB budget — a dtype or "
            f"presampling-chunk regression?"
        )
        if entry["slots_per_s_floor"] is not None:
            assert entry["slots_per_s"] >= entry["slots_per_s_floor"], (
                f"N={entry['num_nodes']}: warm {entry['slots_per_s']} slots/s "
                f"under the {entry['slots_per_s_floor']:.0f} slots/s floor — "
                f"a driver or kernel regression at paper scale"
            )
    assert sched_cache_result is not None, "paper-scale rung missing"
    assert sched_cache_result["speedup"] >= SCHED_CACHE_MIN_SPEEDUP, (
        f"schedule-cache warm hit only {sched_cache_result['speedup']}x "
        f"faster than the cold build (floor {SCHED_CACHE_MIN_SPEEDUP}x) — "
        f"the mmap fast path sweep workers rely on has regressed"
    )
