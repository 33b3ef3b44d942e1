"""The benchmark's three workloads.

Each ``run_<workload>(ctx)`` builds its inputs from ``ctx.seed``, runs its
operations through ``ctx.ledger`` (which counts them and their failed
correctness checks) and returns ``{metric name: value}``: the
end-to-end metrics with ``ctx.trace`` off, the per-layer metrics of the
layers it exercises with ``ctx.trace`` on.  README.md explains why each
workload exists and which layer metric should move which end-to-end
metric.
"""

import gc
import itertools
import json
import os
import statistics

from harness import HostProbe, Spans, TimedRouter, reap_children, repeat, timed

from repro.analysis import optimal_q
from repro.analysis.latency import sorn_delta_m_inter
from repro.exp import ResultCache, SweepPoint, SweepRunner, factory, get_family
from repro.exp.families import FRONTIER_SYSTEMS
from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import (
    FlowLevelModel,
    PhaseProfiler,
    SimConfig,
    SlotSimulator,
    SweepCacheCollector,
    TelemetryHub,
    clear_cube_pool,
    sample_flow_arrays,
)
from repro.topology import CliqueLayout
from repro.traffic import (
    WEB_SEARCH,
    FlowSizeDistribution,
    Workload,
    clustered_matrix,
    uniform_matrix,
)
from repro.util import ensure_rng

#: Problem sizes.  ``full`` is what BENCHMARK.json measures; ``tiny``
#: runs the same code paths in seconds, for the smoke tests.
SCALES = {
    "full": {
        "sat-1024": {"nodes": 1024, "cliques": 8, "slots": 1000, "short_slots": 60},
        "table1-4096": {
            "nodes": 4096,
            "cliques": 64,
            "flow_cliques": (64, 32),
            "flows": 1_000_000,
            "short_slots": 40,
        },
        "frontier-64": {
            "nodes": 64,
            "cliques": 8,
            "slots": 40,
            "short_slots": 10,
            "route_pairs": 10_000,
        },
    },
    "tiny": {
        "sat-1024": {"nodes": 64, "cliques": 8, "slots": 200, "short_slots": 40},
        "table1-4096": {
            "nodes": 256,
            "cliques": 16,
            "flow_cliques": (16, 8),
            "flows": 20_000,
            "short_slots": 20,
        },
        "frontier-64": {
            "nodes": 16,
            "cliques": 4,
            "slots": 100,
            "short_slots": 30,
            "route_pairs": 500,
        },
    },
}

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Fewest samples behind any other timed median, however short
#: ``--seconds`` is.
MIN_SAMPLES = 3

#: Fewest flow-model passes behind ``flows_per_s``.  A pass is two
#: pure-Python points of about 2 s each, whose walls scatter by up to
#: 20% from pass to pass on a shared host, more than the host probe
#: removes, so the median needs more of them.
MIN_FLOW_PASSES = 4

SAT_Q = 2.0
SAT_LOAD = 2.5
SAT_CELL_BYTES = 16384.0
SAT_WARMUP = 0.25  # the saturation-throughput method's warm-up share

LOCALITY = 0.56  # the paper's Table 1 operating point
TABLE1_LOAD = 0.3
TABLE1_FLOW_BYTES = 4500.0
TABLE1_CELL_BYTES = 1500.0
TABLE1_WARMUP = 0.5

FRONTIER_LOADS = (0.25, 1.3)  # the CLI's latency and saturation loads
FRONTIER_SIZE_CELLS = 60

#: PhaseProfiler phases of the vectorized engine.
ENGINE_PHASES = ("inject", "drain", "commit", "repair", "forward", "stats")

TRACE_NOTE = (
    "note: a telemetry hub that carries a PhaseProfiler collapses the "
    "engine's slot_batch to 1, so engine.*_ms_per_slot describe the "
    "unbatched slot loop, not the batched one the timed runs use"
)


class Context:
    """What one benchmark run gives its workload."""

    def __init__(self, seed, seconds, trace, scale, ledger, workers):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.ledger = ledger
        self.workers = workers
        self.notes = []
        self.samples = {}
        self.probe = HostProbe()

    def median_of(self, label, values):
        """Median of *values*, which are kept under *label* for output."""
        values = list(values)
        self.samples[label] = values
        return statistics.median(values)


class Fabric:
    """Inputs of one slot-simulator workload."""

    def __init__(self, schedule, router, flows, slots, warmup, sim_seed, short_slots):
        self.schedule = schedule
        self.router = router
        self.flows = flows
        self.slots = slots
        self.warmup = warmup
        self.sim_seed = sim_seed
        self.short_slots = short_slots

    def simulate(self, router=None, telemetry=None, engine="vectorized", slots=None):
        """One ``SlotSimulator.run``; *slots* shortens the horizon."""
        slots = slots or self.slots
        flows = self.flows
        if slots < self.slots:
            flows = [flow for flow in flows if flow.arrival_slot < slots]
        sim = SlotSimulator(
            self.schedule,
            router or self.router,
            SimConfig(engine=engine, telemetry=telemetry),
            rng=self.sim_seed,
        )
        return sim.run(flows, slots, measure_from=int(slots * self.warmup))


def clear_factory():
    """Empty every memoized builder of :mod:`repro.exp.factory`."""
    for name in factory.__all__:
        cache_clear = getattr(getattr(factory, name), "cache_clear", None)
        if cache_clear is not None:
            cache_clear()


# ---------------------------------------------------------------------------
# Slot-simulator workloads: sat-1024 and the slot part of table1-4096
# ---------------------------------------------------------------------------


def _sat_setup(cfg, seed, spans):
    n, nc = cfg["nodes"], cfg["cliques"]
    with spans("schedules.build_s"):
        layout = CliqueLayout.equal(n, nc)
        schedule = build_sorn_schedule(n, nc, q=SAT_Q, layout=layout)
    with spans("schedules.dest_table_s"):
        schedule.dest_table()
    router = SornRouter(layout)
    with spans("traffic.generate_s"):
        workload = Workload(
            uniform_matrix(n), WEB_SEARCH, load=SAT_LOAD, cell_bytes=SAT_CELL_BYTES
        )
        flows = workload.generate(cfg["slots"], rng=seed)
    return Fabric(
        schedule, router, flows, cfg["slots"], SAT_WARMUP, seed + 1, cfg["short_slots"]
    )


def _table1_setup(cfg, seed, spans):
    n, nc = cfg["nodes"], cfg["cliques"]
    q = optimal_q(LOCALITY)
    with spans("schedules.build_s"):
        schedule = build_sorn_schedule(n, nc, q=q)
    with spans("schedules.dest_table_s"):
        schedule.dest_table()
    router = SornRouter(schedule.layout)
    # Three inter-clique delivery bounds, so inter-clique flows complete.
    slots = 3 * sorn_delta_m_inter(n, nc, q)
    with spans("traffic.generate_s"):
        workload = Workload(
            clustered_matrix(schedule.layout, LOCALITY),
            FlowSizeDistribution.fixed(TABLE1_FLOW_BYTES),
            load=TABLE1_LOAD,
            cell_bytes=TABLE1_CELL_BYTES,
        )
        flows = workload.generate(slots, rng=seed)
    return Fabric(
        schedule, router, flows, slots, TABLE1_WARMUP, seed + 1, cfg["short_slots"]
    )


def _cold_setups(ctx, setup):
    """``SETUP_REPS`` cold set-ups; returns (median wall, last fabric)."""
    walls = []
    fabric = None
    for _ in range(SETUP_REPS):
        fabric = None  # never hold two fabrics at once
        gc.collect()
        wall, fabric = ctx.probe.timed(setup, ctx.scale, ctx.seed, Spans())
        walls.append(wall)
    return ctx.median_of("setup walls (s)", walls), fabric


def _check_engines(ctx, fabric):
    """The fused engine must equal the reference engine (short horizon)."""

    def both():
        return tuple(
            fabric.simulate(engine=engine, slots=fabric.short_slots)
            for engine in ("vectorized", "reference")
        )

    ctx.ledger.run(
        "fused vs reference engine",
        both,
        lambda pair: [] if pair[0] == pair[1] else ["fused report != reference report"],
    )


def _slot_runs(ctx, fabric, seconds):
    """A cold run (VOQ-cube pool emptied first, as in a fresh process),
    then warm runs repeated for *seconds*; returns (cold wall or None,
    median warm wall, report).  Every report must equal the first, which
    is pinned."""
    ledger = ctx.ledger
    first = []

    def check(out):
        if not first:
            first.append(out[1])
            return ledger.pin("slot_run", out[1].to_dict())
        return [] if out[1] == first[0] else ["report differs from the first run"]

    def run(label):
        out = ledger.run(label, lambda: ctx.probe.timed(fabric.simulate), check)
        return None if out is None else out[0]

    clear_cube_pool()
    cold = run("slot run (cold)")
    warm = repeat(lambda: run("slot run (warm)"), seconds, MIN_SAMPLES)
    if not warm:
        raise RuntimeError("no warm slot run completed")
    ctx.samples["cold slot run wall (s)"] = [cold]
    return cold, ctx.median_of("warm slot run walls (s)", warm), first[0]


def _slot_metrics(ctx, setup, seconds):
    """End-to-end or per-layer metrics of one slot-simulator workload."""
    if not ctx.trace:
        setup_s, fabric = _cold_setups(ctx, setup)
        _, warm_s, _ = _slot_runs(ctx, fabric, seconds)
        _check_engines(ctx, fabric)
        return {
            "setup_s": setup_s,
            "slots_per_s": fabric.slots / warm_s,
            "flows_per_s": len(fabric.flows) / warm_s,
            "sweep_s": warm_s,
        }

    spans = Spans()
    fabric = setup(ctx.scale, ctx.seed, spans)
    cold_s, warm_s, report = _slot_runs(ctx, fabric, seconds / 2)
    profiler = PhaseProfiler()
    router = TimedRouter(fabric.router)
    traced = ctx.ledger.run(
        "slot run (traced)",
        lambda: ctx.probe.timed(
            fabric.simulate, router=router, telemetry=TelemetryHub([profiler])
        ),
        lambda out: [] if out[1] == report else ["traced report differs from untraced"],
    )
    _check_engines(ctx, fabric)
    if traced is None:
        raise RuntimeError("traced slot run failed")
    ctx.notes.append(TRACE_NOTE)
    phases = profiler.summary()
    metrics = dict(spans.seconds)
    metrics.update(
        {
            "schedules.dest_table_mib": fabric.schedule.dest_table().nbytes / 2**20,
            "traffic.flows": len(fabric.flows),
            "traffic.cells": sum(flow.size_cells for flow in fabric.flows),
            "routing.paths_batch_s": router.seconds,
            "routing.paths": router.paths,
            "routing.us_per_path": router.seconds / max(router.paths, 1) * 1e6,
            "engine.cold_run_ratio": 0.0 if cold_s is None else cold_s / warm_s,
            "engine.cells_injected": report.injected_cells,
            "engine.cells_delivered": report.delivered_cells,
            "trace.overhead_ratio": traced[0] / warm_s,
        }
    )
    for phase in ENGINE_PHASES:
        seconds_in_phase = phases.get(phase, {}).get("seconds", 0.0)
        metrics[f"engine.{phase}_ms_per_slot"] = seconds_in_phase / fabric.slots * 1e3
    return metrics


def run_sat(ctx):
    """sat-1024: N=1024 saturated by uniform web-search traffic."""
    return _slot_metrics(ctx, _sat_setup, ctx.seconds)


# ---------------------------------------------------------------------------
# table1-4096: the slot run plus the two flow-level Table 1 points
# ---------------------------------------------------------------------------


def _flow_params(cfg, num_cliques):
    return {
        "nodes": cfg["nodes"],
        "cliques": num_cliques,
        "locality": LOCALITY,
        "load": TABLE1_LOAD,
        "flows": cfg["flows"],
    }


def _saturation_problems(value):
    """Flow-model saturation throughput must be 1/(3-x)."""
    expected = 1.0 / (3.0 - LOCALITY)
    if abs(value - expected) > 1e-9:
        return [f"saturation throughput {value!r} != 1/(3-x) = {expected!r}"]
    return []


def _flow_pass(ctx):
    """Both flow-level points through the ``flowlevel`` family, each from
    cold factory caches; returns the summed wall, or None on failure."""
    family = get_family("flowlevel")
    total = 0.0
    for nc in ctx.scale["flow_cliques"]:
        params = _flow_params(ctx.scale, nc)

        def point(params=params):
            clear_factory()
            return ctx.probe.timed(family.run, params, ctx.seed)

        def check(out, nc=nc):
            summary = out[1]
            problems = _saturation_problems(summary["saturation_throughput"])
            if not summary["stable"]:
                problems.append("Table 1 operating point reported unstable")
            return problems + ctx.ledger.pin(f"flow.nc{nc}", summary)

        out = ctx.ledger.run(f"flow model Nc={nc}", point, check)
        if out is None:
            return None
        total += out[0]
    return total


def _traced_flow_points(ctx, spans):
    """The flow points again, calling each layer directly."""
    cfg = ctx.scale
    q = optimal_q(LOCALITY)
    flows = cells = 0
    for nc in cfg["flow_cliques"]:
        with spans("schedules.build_s"):
            schedule = build_sorn_schedule(cfg["nodes"], nc, q=q)
        model = FlowLevelModel(
            schedule, SornRouter(schedule.layout), load=TABLE1_LOAD, locality=LOCALITY
        )
        with spans("traffic.sample_s"):
            srcs, dsts, sizes = sample_flow_arrays(
                schedule.layout, LOCALITY, cfg["flows"], ensure_rng(ctx.seed)
            )
        report = ctx.ledger.run(
            f"flow model Nc={nc} (traced)",
            lambda: _evaluate(model, srcs, dsts, sizes, spans),
            lambda rep: _saturation_problems(rep.saturation_throughput),
        )
        if report is None:
            raise RuntimeError("traced flow point failed")
        flows += len(srcs)
        cells += int(sizes.sum())
    return flows, cells


def _evaluate(model, srcs, dsts, sizes, spans):
    with spans("flowlevel.evaluate_s"):
        return model.evaluate(srcs, dsts, sizes)


def run_table1(ctx):
    """table1-4096: the paper's operating point, slot engine and flow model."""
    metrics = _slot_metrics(ctx, _table1_setup, ctx.seconds / 2)
    gc.collect()  # drop the slot fabric before the flow points
    num_flows = ctx.scale["flows"] * len(ctx.scale["flow_cliques"])
    if not ctx.trace:
        walls = repeat(lambda: _flow_pass(ctx), ctx.seconds / 2, MIN_FLOW_PASSES)
        if not walls:
            raise RuntimeError("no flow-model pass completed")
        metrics["flows_per_s"] = num_flows / ctx.median_of("flow pass walls (s)", walls)
        return metrics
    spans = Spans()
    flows, cells = _traced_flow_points(ctx, spans)
    for name, seconds in spans.seconds.items():
        metrics[name] = metrics.get(name, 0.0) + seconds
    metrics["traffic.flows"] += flows
    metrics["traffic.cells"] += cells
    return metrics


# ---------------------------------------------------------------------------
# frontier-64: the 14-point frontier sweep through repro.exp
# ---------------------------------------------------------------------------


def frontier_fabrics(n, nc, x):
    """``{system: (schedule, router)}`` as the ``frontier_point`` family
    builds them with its default parameters."""
    pools = (1, 1, 1, 0)  # static, rotor and demand planes; pool seed
    return {
        "rr_vlb": (factory.round_robin_schedule(n), factory.vlb_router(n)),
        "orn2d": (factory.multidim_schedule(n, 2), factory.multidim_router(n, 2)),
        "expander": (factory.expander_schedule(n, 4, 1), factory.opera_router(n, 4, 1)),
        "sorn": (factory.sorn_schedule(n, nc, optimal_q(x)), factory.sorn_router(n, nc)),
        "beyond_vlb": (factory.round_robin_schedule(n), factory.beyond_vlb_router(n, 0.6)),
        "mixed": (
            factory.mixed_pool_schedule(n, nc, x, *pools),
            factory.mixed_pool_router(n, nc, x, *pools),
        ),
        "bvn": (factory.demand_aware_schedule(n, nc, x, 4 * (n - 1)), factory.direct_router(n)),
    }


def _frontier_points(ctx):
    cfg = ctx.scale
    base = {
        "nodes": cfg["nodes"],
        "cliques": cfg["cliques"],
        "locality": LOCALITY,
        "slots": cfg["slots"],
        "size_cells": FRONTIER_SIZE_CELLS,
        "engine": "vectorized",
        "flow_seed": ctx.seed,
    }
    return [
        SweepPoint("frontier_point", dict(base, system=system, load=load), ctx.seed + 1)
        for system in FRONTIER_SYSTEMS
        for load in FRONTIER_LOADS
    ]


def _point_label(point):
    return f"{point.params['system']}.{point.params['load']}"


def _frontier_setup(ctx, spans):
    """What the sweep's points build before simulating, in-process and
    from cold factory caches: the seven fabrics with their destination
    tables and one clustered workload per point."""
    cfg = ctx.scale
    n, nc = cfg["nodes"], cfg["cliques"]
    clear_factory()
    with spans("schedules.build_s"):
        fabrics = frontier_fabrics(n, nc, LOCALITY)
    schedules = {id(schedule): schedule for schedule, _ in fabrics.values()}
    with spans("schedules.dest_table_s"):
        for schedule in schedules.values():
            schedule.dest_table()
    flows = []
    with spans("traffic.generate_s"):
        matrix = factory.clustered(n, nc, LOCALITY)
        for _ in fabrics:
            for load in FRONTIER_LOADS:
                workload = Workload(
                    matrix, FlowSizeDistribution.fixed(FRONTIER_SIZE_CELLS), load=load
                )
                flows.append(workload.generate(cfg["slots"], rng=ctx.seed))
    return fabrics, schedules, flows


class ProbedCache(ResultCache):
    """A ``ResultCache`` that splits the host probe after storing every
    second point, so a serial sweep is normalized a few points at a
    time."""

    def __init__(self, probe, root):
        super().__init__(root=root)
        self._probe = probe
        self._stored = 0

    def put(self, key, result):
        super().put(key, result)
        self._stored += 1
        if self._stored % 2 == 0:
            self._probe.split()


def _sweep(ctx, points, run_id, expected, hub, cache="cache"):
    """One journaled sweep as the CLI runs it; 14 operations.

    The result cache lives in the *cache* directory of the run's cache
    root, so a new name gives a cold sweep.  Each point is checked
    against *expected* (a list) when given, else against its pinned
    digest.  Returns (wall, results) or None.
    """
    root = os.path.join(os.environ["REPRO_CACHE_DIR"], cache)
    # Parallel results are stored while workers run: no probe then.
    store = ProbedCache(ctx.probe, root) if ctx.workers <= 1 else ResultCache(root=root)
    runner = SweepRunner(workers=ctx.workers, cache=store, telemetry=hub)
    try:
        wall, results = ctx.probe.timed(runner.run, points, run_id=run_id)
    except Exception as exc:
        for point in points:
            ctx.ledger.record_outcome(
                f"{run_id} {_point_label(point)}", [f"sweep raised {exc!r}"]
            )
        return None
    finally:
        reap_children()
    for index, point in enumerate(points):
        label = _point_label(point)
        if expected is None:
            problems = ctx.ledger.pin(f"point.{label}", results[index])
        elif expected[index] != results[index]:
            problems = ["differs from the cold sweep"]
        else:
            problems = []
        ctx.ledger.record_outcome(f"{run_id} {label}", problems)
    return wall, results


def _check_frontier_engines(ctx, points):
    """Every point on a short horizon: fused engine == reference engine."""
    family = get_family("frontier_point")
    short = ctx.scale["short_slots"]
    for point in points:

        def both(point=point):
            return tuple(
                family.run(dict(point.params, slots=short, engine=engine), point.seed)
                for engine in ("vectorized", "reference")
            )

        ctx.ledger.run(
            f"fused vs reference engine {_point_label(point)}",
            both,
            lambda pair: [] if pair[0] == pair[1] else ["fused result != reference result"],
        )


def _routing_costs(ctx, fabrics):
    """us per sampled path of each system's router on one clustered batch."""
    cfg = ctx.scale
    srcs, dsts, _ = sample_flow_arrays(
        factory.layout(cfg["nodes"], cfg["cliques"]),
        LOCALITY,
        cfg["route_pairs"],
        ensure_rng(ctx.seed),
    )
    metrics = {}
    for system, (_, router) in fabrics.items():
        rng = ensure_rng(ctx.seed)
        calls = 0
        elapsed = 0.0
        while calls == 0 or elapsed < 0.2:
            wall, _ = timed(router.paths_batch, srcs, dsts, rng)
            elapsed += wall
            calls += 1
        metrics[f"routing.us_per_path.{system}"] = elapsed / (calls * len(srcs)) * 1e6
    return metrics


def run_frontier(ctx):
    """frontier-64: seven families x two loads through a SweepRunner."""
    points = _frontier_points(ctx)
    hub = TelemetryHub([SweepCacheCollector()])
    if not ctx.trace:
        walls = []
        for _ in range(SETUP_REPS):
            wall, _ = ctx.probe.timed(_frontier_setup, ctx, Spans())
            walls.append(wall)
        clear_factory()
        gc.collect()
        names = itertools.count()
        sweeps = []

        def cold_sweep():
            # A fresh cache and run id per sweep; the first is pinned,
            # later ones must equal it.
            name = f"cold-{next(names)}"
            expected = sweeps[0][1] if sweeps else None
            clear_factory()
            out = _sweep(ctx, points, f"frontier-{name}", expected, hub, name)
            if out is not None:
                sweeps.append(out)

        repeat(cold_sweep, ctx.seconds, MIN_SAMPLES)
        if not sweeps:
            raise RuntimeError("no cold frontier sweep completed")
        results = sweeps[0][1]
        _sweep(ctx, points, "frontier-warm", results, hub, "cold-0")
        _check_frontier_engines(ctx, points)
        sweep_s = ctx.median_of("cold sweep walls (s)", (wall for wall, _ in sweeps))
        return {
            "setup_s": ctx.median_of("setup walls (s)", walls),
            "sweep_s": sweep_s,
            "slots_per_s": len(points) * ctx.scale["slots"] / sweep_s,
            "flows_per_s": sum(r["completed_flows"] for r in results) / sweep_s,
        }

    spans = Spans()
    fabrics, schedules, flows = _frontier_setup(ctx, spans)
    metrics = dict(spans.seconds)
    metrics["schedules.dest_table_mib"] = sum(
        schedule.dest_table().nbytes for schedule in schedules.values()
    ) / 2**20
    metrics["traffic.flows"] = sum(len(f) for f in flows)
    metrics["traffic.cells"] = sum(spec.size_cells for f in flows for spec in f)
    metrics.update(_routing_costs(ctx, fabrics))
    del fabrics, schedules, flows
    clear_factory()
    gc.collect()

    failed_before = ctx.ledger.failed
    cold = _sweep(ctx, points, "frontier-cold", None, hub)
    if cold is None:
        raise RuntimeError("the cold frontier sweep failed")
    sweep_s, results = cold
    warm = _sweep(ctx, points, "frontier-warm", results, hub)
    metrics["exp.failed_points"] = ctx.ledger.failed - failed_before
    metrics["exp.requeues"] = hub.get("sweep_cache").snapshot()["counts"].get("requeue", 0)
    if warm is not None:
        metrics["exp.warm_ms_per_point"] = warm[0] / len(points) * 1e3

    # Serial in-process replay, cold factory caches as in a fresh worker.
    family = get_family("frontier_point")
    total = 0.0
    for index, point in enumerate(points):
        out = ctx.ledger.run(
            f"replay {_point_label(point)}",
            lambda point=point: ctx.probe.timed(family.run, point.params, point.seed),
            lambda out, index=index: []
            if json.loads(json.dumps(out[1])) == results[index]
            else ["replay differs from the sweep"],
        )
        if out is not None:
            metrics[f"exp.point_s.{_point_label(point)}"] = out[0]
            total += out[0]
    metrics["exp.fanout_efficiency"] = total / (max(ctx.workers, 1) * sweep_s)
    return metrics


WORKLOADS = {
    "sat-1024": run_sat,
    "table1-4096": run_table1,
    "frontier-64": run_frontier,
}
