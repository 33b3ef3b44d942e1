"""Differential tests for the batched multi-seed replica fast path.

:func:`repro.sim.run_replicas` carries a replica axis through the
VOQ/schedule arrays so R seeds of one config run in a single vectorized
pass.  Its contract is bit-exactness: the R reports — and, when hubs are
attached, the full telemetry snapshots — must equal R independent
single-seed runs of either engine, on every supported configuration
axis.
"""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.routing import SornRouter, VlbRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import (
    FailureTimeline,
    SimConfig,
    SlotSimulator,
    TelemetryHub,
    run_replicas,
    standard_collectors,
)
from repro.topology import CliqueLayout
from repro.traffic import (
    FlowSizeDistribution,
    Workload,
    clustered_matrix,
    uniform_matrix,
)

SEEDS = [0, 1, 7, 42]
SLOTS = 140


def _sorn_systems(n=16, nc=4, q=3):
    layout = CliqueLayout.equal(n, nc)
    return build_sorn_schedule(n, nc, q=q, layout=layout), SornRouter(layout), layout


def _flows(matrix, slots=SLOTS, load=0.8, size=6, seed=11):
    workload = Workload(matrix, FlowSizeDistribution.fixed(size), load=load)
    return workload.generate(slots, rng=seed)


CONFIG_AXES = {
    "default": dict(),
    "per_flow": dict(per_flow_paths=True),
    "window_drain": dict(injection_window=3, drain=True, max_drain_slots=400),
    "per_flow_window": dict(
        per_flow_paths=True, injection_window=4, drain=True, max_drain_slots=400
    ),
    "short_priority": dict(short_flow_threshold_cells=4, cells_per_circuit=2),
    "drain": dict(drain=True, max_drain_slots=400),
    "chunked": dict(presample_chunk_cells=13),
    "chunked_per_flow": dict(
        per_flow_paths=True,
        presample_chunk_cells=5,
        drain=True,
        max_drain_slots=400,
    ),
}


def _solo_reports(schedule, router, config, flows, seeds, hubs=None, timeline=None):
    reports = []
    for i, seed in enumerate(seeds):
        solo_config = config
        if hubs is not None:
            solo_config = dataclasses.replace(config, telemetry=hubs[i])
        sim = SlotSimulator(
            schedule, router, solo_config, rng=seed, timeline=timeline
        )
        reports.append(
            sim.run(flows, SLOTS, measure_from=SLOTS // 2)
        )
    return reports


#: Drain tiers of the vectorized engine (see the ``drain_tier`` fixture).
DRAIN_TIERS = ["numpy", "sequential"]


@pytest.mark.parametrize("axis", sorted(CONFIG_AXES))
@pytest.mark.parametrize("drain_tier", DRAIN_TIERS, indirect=True)
def test_replicas_match_independent_runs(axis, drain_tier):
    """Batched reports equal R independent vectorized runs, per axis and
    per drain tier of the solo runs."""
    schedule, router, layout = _sorn_systems()
    flows = _flows(clustered_matrix(layout, 0.7))
    config = SimConfig(engine="vectorized", **CONFIG_AXES[axis])
    batched = run_replicas(
        schedule, router, config, flows, SLOTS, SEEDS, measure_from=SLOTS // 2
    )
    solo = _solo_reports(schedule, router, config, flows, SEEDS)
    assert batched == solo
    assert any(r.delivered_cells > 0 for r in batched)


def test_replicas_match_reference_engine():
    """And the reference engine: batched == R object-loop runs."""
    schedule, router, layout = _sorn_systems()
    flows = _flows(clustered_matrix(layout, 0.7))
    seeds = SEEDS[:2]
    batched = run_replicas(
        schedule,
        router,
        SimConfig(engine="vectorized"),
        flows,
        SLOTS,
        seeds,
        measure_from=SLOTS // 2,
    )
    solo = _solo_reports(
        schedule, router, SimConfig(engine="reference"), flows, seeds
    )
    assert batched == solo


def test_replicas_chunked_presampling_matches_reference():
    """A tiny presample chunk through the replica entry point still
    equals the reference engine: chunk size stays invisible across the
    batched path too."""
    schedule, router, layout = _sorn_systems()
    flows = _flows(clustered_matrix(layout, 0.7))
    seeds = SEEDS[:2]
    batched = run_replicas(
        schedule,
        router,
        SimConfig(engine="vectorized", presample_chunk_cells=3),
        flows,
        SLOTS,
        seeds,
        measure_from=SLOTS // 2,
    )
    solo = _solo_reports(
        schedule, router, SimConfig(engine="reference"), flows, seeds
    )
    assert batched == solo


def test_replicas_on_flat_orn():
    schedule = RoundRobinSchedule(16, num_planes=2)
    router = VlbRouter(16)
    flows = _flows(uniform_matrix(16), load=0.5)
    config = SimConfig(engine="vectorized", cells_per_circuit=1, drain=True)
    batched = run_replicas(
        schedule, router, config, flows, SLOTS, SEEDS, measure_from=SLOTS // 2
    )
    assert batched == _solo_reports(schedule, router, config, flows, SEEDS)


def test_replicas_telemetry_snapshots_bit_identical():
    """Per-replica hubs see exactly what solo-run hubs see."""
    schedule, router, layout = _sorn_systems()
    flows = _flows(clustered_matrix(layout, 0.7))
    seeds = SEEDS[:3]

    def hubs():
        return [
            TelemetryHub(
                standard_collectors(schedule, layout=layout, bucket_slots=20)
            )
            for _ in seeds
        ]

    batch_hubs, solo_hubs = hubs(), hubs()
    config = SimConfig(engine="vectorized")
    batched = run_replicas(
        schedule,
        router,
        config,
        flows,
        SLOTS,
        seeds,
        measure_from=SLOTS // 2,
        telemetry=batch_hubs,
    )
    solo = _solo_reports(schedule, router, config, flows, seeds, hubs=solo_hubs)
    assert batched == solo
    for batch_hub, solo_hub in zip(batch_hubs, solo_hubs):
        assert batch_hub.snapshot() == solo_hub.snapshot()


def test_replicas_under_failure_timeline():
    schedule, router, layout = _sorn_systems()
    flows = _flows(clustered_matrix(layout, 0.6), load=0.5)
    timeline = FailureTimeline.node_failure(0, 30, 90)
    config = SimConfig(engine="vectorized")
    batched = run_replicas(
        schedule,
        router,
        config,
        flows,
        SLOTS,
        SEEDS[:2],
        measure_from=SLOTS // 2,
        timeline=timeline,
    )
    solo = _solo_reports(
        schedule, router, config, flows, SEEDS[:2], timeline=timeline
    )
    assert batched == solo


def test_replicas_reports_are_json_safe():
    schedule, router, layout = _sorn_systems()
    flows = _flows(clustered_matrix(layout, 0.7))
    [report] = run_replicas(
        schedule, router, SimConfig(), flows, SLOTS, SEEDS[:1]
    )
    roundtrip = type(report).from_dict(report.to_dict())
    assert roundtrip == report
    assert isinstance(report.mean_occupancy, float)
    assert isinstance(report.max_voq, int)


class TestValidation:
    def test_empty_seeds(self):
        schedule, router, layout = _sorn_systems()
        assert run_replicas(schedule, router, SimConfig(), [], 10, []) == []

    def test_telemetry_length_mismatch(self):
        schedule, router, layout = _sorn_systems()
        with pytest.raises(SimulationError, match="telemetry"):
            run_replicas(
                schedule,
                router,
                SimConfig(),
                [],
                10,
                [0, 1],
                telemetry=[TelemetryHub([])],
            )

    def test_invariant_checking_unsupported(self):
        schedule, router, layout = _sorn_systems()
        with pytest.raises(SimulationError):
            run_replicas(
                schedule,
                router,
                SimConfig(check_invariants=True),
                [],
                10,
                [0],
            )

    def test_config_telemetry_unsupported(self):
        schedule, router, layout = _sorn_systems()
        with pytest.raises(SimulationError):
            run_replicas(
                schedule,
                router,
                SimConfig(telemetry=TelemetryHub([])),
                [],
                10,
                [0],
            )

    def test_measure_from_out_of_range(self):
        schedule, router, layout = _sorn_systems()
        with pytest.raises(SimulationError):
            run_replicas(
                schedule, router, SimConfig(), [], 10, [0], measure_from=11
            )

    def test_node_count_mismatch(self):
        schedule, _, _ = _sorn_systems()
        with pytest.raises(SimulationError):
            run_replicas(schedule, VlbRouter(8), SimConfig(), [], 10, [0])
