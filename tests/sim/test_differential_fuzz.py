"""Cross-engine differential fuzz harness (hypothesis-driven).

Randomizes the full configuration space the engines support — all six
schedule/routing families (round-robin+VLB, SORN, Opera expander,
beyond-VLB, BvN demand-aware, Cerberus-style mixed pool), fabric size,
router (optionally wrapped in the failure-aware fallback), simulator
knobs, failure timelines, and workloads — and asserts the reference and
vectorized engines produce *identical* reports and traces.

Lean examples sometimes drop the tracer too, and some examples force the
vectorized engine's sequential kernel tier
(:func:`repro.sim.kernels.drain_plane_seq`) for every plane, so that
tier is compared on every plane shape, not only on cascade slots.

Each example also draws a ``lean`` bit.  Instrumented examples carry the
:class:`repro.sim.invariants.InvariantChecker` plus the full shipped
telemetry collector set
(:func:`repro.sim.telemetry.standard_collectors`), and the assertion
extends to the telemetry layer: both engines must produce equal
``snapshot()`` dictionaries and byte-identical ``dumps_jsonl()``
streams — including under active failure timelines, where rerouting and
plane outages reshape every stream the collectors observe.  Lean
examples attach *no* event consumers, which routes the vectorized
engine through its fastest drain tiers (vectorized commit with in-place
cascade repair) — the code paths instrumented runs can never reach.

Profiles
--------
``default`` (local ``pytest``) runs a quick randomized sample.  The CI
fuzz lane selects the 200-example fixed-seed budget with::

    HYPOTHESIS_PROFILE=ci-fuzz pytest tests/sim/test_differential_fuzz.py

``derandomize=True`` makes that budget reproducible run-to-run.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import (
    BeyondVlbRouter,
    DirectRouter,
    FailureAwareRouter,
    MixedPoolRouter,
    OperaRouter,
    SornRouter,
    VlbRouter,
)
from repro.schedules import (
    DemandAwareSchedule,
    ExpanderSchedule,
    MixedPoolSchedule,
    RoundRobinSchedule,
    build_sorn_schedule,
)
from repro.sim import (
    FailureEvent,
    FailureTimeline,
    SimConfig,
    SlotSimulator,
    TelemetryHub,
    TraceRecorder,
    standard_collectors,
)
from repro.sim.vectorized import VectorizedSession
from repro.traffic import FlowSpec

_HEALTH = [
    HealthCheck.too_slow,
    HealthCheck.data_too_large,
    HealthCheck.filter_too_much,
]
settings.register_profile(
    "default", max_examples=25, deadline=None, suppress_health_check=_HEALTH
)
settings.register_profile(
    "ci-fuzz",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=_HEALTH,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

pytestmark = pytest.mark.fuzz


FAMILIES = ("round_robin", "sorn", "expander", "beyond_vlb", "demand_aware", "mixed")


def _random_demand(n, seed):
    """A dense positive off-diagonal demand matrix (Sinkhorn-scalable)."""
    rng = np.random.default_rng(seed)
    demand = rng.random((n, n)) + 0.05
    np.fill_diagonal(demand, 0.0)
    return demand


@st.composite
def fabrics(draw):
    """A (schedule, base router, allowed_pairs) triple across every family.

    ``allowed_pairs`` is None for families whose router can reach any
    pair; the demand-aware family restricts workloads to pairs the
    quantized BvN schedule actually connects — its direct-only router
    cannot deliver the rest, and undeliverable flows would just pin the
    drain loop (identically in both engines, but without exercising the
    differential contract).
    """
    family = draw(st.sampled_from(FAMILIES))
    if family == "round_robin":
        n = draw(st.integers(4, 18))
        planes = draw(st.integers(1, 3))
        return RoundRobinSchedule(n, num_planes=planes), VlbRouter(n), None
    if family == "sorn":
        num_cliques = draw(st.sampled_from([2, 3, 4]))
        clique_size = draw(st.sampled_from([2, 3, 4]))
        q = draw(st.sampled_from([1, 2, 3]))
        planes = draw(st.integers(1, 2))
        schedule = build_sorn_schedule(
            num_cliques * clique_size, num_cliques, q=q, num_planes=planes
        )
        return schedule, SornRouter(schedule.layout), None
    if family == "expander":
        n = draw(st.integers(6, 12))
        rotors = draw(st.integers(2, 4))
        schedule = ExpanderSchedule(n, rotors, seed=draw(st.integers(0, 3)))
        return schedule, OperaRouter(schedule), None
    if family == "beyond_vlb":
        n = draw(st.integers(4, 14))
        planes = draw(st.integers(1, 2))
        beta = draw(st.sampled_from([0.0, 0.4, 0.75, 1.0]))
        schedule = RoundRobinSchedule(n, num_planes=planes)
        return schedule, BeyondVlbRouter(n, beta), None
    if family == "demand_aware":
        n = draw(st.integers(4, 8))
        period = draw(st.integers(n - 1, 2 * n))
        schedule = DemandAwareSchedule.from_demand(
            _random_demand(n, draw(st.integers(0, 2**10))), period
        )
        return schedule, DirectRouter(n), sorted(schedule.connected_pairs())
    assert family == "mixed"
    n = draw(st.integers(5, 10))
    static = draw(st.integers(0, 2))
    rotor = draw(st.integers(0 if static else 1, 2))
    demand_planes = draw(st.integers(0, 1))
    schedule = MixedPoolSchedule(
        n,
        static_planes=static,
        rotor_planes=rotor,
        demand_planes=demand_planes,
        demand=_random_demand(n, draw(st.integers(0, 2**10)))
        if demand_planes
        else None,
        seed=draw(st.integers(0, 3)),
    )
    return schedule, MixedPoolRouter(schedule), None


@st.composite
def timelines(draw, num_nodes, num_planes):
    events = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["node", "link", "plane"]))
        start = draw(st.integers(0, 60))
        heal = draw(st.one_of(st.none(), st.integers(start + 1, start + 80)))
        if kind == "node":
            events.append(
                FailureEvent("node", start, heal, node=draw(st.integers(0, num_nodes - 1)))
            )
        elif kind == "link":
            u = draw(st.integers(0, num_nodes - 1))
            v = draw(st.integers(0, num_nodes - 2))
            if v >= u:
                v += 1
            events.append(FailureEvent("link", start, heal, link=(u, v)))
        else:
            events.append(
                FailureEvent("plane", start, heal, plane=draw(st.integers(0, num_planes - 1)))
            )
    return FailureTimeline(events)


@st.composite
def workloads(draw, num_nodes, pairs=None):
    flows = []
    for flow_id in range(draw(st.integers(1, 18))):
        if pairs is None:
            src = draw(st.integers(0, num_nodes - 1))
            dst = draw(st.integers(0, num_nodes - 2))
            if dst >= src:
                dst += 1
        else:
            src, dst = draw(st.sampled_from(pairs))
        size = draw(st.integers(1, 6))
        arrival = draw(st.integers(0, 30))
        flows.append(FlowSpec(flow_id, src, dst, size, arrival))
    return flows


@st.composite
def scenarios(draw):
    schedule, router, pairs = draw(fabrics())
    timeline = draw(timelines(schedule.num_nodes, schedule.num_planes))
    failed = timeline.failed_nodes_ever()
    use_failover = bool(failed) and draw(st.booleans())
    if use_failover:
        router = FailureAwareRouter(router, failed)
    flows = draw(workloads(schedule.num_nodes, pairs))
    if use_failover:
        # Discard the rare scenario where the failed set exhausts every
        # path option of some pair (both engines would raise identically,
        # but the example would not exercise the differential contract).
        try:
            for spec in flows:
                router.path_options(spec.src, spec.dst)
        except RoutingError:
            assume(False)
    # ``lean`` drops the invariant checker and telemetry entirely: with
    # no event consumers attached the vectorized engine takes its fastest
    # drain tiers (vectorized commit + in-place cascade repair), which
    # the fully-instrumented runs never reach.  Both halves of the config
    # space must agree with the reference engine bit-for-bit.
    lean = draw(st.booleans())
    config = dict(
        cells_per_circuit=draw(st.integers(1, 3)),
        per_flow_paths=draw(st.booleans()),
        injection_window=draw(st.one_of(st.none(), st.integers(1, 4))),
        drain=True,
        max_drain_slots=draw(st.sampled_from([50, 150, 300])),
        short_flow_threshold_cells=draw(st.one_of(st.none(), st.just(2))),
        check_invariants=not lean,
    )
    # Lean examples sometimes drop the tracer too, so a run with no
    # observer at all is compared on its report alone.  force_seq drains
    # every vectorized plane through the sequential kernel tier.
    traced = True if not lean else draw(st.booleans())
    force_seq = draw(st.booleans())
    duration = draw(st.integers(40, 120))
    seed = draw(st.integers(0, 2**16))
    return (
        schedule, router, timeline, flows, config, duration, seed, lean,
        traced, force_seq,
    )


def _always_seq(self, slot, plane, srcs, dsts, dst_row):
    """Stand-in for ``VectorizedSession._drain_plane`` that sends every
    plane through the sequential kernel tier."""
    return self._drain_seq(slot, plane, srcs, dsts)


def _run(
    engine, schedule, router, timeline, flows, config, duration, seed, lean,
    traced, force_seq,
):
    hub = (
        None
        if lean
        else TelemetryHub(standard_collectors(schedule, bucket_slots=25), stride=3)
    )
    sim = SlotSimulator(
        schedule,
        router,
        SimConfig(engine=engine, telemetry=hub, **config),
        rng=np.random.default_rng(seed),
        timeline=timeline,
    )
    tracer = TraceRecorder(stride=7) if traced else None
    with pytest.MonkeyPatch.context() as mp:
        if force_seq and engine == "vectorized":
            mp.setattr(VectorizedSession, "_drain_plane", _always_seq)
        report = sim.run(flows, duration, tracer=tracer)
    return report, tracer, hub


class TestDifferentialFuzz:
    @given(scenario=scenarios())
    def test_engines_agree_under_fuzz(self, scenario):
        """Any supported configuration — including active failure
        timelines and failure-aware routing — must produce bit-identical
        reports, traces, and telemetry streams from both engines, with
        every slot passing the invariant checker."""
        (
            schedule, router, timeline, flows, config, duration, seed, lean,
            traced, force_seq,
        ) = scenario
        ref_report, ref_trace, ref_hub = _run(
            "reference", schedule, router, timeline, flows, config, duration,
            seed, lean, traced, force_seq,
        )
        vec_report, vec_trace, vec_hub = _run(
            "vectorized", schedule, router, timeline, flows, config, duration,
            seed, lean, traced, force_seq,
        )
        assert vec_report == ref_report
        if traced:
            assert vec_trace.points == ref_trace.points
        if not lean:
            assert vec_hub.snapshot() == ref_hub.snapshot()
            assert vec_hub.dumps_jsonl() == ref_hub.dumps_jsonl()
