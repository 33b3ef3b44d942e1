"""Failure injection: masked schedules, failure timelines, blast radius."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.routing import SornRouter, VlbRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import (
    FailedNodeSchedule,
    FailureEvent,
    FailureTimeline,
    SimConfig,
    SlotSimulator,
    split_casualties,
)
from repro.traffic import FlowSizeDistribution, FlowSpec, Workload, uniform_matrix


class TestFailedNodeSchedule:
    def test_failed_node_never_connected(self):
        schedule = FailedNodeSchedule(RoundRobinSchedule(8), [3])
        for slot in range(schedule.period):
            m = schedule.matching(slot)
            assert m.destination(3) == -1
            assert m.source(3) == -1

    def test_other_circuits_survive(self):
        schedule = FailedNodeSchedule(RoundRobinSchedule(8), [3])
        healthy = RoundRobinSchedule(8)
        for slot in range(schedule.period):
            masked = schedule.matching(slot)
            original = healthy.matching(slot)
            for src, dst in original.pairs():
                if 3 not in (src, dst):
                    assert masked.destination(src) == dst

    def test_multiple_failures(self):
        schedule = FailedNodeSchedule(RoundRobinSchedule(8), [1, 5])
        for slot in range(3):
            m = schedule.matching(slot)
            assert m.destination(1) == -1 and m.destination(5) == -1

    def test_rejects_empty_failure_set(self):
        with pytest.raises(SimulationError):
            FailedNodeSchedule(RoundRobinSchedule(8), [])

    def test_rejects_out_of_range(self):
        with pytest.raises(SimulationError):
            FailedNodeSchedule(RoundRobinSchedule(8), [9])

    def test_rejects_total_failure(self):
        with pytest.raises(SimulationError):
            FailedNodeSchedule(RoundRobinSchedule(3), [0, 1])

    def test_plane_matching_masked(self):
        schedule = FailedNodeSchedule(RoundRobinSchedule(9, num_planes=3), [2])
        assert schedule.plane_matching(0, 2).destination(2) == -1

    def test_multi_plane_masks_agree(self):
        """Regression: the combined ``matching`` view must equal the union
        of the per-plane masked views at every slot, for every plane count
        (the mask is applied per-matching, so the two entry points can
        drift if the mask ever depends on mutable per-call state)."""
        def expect_masked(raw):
            return [
                -1 if {src, raw.destination(src)} & {1, 7} else raw.destination(src)
                for src in range(12)
            ]

        for planes in (1, 2, 3):
            inner = RoundRobinSchedule(12, num_planes=planes)
            schedule = FailedNodeSchedule(inner, [1, 7])
            for slot in range(schedule.period):
                combined = schedule.matching(slot)
                assert list(combined.dst) == expect_masked(inner.matching(slot))
                for plane in range(planes):
                    masked = schedule.plane_matching(slot, plane)
                    raw = inner.plane_matching(slot, plane)
                    assert list(masked.dst) == expect_masked(raw)
                assert combined.destination(1) == -1
                assert combined.destination(7) == -1

    def test_mask_does_not_mutate_inner(self):
        inner = RoundRobinSchedule(8)
        before = inner.matching(0).dst.copy()
        FailedNodeSchedule(inner, [3]).matching(0)
        assert np.array_equal(inner.matching(0).dst, before)


class TestSplitCasualties:
    def test_partition(self):
        flows = [
            FlowSpec(0, 0, 3, 1, 0),
            FlowSpec(1, 3, 5, 1, 0),
            FlowSpec(2, 1, 2, 1, 0),
        ]
        casualties, bystanders = split_casualties(flows, [3])
        assert [f.flow_id for f in casualties] == [0, 1]
        assert [f.flow_id for f in bystanders] == [2]

    def test_empty_flow_list(self):
        casualties, bystanders = split_casualties([], [3])
        assert casualties == [] and bystanders == []

    def test_all_flows_casualties(self):
        flows = [FlowSpec(0, 2, 4, 1, 0), FlowSpec(1, 4, 2, 1, 0)]
        casualties, bystanders = split_casualties(flows, [2, 4])
        assert [f.flow_id for f in casualties] == [0, 1]
        assert bystanders == []

    def test_duplicate_failed_ids(self):
        flows = [FlowSpec(0, 0, 3, 1, 0), FlowSpec(1, 1, 2, 1, 0)]
        once = split_casualties(flows, [3])
        twice = split_casualties(flows, [3, 3, 3])
        assert [f.flow_id for f in once[0]] == [f.flow_id for f in twice[0]] == [0]
        assert [f.flow_id for f in once[1]] == [f.flow_id for f in twice[1]] == [1]


class TestFailureEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SimulationError):
            FailureEvent("switch", 0, node=1)

    def test_rejects_negative_start(self):
        with pytest.raises(SimulationError):
            FailureEvent("node", -1, node=1)

    def test_rejects_heal_before_start(self):
        with pytest.raises(SimulationError):
            FailureEvent("node", 10, heal_slot=10, node=1)

    def test_rejects_missing_target(self):
        with pytest.raises(SimulationError):
            FailureEvent("link", 0)

    def test_rejects_mismatched_target(self):
        with pytest.raises(SimulationError):
            FailureEvent("node", 0, node=1, plane=0)

    def test_rejects_self_link(self):
        with pytest.raises(SimulationError):
            FailureEvent("link", 0, link=(4, 4))

    def test_active_window(self):
        e = FailureEvent("node", 10, heal_slot=20, node=1)
        assert not e.active_at(9)
        assert e.active_at(10) and e.active_at(19)
        assert not e.active_at(20)

    def test_never_heals(self):
        e = FailureEvent("plane", 5, plane=0)
        assert not e.active_at(4)
        assert e.active_at(5) and e.active_at(10**6)


class TestFailureTimeline:
    def test_parse_round_trip(self):
        tl = FailureTimeline.parse("node:3@100-500, link:2-7@50 ,plane:1@10-20")
        assert len(tl) == 3
        node, link, plane = tl.events
        assert (node.kind, node.node, node.start_slot, node.heal_slot) == (
            "node", 3, 100, 500,
        )
        assert (link.kind, link.link, link.start_slot, link.heal_slot) == (
            "link", (2, 7), 50, None,
        )
        assert (plane.kind, plane.plane, plane.start_slot, plane.heal_slot) == (
            "plane", 1, 10, 20,
        )

    def test_parse_defaults_whole_run(self):
        (event,) = FailureTimeline.parse("node:5").events
        assert event.start_slot == 0 and event.heal_slot is None

    def test_parse_empty_spec(self):
        assert len(FailureTimeline.parse("")) == 0

    @pytest.mark.parametrize(
        "spec", ["rack:1@0", "node:x@0", "link:3@0", "node:1@a-b", "node:1@5-5"]
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(SimulationError):
            FailureTimeline.parse(spec)

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("node3", "missing ':' between kind and target in 'node3'"),
            ("gpu:1@0", "unknown failure kind 'gpu'"),
            ("node:x@0", "node target 'x' is not an integer"),
            ("plane:z", "plane target 'z' is not an integer"),
            ("link:3@0", "link target '3' must name a node pair 'u-v'"),
            ("link:a-2", "link endpoint 'a' is not an integer"),
            ("link:1-b", "link endpoint 'b' is not an integer"),
            ("node:1@ten", "start slot 'ten' is not an integer"),
            ("node:1@5-y", "heal slot 'y' is not an integer"),
        ],
    )
    def test_parse_error_names_offending_token(self, spec, fragment):
        with pytest.raises(SimulationError, match="bad failure spec") as exc:
            FailureTimeline.parse(spec)
        assert fragment in str(exc.value)

    def test_parse_error_reports_character_position(self):
        # The second entry starts after "node:1@5," (9 chars) plus one
        # leading space.
        with pytest.raises(SimulationError) as exc:
            FailureTimeline.parse("node:1@5, rack:2")
        message = str(exc.value)
        assert "at character 10" in message
        assert "entry 'rack:2'" in message

    def test_parse_error_quotes_full_entry(self):
        with pytest.raises(SimulationError) as exc:
            FailureTimeline.parse("link:1-2@5,node:oops@9-12")
        assert "entry 'node:oops@9-12'" in str(exc.value)

    def test_affects_window(self):
        tl = FailureTimeline.parse("node:1@10-20,link:0-2@15-30")
        assert not tl.affects(9)
        assert tl.affects(10) and tl.affects(29)
        assert not tl.affects(30)

    def test_affects_never_with_no_events(self):
        assert not FailureTimeline().affects(0)

    def test_merged(self):
        tl = FailureTimeline.node_failure(1).merged(FailureTimeline.plane_failure(0))
        assert [e.kind for e in tl.events] == ["node", "plane"]

    def test_failed_nodes_queries(self):
        tl = FailureTimeline.parse("node:1@10-20,node:4@15,link:2-3@0")
        assert tl.failed_nodes_at(5) == frozenset()
        assert tl.failed_nodes_at(16) == {1, 4}
        assert tl.failed_nodes_at(25) == {4}
        assert tl.failed_nodes_ever() == {1, 4}

    def test_bind_rejects_out_of_range(self):
        schedule = RoundRobinSchedule(8, num_planes=2)
        for spec in ("node:8", "link:0-9", "plane:2"):
            with pytest.raises(SimulationError):
                FailureTimeline.parse(spec).bind(schedule)
        FailureTimeline.parse("node:7,link:0-7,plane:1").bind(schedule)

    def test_node_mask_matches_failed_node_schedule(self):
        """A whole-run node failure must mask exactly like the static
        schedule wrapper on every slot and plane."""
        inner = RoundRobinSchedule(10, num_planes=2)
        static = FailedNodeSchedule(inner, [4])
        tl = FailureTimeline.node_failure(4)
        for slot in range(inner.period):
            for plane in range(2):
                raw = inner.plane_matching(slot, plane)
                masked = tl.mask_matching(raw, slot, plane)
                assert np.array_equal(
                    masked.dst, static.plane_matching(slot, plane).dst
                )

    def test_link_mask_kills_both_directions(self):
        inner = RoundRobinSchedule(6)
        tl = FailureTimeline.link_failure(0, 1)
        hit_forward = hit_reverse = False
        for slot in range(inner.period):
            raw = inner.matching(slot)
            masked = tl.mask_matching(raw, slot, 0)
            if raw.destination(0) == 1:
                hit_forward = True
                assert masked.destination(0) == -1
            if raw.destination(1) == 0:
                hit_reverse = True
                assert masked.destination(1) == -1
            for src in range(6):
                if raw.destination(src) not in (0, 1) or src not in (0, 1):
                    if {src, raw.destination(src)} != {0, 1}:
                        assert masked.destination(src) == raw.destination(src)
        assert hit_forward and hit_reverse

    def test_plane_mask_scoped_to_plane(self):
        inner = RoundRobinSchedule(9, num_planes=3)
        tl = FailureTimeline.plane_failure(1)
        raw0 = inner.plane_matching(0, 0)
        raw1 = inner.plane_matching(0, 1)
        assert tl.mask_matching(raw0, 0, 0) is raw0  # untouched plane
        assert np.all(tl.mask_matching(raw1, 0, 1).dst == -1)

    def test_mask_is_identity_outside_window(self):
        inner = RoundRobinSchedule(8)
        tl = FailureTimeline.node_failure(2, start_slot=10, heal_slot=20)
        raw = inner.matching(0)
        assert tl.mask_matching(raw, 5, 0) is raw
        assert tl.mask_matching(raw, 20, 0) is raw
        assert tl.mask_matching(raw, 15, 0) is not raw

    def test_mask_dst_row_agrees_with_mask_matching(self):
        inner = RoundRobinSchedule(10, num_planes=2)
        tl = FailureTimeline.parse("node:3@0,link:0-5@0,plane:1@2-4")
        table = inner.dest_table()
        for slot in range(inner.period):
            for plane in range(2):
                row = table[slot % inner.period, plane]
                matching = inner.plane_matching(slot, plane)
                assert np.array_equal(
                    tl.mask_dst_row(row, slot, plane),
                    tl.mask_matching(matching, slot, plane).dst,
                )

    def test_rejects_non_event(self):
        with pytest.raises(SimulationError):
            FailureTimeline(["node:1"])


class TestTimelineSimulation:
    def _flows(self, n, count, size=6):
        return [
            FlowSpec(i, i % n, (i + 1 + i // n) % n, size, i % 5)
            for i in range(count)
        ]

    def test_transient_failure_heals(self):
        """Traffic stalled by a transient node failure completes after the
        heal; the same run without drain headroom loses those flows."""
        n = 8
        schedule = RoundRobinSchedule(n)
        flows = self._flows(n, 24)
        tl = FailureTimeline.node_failure(2, start_slot=0, heal_slot=120)
        sim = SlotSimulator(
            schedule,
            VlbRouter(n),
            SimConfig(drain=True, max_drain_slots=400, check_invariants=True),
            rng=3,
            timeline=tl,
        )
        report = sim.run(flows, 200)
        assert report.completion_ratio == 1.0

    def test_permanent_failure_strands_casualties(self):
        n = 8
        schedule = RoundRobinSchedule(n)
        flows = self._flows(n, 24)
        casualties, _ = split_casualties(flows, [2])
        assert casualties  # scenario must actually include casualties
        tl = FailureTimeline.node_failure(2)
        sim = SlotSimulator(
            schedule,
            VlbRouter(n),
            SimConfig(drain=True, max_drain_slots=200),
            rng=3,
            timeline=tl,
        )
        report = sim.run(flows, 200)
        done = report.flow_completion_slots
        assert all(done[f.flow_id] == -1 for f in casualties)

    @pytest.mark.parametrize("tier", ["numpy", "sequential"])
    def test_engines_agree_across_failure_edges(self, tier, monkeypatch):
        """A fault that starts and heals mid-run masks exactly the same
        slots in both engines, in the fused walk and in the sequential
        kernel tier (forced here even without numba: the plain Python
        build of the same kernel body)."""
        import repro.sim.vectorized as vectorized_mod

        n = 12
        schedule = build_sorn_schedule(n, 3, q=1)
        rng = np.random.default_rng(3)
        flows = []
        for fid in range(70):
            src = int(rng.integers(n))
            dst = int(rng.integers(n - 1))
            if dst >= src:
                dst += 1
            flows.append(
                FlowSpec(fid, src, dst, int(rng.integers(1, 6)), int(rng.integers(100)))
            )
        tl = FailureTimeline.node_failure(2, start_slot=13, heal_slot=41)
        reports = {}
        for engine in ("reference", "vectorized"):
            kernels = "numpy"
            if engine == "vectorized" and tier == "sequential":
                kernels = "numba"
                monkeypatch.setattr(vectorized_mod, "HAVE_NUMBA", True)
            reports[engine] = SlotSimulator(
                schedule,
                SornRouter(schedule.layout),
                SimConfig(engine=engine, kernels=kernels),
                rng=17,
                timeline=tl,
            ).run(flows, 100, measure_from=50)
        assert reports["vectorized"] == reports["reference"]
        assert reports["reference"].delivered_cells > 0

    def test_empty_timeline_is_identity(self):
        n = 8
        schedule = RoundRobinSchedule(n)
        flows = self._flows(n, 16)
        config = SimConfig(drain=True, max_drain_slots=200)
        plain = SlotSimulator(schedule, VlbRouter(n), config, rng=7).run(flows, 100)
        masked = SlotSimulator(
            schedule, VlbRouter(n), config, rng=7, timeline=FailureTimeline()
        ).run(flows, 100)
        assert plain == masked


class TestBlastRadiusSimulation:
    def _run(self, schedule, router, flows, slots=600):
        sim = SlotSimulator(
            schedule, router, SimConfig(drain=True, max_drain_slots=300), rng=5
        )
        return sim.run(flows, slots)

    def test_flat_design_collateral_damage(self):
        """On a flat VLB fabric a failed node stalls bystander flows that
        sampled it as their intermediate."""
        n = 12
        wl = Workload(uniform_matrix(n), FlowSizeDistribution.fixed(3000), load=0.2)
        flows = wl.generate(600, rng=8)
        _, bystanders = split_casualties(flows, [0])
        schedule = FailedNodeSchedule(RoundRobinSchedule(n), [0])
        report = self._run(schedule, VlbRouter(n), bystanders)
        assert report.completion_ratio < 1.0  # collateral damage exists

    def test_sorn_remote_cliques_unharmed(self):
        """SORN: flows entirely within cliques that neither contain the
        failed node nor relay via its position complete untouched."""
        n, nc = 16, 4
        schedule = build_sorn_schedule(n, nc, q=2)
        failed = 0  # clique 0
        masked = FailedNodeSchedule(schedule, [failed])
        router = SornRouter(schedule.layout)
        # Intra flows of clique 2 (nodes 8..11): never touch node 0.
        flows = [
            FlowSpec(i, 8 + (i % 4), 8 + ((i + 1) % 4), 4, i)
            for i in range(20)
        ]
        report = self._run(masked, router, flows)
        assert report.completion_ratio == 1.0

    def test_sorn_collateral_smaller_than_flat_under_locality(self):
        """Empirical blast radius on the structured traffic SORN targets:
        bystander completion under one failure is higher on SORN, whose
        remote cliques never relay through the failed node (section 6's
        modularity argument).  On fully uniform traffic the comparison
        flattens out — SORN's 3-hop inter paths touch as many relays as
        VLB — so the claim is specifically about structured demand."""
        from repro.topology import CliqueLayout
        from repro.traffic import clustered_matrix

        n, nc = 16, 4
        layout = CliqueLayout.equal(n, nc)
        wl = Workload(
            clustered_matrix(layout, 0.8), FlowSizeDistribution.fixed(3000),
            load=0.15,
        )
        flows = wl.generate(500, rng=9)
        _, bystanders = split_casualties(flows, [0])

        flat = self._run(
            FailedNodeSchedule(RoundRobinSchedule(n), [0]),
            VlbRouter(n),
            bystanders,
        )
        sorn_schedule = build_sorn_schedule(n, nc, q=2, layout=layout)
        sorn = self._run(
            FailedNodeSchedule(sorn_schedule, [0]),
            SornRouter(layout),
            bystanders,
        )
        assert sorn.completion_ratio > flat.completion_ratio


def _events():
    """Hypothesis strategy for valid FailureEvents (non-negative ids).

    spec() round-trips exactly the timelines parse() can express:
    non-negative node/plane/link ids (a negative link endpoint would
    collide with the 'u-v' separator).
    """
    windows = st.one_of(
        st.just((0, None)),
        st.tuples(st.integers(0, 10_000), st.none()),
        st.integers(0, 10_000).flatmap(
            lambda s: st.tuples(
                st.just(s), st.integers(s + 1, s + 10_000)
            )
        ),
    )
    nodes = st.builds(
        lambda n, w: FailureEvent(
            kind="node", node=n, start_slot=w[0], heal_slot=w[1]
        ),
        st.integers(0, 4096),
        windows,
    )
    planes = st.builds(
        lambda p, w: FailureEvent(
            kind="plane", plane=p, start_slot=w[0], heal_slot=w[1]
        ),
        st.integers(0, 64),
        windows,
    )
    links = st.builds(
        lambda u, v, w: FailureEvent(
            kind="link", link=(u, v), start_slot=w[0], heal_slot=w[1]
        ),
        st.integers(0, 4096),
        st.integers(4097, 8192),  # distinct endpoints by construction
        windows,
    )
    return st.one_of(nodes, planes, links)


class TestSpecRoundTrip:
    @given(events=st.lists(_events(), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_spec(self, events):
        timeline = FailureTimeline(events)
        assert FailureTimeline.parse(timeline.spec()) == timeline

    def test_spec_omits_default_window(self):
        assert FailureTimeline(
            (FailureEvent(kind="node", node=3, start_slot=0),)
        ).spec() == "node:3"
        assert FailureTimeline(
            (FailureEvent(kind="link", link=(2, 7), start_slot=50),)
        ).spec() == "link:2-7@50"
        assert FailureTimeline(
            (FailureEvent(kind="plane", plane=1, start_slot=10, heal_slot=20),)
        ).spec() == "plane:1@10-20"

    def test_spec_of_empty_timeline(self):
        assert FailureTimeline().spec() == ""
        assert FailureTimeline.parse(FailureTimeline().spec()) == FailureTimeline()

    def test_equality_is_by_events(self):
        a = FailureTimeline.parse("node:1@5-9,plane:0@2")
        b = FailureTimeline.parse(" node:1@5-9 , plane:0@2 ")
        assert a == b
        assert hash(a) == hash(b)
        assert a != FailureTimeline.parse("node:1@5-9")
        assert a.__eq__(object()) is NotImplemented
