"""CircuitSchedule base behavior via ExplicitSchedule."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.exp.families import FRONTIER_SYSTEMS, _frontier_fabric
from repro.schedules import ExplicitSchedule, Matching, RoundRobinSchedule


@pytest.fixture
def simple_schedule():
    """Period 3 over 4 nodes: shifts 1, 2, 1."""
    return ExplicitSchedule(
        [Matching.rotation(4, 1), Matching.rotation(4, 2), Matching.rotation(4, 1)]
    )


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ScheduleError):
            ExplicitSchedule([])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ScheduleError):
            ExplicitSchedule([Matching.rotation(4, 1), Matching.rotation(5, 1)])

    def test_rejects_non_matching(self):
        with pytest.raises(ScheduleError):
            ExplicitSchedule([np.array([1, 0])])

    def test_validate_passes(self, simple_schedule):
        simple_schedule.validate()


class TestAccessors:
    def test_matching_wraps_period(self, simple_schedule):
        assert simple_schedule.matching(0) == simple_schedule.matching(3)

    def test_dest(self, simple_schedule):
        assert simple_schedule.dest(1, 0) == 2  # shift 2 slot

    def test_node_row(self, simple_schedule):
        row = simple_schedule.node_row(0)
        assert row.tolist() == [1, 2, 1]

    def test_node_row_range_check(self, simple_schedule):
        with pytest.raises(ScheduleError):
            simple_schedule.node_row(4)

    def test_neighbors(self, simple_schedule):
        assert simple_schedule.neighbors(0) == [1, 2]

    def test_edge_fractions(self, simple_schedule):
        fractions = simple_schedule.edge_fractions()
        assert fractions[(0, 1)] == pytest.approx(2 / 3)
        assert fractions[(0, 2)] == pytest.approx(1 / 3)


class TestSlotSearch:
    def test_circuit_slots(self, simple_schedule):
        assert simple_schedule.circuit_slots(0, 1).tolist() == [0, 2]

    def test_next_slot_forward(self, simple_schedule):
        assert simple_schedule.next_slot(0, 0, 1) == 0
        assert simple_schedule.next_slot(1, 0, 1) == 2

    def test_next_slot_wraps(self, simple_schedule):
        # From slot 2 looking for shift-2 circuit (slot 1 of next period).
        assert simple_schedule.next_slot(2, 0, 2) == 4

    def test_next_slot_deep_in_time(self, simple_schedule):
        assert simple_schedule.next_slot(300, 0, 2) == 301

    def test_next_slot_missing_circuit(self, simple_schedule):
        with pytest.raises(ScheduleError):
            simple_schedule.next_slot(0, 0, 3)

    def test_max_wait_slots(self, simple_schedule):
        # circuit 0->1 at slots {0, 2}: gaps 2 and 1 -> worst 2.
        assert simple_schedule.max_wait_slots(0, 1) == 2
        # circuit 0->2 appears once -> full period.
        assert simple_schedule.max_wait_slots(0, 2) == 3

    def test_max_wait_missing_circuit(self, simple_schedule):
        with pytest.raises(ScheduleError):
            simple_schedule.max_wait_slots(0, 3)

    def test_cached_node_row_is_readonly_and_cached(self, simple_schedule):
        row = simple_schedule.cached_node_row(0)
        assert simple_schedule.cached_node_row(0) is row
        with pytest.raises(ValueError):
            row[0] = 5


class TestPlanes:
    def test_plane_offsets(self):
        schedule = RoundRobinSchedule(9, num_planes=4)  # period 8
        assert schedule.plane_offset(0) == 0
        assert schedule.plane_offset(1) == 2
        assert schedule.plane_offset(3) == 6

    def test_plane_matching_is_rotated_copy(self):
        schedule = RoundRobinSchedule(9, num_planes=4)
        assert schedule.plane_matching(0, 1) == schedule.matching(2)

    def test_plane_out_of_range(self):
        with pytest.raises(ScheduleError):
            RoundRobinSchedule(9, num_planes=2).plane_offset(2)

    def test_with_planes(self, simple_schedule):
        upgraded = simple_schedule.with_planes(3)
        assert upgraded.num_planes == 3
        assert upgraded.matching(1) == simple_schedule.matching(1)


class TestDestTable:
    @pytest.mark.parametrize("system", FRONTIER_SYSTEMS)
    def test_matches_plane_matching_on_every_frontier_fabric(self, system):
        """The dense table equals ``plane_matching`` slot by slot on every
        plane, for offset-copy schedules (rr_vlb, orn2d, sorn, bvn) and
        plane-heterogeneous ones (expander rotors, mixed pools) alike;
        it is int32, read-only, and built once per schedule."""
        params = {"system": system, "nodes": 16, "cliques": 4, "locality": 0.56}
        schedule, _ = _frontier_fabric(params)
        table = schedule.dest_table()
        assert table.shape == (schedule.period, schedule.num_planes, 16)
        assert table.dtype == np.int32
        assert not table.flags.writeable
        assert schedule.dest_table() is table
        for t in range(schedule.period):
            for p in range(schedule.num_planes):
                expected = schedule.plane_matching(t, p).dst
                assert np.array_equal(table[t, p], expected), (system, t, p)


class TestTransformations:
    def test_materialize_roundtrip(self):
        rr = RoundRobinSchedule(6)
        explicit = rr.materialize()
        assert explicit.period == rr.period
        for t in range(rr.period):
            assert explicit.matching(t) == rr.matching(t)

    def test_rotated(self, simple_schedule):
        rotated = simple_schedule.rotated(1)
        assert rotated.matching(0) == simple_schedule.matching(1)
        assert rotated.matching(2) == simple_schedule.matching(0)

    def test_concatenated(self, simple_schedule):
        combo = simple_schedule.concatenated(simple_schedule)
        assert combo.period == 6

    def test_concatenated_size_mismatch(self, simple_schedule):
        other = ExplicitSchedule([Matching.rotation(5, 1)])
        with pytest.raises(ScheduleError):
            simple_schedule.concatenated(other)
