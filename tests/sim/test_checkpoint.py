"""Durable checkpoint/restore: kill-anywhere, resume bit-exactly.

The contract under test: a run saved at *any* segment boundary with
:meth:`SimSession.save` and resumed with :meth:`SlotSimulator.resume` —
in a fresh process, a fresh simulator, with a different construction
seed — finishes with reports, traces, and telemetry bit-identical to the
uninterrupted run, for both engines and every kernel mode.  And every
way a checkpoint file can be bad (missing, truncated, bit-flipped,
wrong schema, wrong run) is a precise :class:`CheckpointError`, never a
silent re-run.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import (
    EpochTransitionCollector,
    SimConfig,
    SlotSimulator,
    TelemetryHub,
    standard_collectors,
)
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA,
    config_digest,
    decode_array,
    encode_array,
    read_checkpoint,
    write_checkpoint,
)
from repro.sim.tracing import TraceRecorder
from repro.traffic import FlowSpec

pytestmark = pytest.mark.durability

ENGINES = ("reference", "vectorized")
#: Drain tiers of the vectorized engine (see the ``drain_tier`` fixture).
DRAIN_TIERS = ["numpy", "sequential"]
CONFIG_VARIANTS = [
    {},
    {"per_flow_paths": True},
    {"injection_window": 2},
    {"short_flow_threshold_cells": 3},
    # Tiny presampling chunks: the save lands mid-chunk and the resumed
    # run refills across chunk boundaries.
    {"presample_chunk_cells": 3},
]


def make_flows(n=12, count=60, horizon=120, seed=5):
    rng = np.random.default_rng(seed)
    flows = []
    for fid in range(count):
        src = int(rng.integers(n))
        dst = int(rng.integers(n - 1))
        if dst >= src:
            dst += 1
        flows.append(
            FlowSpec(
                flow_id=fid,
                src=src,
                dst=dst,
                size_cells=int(rng.integers(1, 5)),
                arrival_slot=int(rng.integers(horizon)),
            )
        )
    return flows


def make_fabric():
    schedule = build_sorn_schedule(12, 3, q=1)
    return schedule, SornRouter(schedule.layout)


def make_sim(engine, config_kwargs=None, telemetry=None, rng=7):
    schedule, router = make_fabric()
    cfg = SimConfig(
        engine=engine,
        check_invariants=True,
        telemetry=telemetry,
        **(config_kwargs or {}),
    )
    return SlotSimulator(schedule, router, cfg, rng=rng)


def fresh_hub():
    schedule, _ = make_fabric()
    return TelemetryHub(standard_collectors(schedule, profile=False))


def trace_tuples(tracer):
    return [
        (p.slot, p.occupancy, p.delivered_cumulative, p.max_voq)
        for p in tracer.points
    ]


def save_at(engine, config_kwargs, boundary, path, flows):
    """Start a run, advance to *boundary*, save, and discard the session."""
    session = make_sim(engine, config_kwargs).start(flows, 150)
    if boundary:
        session.run_segment(boundary)
    session.save(path)


class TestResumeBitExact:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("boundary", [0, 1, 37, 150])
    def test_resume_equals_uninterrupted(self, engine, boundary, tmp_path):
        flows = make_flows()
        whole = make_sim(engine).run(flows, 150)
        path = str(tmp_path / "run.ckpt")
        save_at(engine, None, boundary, path, flows)
        # Different construction seed: routes and RNG state must come
        # from the checkpoint, not from the resuming simulator.
        session = make_sim(engine, rng=999).resume(path, flows)
        while not session.main_phase_done:
            session.run_segment(11)
        assert session.finish() == whole

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("config_kwargs", CONFIG_VARIANTS)
    def test_resume_across_config_variants(self, engine, config_kwargs, tmp_path):
        flows = make_flows()
        whole = make_sim(engine, config_kwargs).run(flows, 150)
        path = str(tmp_path / "run.ckpt")
        save_at(engine, config_kwargs, 40, path, flows)
        session = make_sim(engine, config_kwargs, rng=999).resume(path, flows)
        while not session.main_phase_done:
            session.run_segment(13)
        assert session.finish() == whole

    @pytest.mark.parametrize("drain_tier", DRAIN_TIERS, indirect=True)
    def test_resume_per_kernel_mode(self, drain_tier, tmp_path):
        flows = make_flows()
        whole = make_sim("vectorized").run(flows, 150)
        path = str(tmp_path / "run.ckpt")
        save_at("vectorized", None, 40, path, flows)
        session = make_sim("vectorized", rng=999).resume(path, flows)
        while not session.main_phase_done:
            session.run_segment(9)
        assert session.finish() == whole

    @pytest.mark.parametrize("engine", ENGINES)
    def test_telemetry_and_trace_survive_resume(self, engine, tmp_path):
        flows = make_flows()
        hub_whole = fresh_hub()
        tr_whole = TraceRecorder(stride=5)
        whole = make_sim(engine, telemetry=hub_whole).run(
            flows, 150, tracer=tr_whole
        )

        hub_a = fresh_hub()
        tr_a = TraceRecorder(stride=5)
        session = make_sim(engine, telemetry=hub_a).start(flows, 150, tracer=tr_a)
        session.run_segment(70)
        path = str(tmp_path / "run.ckpt")
        session.save(path)
        del session

        hub_b = fresh_hub()
        tr_b = TraceRecorder(stride=5)
        session = make_sim(engine, telemetry=hub_b, rng=999).resume(
            path, flows, tracer=tr_b
        )
        while not session.main_phase_done:
            session.run_segment(11)
        assert session.finish() == whole
        assert hub_b.dumps_jsonl() == hub_whole.dumps_jsonl()
        assert trace_tuples(tr_b) == trace_tuples(tr_whole)

    def test_resume_crosses_engines_is_rejected(self, tmp_path):
        """A checkpoint names its engine; the other engine refuses it
        (their payload layouts differ) rather than misapplying it."""
        flows = make_flows()
        path = str(tmp_path / "run.ckpt")
        save_at("reference", None, 40, path, flows)
        with pytest.raises(CheckpointError, match="engine"):
            make_sim("vectorized").resume(path, flows)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_resume_after_swap_uses_live_schedule(self, engine, tmp_path):
        """Saving after a mid-run swap fingerprints the *swapped*
        schedule: resume against it succeeds, against the original
        schedule fails precisely."""
        flows = make_flows()
        retuned = build_sorn_schedule(12, 3, q=3)
        session = make_sim(engine).start(flows, 150)
        session.run_segment(40)
        session.swap_schedule(retuned)
        path = str(tmp_path / "run.ckpt")
        session.save(path)

        whole = make_sim(engine).start(flows, 150)
        whole.run_segment(40)
        whole.swap_schedule(retuned)
        expected = whole.finish()

        with pytest.raises(CheckpointError, match="schedule"):
            make_sim(engine).resume(path, flows)
        resumed = SlotSimulator(
            retuned, SornRouter(retuned.layout),
            SimConfig(engine=engine, check_invariants=True), rng=999,
        ).resume(path, flows)
        assert resumed.finish() == expected


class TestRejection:
    def setup_method(self):
        self.flows = make_flows()

    def _saved(self, tmp_path, engine="vectorized"):
        path = str(tmp_path / "run.ckpt")
        save_at(engine, None, 40, path, self.flows)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint file"):
            make_sim("vectorized").resume(str(tmp_path / "absent.ckpt"), self.flows)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(CheckpointError, match="truncated or not JSON"):
            make_sim("vectorized").resume(path, self.flows)

    def test_bit_flip_fails_checksum(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        # Flip one character inside the payload body (not the framing):
        # any digit becomes a different digit, keeping the JSON valid.
        marker = raw.find(b'"payload"')
        for i in range(marker, len(raw)):
            if chr(raw[i]).isdigit():
                raw[i] = ord("0") if raw[i] != ord("0") else ord("1")
                break
        with open(path, "wb") as handle:
            handle.write(raw)
        with pytest.raises(CheckpointError, match="checksum"):
            make_sim("vectorized").resume(path, self.flows)

    def test_schema_version_bump_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["schema"] = CHECKPOINT_SCHEMA + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointError, match="schema version"):
            make_sim("vectorized").resume(path, self.flows)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "payload": {}}, handle)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_flows_mismatch_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        other = make_flows(seed=6)
        with pytest.raises(CheckpointError, match="workload"):
            make_sim("vectorized").resume(path, other)

    def test_config_digest_is_stable(self):
        """Existing checkpoints must keep restoring: the digest of the
        default config and of a non-default one are pinned to the
        values older releases wrote."""
        assert config_digest(SimConfig()) == (
            "80c44bba06d6303075bf0f2c478025c1febf15fbd1e3961aff8472c863469088"
        )
        assert config_digest(
            SimConfig(
                engine="vectorized",
                cells_per_circuit=2,
                injection_window=4,
                short_flow_threshold_cells=3,
                presample_chunk_cells=7,
                drain=True,
            )
        ) == "e4e5e6a69d4724d382fdb1d4e815510313fe34929318efba6f1a1b119d641dbe"

    def test_config_mismatch_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with pytest.raises(CheckpointError, match="config"):
            make_sim("vectorized", {"cells_per_circuit": 2}).resume(
                path, self.flows
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_save_after_finish_rejected(self, engine, tmp_path):
        session = make_sim(engine).start(self.flows, 120)
        session.finish()
        with pytest.raises(CheckpointError, match="finished"):
            session.save(str(tmp_path / "late.ckpt"))

    def test_telemetry_presence_mismatch_rejected(self, tmp_path):
        flows = self.flows
        session = make_sim("vectorized", telemetry=fresh_hub()).start(flows, 150)
        session.run_segment(40)
        path = str(tmp_path / "run.ckpt")
        session.save(path)
        with pytest.raises(CheckpointError, match="telemetry"):
            make_sim("vectorized").resume(path, flows)


class TestArrayCodec:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.int32).reshape(3, 4),
            np.array([], dtype=np.int64),
            np.array([[1.5, -2.25]], dtype=np.float64),
            np.zeros((0, 3), dtype=np.int32),
        ],
    )
    def test_roundtrip(self, arr):
        out = decode_array(encode_array(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)
        assert out.flags.writeable

    def test_malformed_record_rejected(self):
        with pytest.raises(CheckpointError, match="malformed array"):
            decode_array({"dtype": "int32", "shape": [2]})

    def test_length_mismatch_rejected(self):
        record = encode_array(np.arange(4, dtype=np.int32))
        record["shape"] = [5]
        with pytest.raises(CheckpointError, match="length mismatch"):
            decode_array(record)


class TestAtomicity:
    def test_failed_write_leaves_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, {"v": 1})
        with pytest.raises(TypeError):
            write_checkpoint(path, {"v": object()})  # not JSON-serializable
        assert read_checkpoint(path) == {"v": 1}
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestEpochCollectorRoundTrip:
    def test_epoch_rows_survive_state_roundtrip(self):
        hub = TelemetryHub([EpochTransitionCollector()])
        hub.record_epoch(0, 60, "healthy", "kept", "fine", 0.5, 2.0)
        state = hub.state_dict()
        hub2 = TelemetryHub([EpochTransitionCollector()])
        hub2.load_state(state)
        assert hub2.dumps_jsonl() == hub.dumps_jsonl()


@pytest.mark.slow
class TestPaperScaleCheckpoint:
    """Weekly-lane rung: checkpoint/resume at N=1024 (paper scale).

    Deliberately `slow`-marked (not `scale`) so it runs only in the
    weekly full-suite lane: it repeats the memory-lean N=1024 slot run
    twice (whole + split) on top of a multi-megabyte checkpoint cycle.
    """

    def test_n1024_split_run_matches_whole_run(self, tmp_path):
        from repro.analysis import optimal_q
        from repro.traffic import FlowSizeDistribution, Workload, clustered_matrix

        nodes, cliques, locality, slots = 1024, 32, 0.56, 120
        schedule = build_sorn_schedule(nodes, cliques, q=optimal_q(locality))
        router = SornRouter(schedule.layout)
        workload = Workload(
            clustered_matrix(schedule.layout, locality),
            FlowSizeDistribution.fixed(4500),
            load=0.30,
            cell_bytes=1500.0,
        )
        flows = workload.generate(slots, rng=11)
        config = SimConfig(engine="vectorized", drain=True)

        whole = SlotSimulator(schedule, router, config, rng=12).run(flows, slots)

        session = SlotSimulator(schedule, router, config, rng=12).start(flows, slots)
        session.run_segment(slots // 2)
        path = str(tmp_path / "n1024.ckpt")
        session.save(path)
        del session
        resumed = SlotSimulator(schedule, router, config, rng=999).resume(path, flows)
        assert resumed.finish() == whole
