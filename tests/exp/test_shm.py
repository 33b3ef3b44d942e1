"""Sweeps without a shared-memory transport.

Workers regenerate each config's flow arrays and schedule table
themselves; nothing is posted through shared memory.  A parallel
``sorn_sim`` sweep must therefore merge bit-identically to the same
sweep run serially, and :func:`repro.exp.shm.posting_seen` (recorded by
the perf harness) must report that no posting happened.
"""

from repro.exp import SweepPoint, SweepRunner
from repro.exp import shm


class TestSornSimPayload:
    def test_sorn_sim_posted_equals_local(self):
        """The real family: worker-side regeneration of the flow arrays
        and compiled table produces the same reports and telemetry as a
        serial run, and no sweep posts through shared memory."""
        params = {
            "nodes": 12,
            "cliques": 3,
            "locality": 0.56,
            "size_cells": 3,
            "load": 0.4,
            "slots": 40,
            "flow_seed": 7,
            "engine": "vectorized",
            "telemetry": True,
        }
        points = [SweepPoint("sorn_sim", params, seed=s) for s in range(3)]
        serial = SweepRunner(workers=0).run(points)
        parallel = SweepRunner(workers=2).run(points)
        assert parallel == serial
        assert shm.posting_seen() is False
