"""Fixtures shared by the simulator tests."""

import pytest

from repro.sim.vectorized import VectorizedSession


def _always_seq(self, slot, plane, srcs, dsts, dst_row):
    return self._drain_seq(slot, plane, srcs, dsts)


@pytest.fixture
def drain_tier(request, monkeypatch):
    """Pin the vectorized engine's drain tier (use with ``indirect=True``).

    ``"numpy"`` leaves the engine to pick per plane (fused walk, in-place
    repair, cascade replay); ``"sequential"`` sends every plane through
    the exact sequential kernel (:func:`repro.sim.kernels.drain_plane_seq`).
    The reference engine is unaffected either way.
    """
    if request.param == "sequential":
        monkeypatch.setattr(VectorizedSession, "_drain_plane", _always_seq)
    return request.param
