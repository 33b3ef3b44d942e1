"""SweepRunner: parallel == serial, retries, timeouts, crash isolation.

The test families registered here live at module scope so forked worker
processes inherit them (Linux fork start method); the flaky/crash
helpers key their behavior off params, keeping every worker-side
function deterministic and picklable.
"""

import os
import time

import pytest

from repro.errors import SweepError, SweepTimeout, SweepWorkerCrash
from repro.exp import (
    ResultCache,
    SweepPoint,
    SweepRunner,
    register_family,
)
from repro.exp.runner import _execute_task

_ATTEMPTS = {"count": 0}


def _square(params, seed):
    return {"value": params["a"] * seed, "seed": seed}


def _square_batch(params, seeds):
    return [_square(params, seed) for seed in seeds]


def _bad_batch(params, seeds):
    return [{"value": 0}]  # wrong length on purpose


def _always_raises(params, seed):
    raise ValueError(f"boom for seed {seed}")


def _fails_once_per_process(params, seed):
    _ATTEMPTS["count"] += 1
    if _ATTEMPTS["count"] < params["succeed_on_attempt"]:
        raise RuntimeError("transient")
    return {"ok": True}


def _sleeps(params, seed):
    time.sleep(params["seconds"])
    return {"slept": params["seconds"]}


def _exits_hard(params, seed):
    os._exit(13)  # simulates an OOM kill: no exception, no cleanup


register_family("t_square", _square, run_batch=_square_batch)
register_family("t_square_solo", _square)
register_family("t_bad_batch", _square, run_batch=_bad_batch)
register_family("t_raises", _always_raises)
register_family("t_flaky", _fails_once_per_process)
register_family("t_sleeps", _sleeps)
register_family("t_crashes", _exits_hard)


def _grid(family="t_square", n=6, a=3):
    return [SweepPoint(family, {"a": a}, seed=seed) for seed in range(n)]


class TestDeterministicMerge:
    def test_parallel_matches_serial(self):
        # sorn_sim is a real family: a vectorized run with telemetry.
        sorn = {
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
        points = (
            _grid(n=8)
            + [SweepPoint("t_square", {"a": 5}, seed=2)]
            + [SweepPoint("sorn_sim", sorn, seed=s) for s in range(3)]
        )
        serial = SweepRunner(workers=0).run(points)
        parallel = SweepRunner(workers=3).run(points)
        assert parallel == serial
        assert serial[2] == {"value": 6, "seed": 2}
        assert serial[8] == {"value": 10, "seed": 2}

    def test_batched_matches_unbatched(self):
        points = _grid(n=5)
        batched = SweepRunner(workers=0, batch_seeds=True).run(points)
        unbatched = SweepRunner(workers=0, batch_seeds=False).run(points)
        assert batched == unbatched

    def test_single_point_and_empty(self):
        assert SweepRunner().run([]) == []
        [only] = SweepRunner().run(_grid(n=1))
        assert only == {"value": 0, "seed": 0}

    def test_family_without_batch_support(self):
        serial = SweepRunner(workers=0).run(_grid("t_square_solo", n=4))
        parallel = SweepRunner(workers=2).run(_grid("t_square_solo", n=4))
        assert parallel == serial

    def test_cold_and_warm_cache_identical(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        runner = SweepRunner(workers=0, cache=cache)
        points = _grid(n=4)
        cold = runner.run(points)
        warm = runner.run(points)
        assert warm == cold == SweepRunner(workers=0).run(points)
        assert cache.stats() == {
            "hits": 4,
            "misses": 4,
            "stores": 4,
            "invalidations": 0,
        }

    def test_unknown_family_raises(self):
        with pytest.raises(SweepError, match="t_nonexistent"):
            SweepRunner().run([SweepPoint("t_nonexistent", {}, 0)])


class TestFailureHandling:
    def test_ordinary_error_names_family_and_hash(self):
        point = SweepPoint("t_raises", {"a": 1}, seed=7)
        with pytest.raises(SweepError) as exc:
            SweepRunner(workers=0, retries=0).run([point])
        message = str(exc.value)
        assert "t_raises" in message
        assert point.key() in message
        assert "boom for seed 7" in message

    def test_retry_recovers_transient_failure(self):
        _ATTEMPTS["count"] = 0
        point = SweepPoint("t_flaky", {"succeed_on_attempt": 2}, 0)
        [result] = SweepRunner(workers=0, retries=1).run([point])
        assert result == {"ok": True}
        _ATTEMPTS["count"] = 0
        with pytest.raises(SweepError, match="after 1 attempt"):
            SweepRunner(workers=0, retries=0).run([point])

    def test_bad_batch_length_reported(self):
        with pytest.raises(SweepError, match="run_batch returned"):
            SweepRunner(workers=0, retries=0).run(_grid("t_bad_batch", n=3))

    def test_timeout_names_family_and_hash(self):
        point = SweepPoint("t_sleeps", {"seconds": 30}, 0)
        start = time.perf_counter()
        with pytest.raises(SweepTimeout) as exc:
            SweepRunner(workers=2, timeout=0.5).run([point])
        assert time.perf_counter() - start < 10
        assert "t_sleeps" in str(exc.value)
        assert point.key() in str(exc.value)

    def test_worker_crash_names_family_and_hash(self):
        """A worker dying via os._exit must never surface as a bare
        BrokenProcessPool — the error names the culprit point."""
        crash = SweepPoint("t_crashes", {"a": 1}, seed=3)
        with pytest.raises(SweepWorkerCrash) as exc:
            SweepRunner(workers=2).run([crash])
        message = str(exc.value)
        assert "BrokenProcessPool" not in message
        assert "t_crashes" in message
        assert crash.key() in message

    def test_crash_amid_healthy_points_still_identified(self):
        points = [
            SweepPoint("t_square_solo", {"a": 2}, seed=0),
            SweepPoint("t_crashes", {"a": 1}, seed=1),
            SweepPoint("t_square_solo", {"a": 2}, seed=2),
        ]
        with pytest.raises(SweepWorkerCrash, match="t_crashes"):
            SweepRunner(workers=2).run(points)

    def test_invalid_construction(self):
        with pytest.raises(SweepError, match="workers"):
            SweepRunner(workers=-1)
        with pytest.raises(SweepError, match="retries"):
            SweepRunner(retries=-1)


class TestExecuteTask:
    def test_ok_paths(self):
        status, results = _execute_task(("t_square", {"a": 2}, (0, 1, 2), True))
        assert status == "ok"
        assert [r["value"] for r in results] == [0, 2, 4]
        status, results = _execute_task(("t_square", {"a": 2}, (3,), False))
        assert status == "ok" and results == [{"value": 6, "seed": 3}]

    def test_err_path_is_tagged_not_raised(self):
        status, kind, message = _execute_task(("t_raises", {}, (5,), False))
        assert status == "err"
        assert kind == "ValueError"
        assert "boom for seed 5" in message

    def test_point_key_is_stable(self):
        point = SweepPoint("t_square", {"a": 1, "b": 2}, seed=4)
        same = SweepPoint("t_square", {"b": 2, "a": 1}, seed=4)
        assert point.key() == same.key()
        assert point.key() != SweepPoint("t_square", {"a": 1, "b": 2}, 5).key()
