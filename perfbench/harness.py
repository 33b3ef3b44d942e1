"""Measurement and checking helpers shared by the benchmark workloads.

Nothing here times code inside ``src/``: layers are timed from outside,
around calls to their public functions (:class:`Spans`,
:class:`TimedRouter`), and every operation the benchmark performs goes
through a :class:`Ledger`, which counts it as attempted and as failed
when it raises or fails one of its correctness checks.
"""

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import time
import traceback
from importlib import metadata

import numpy as np

#: Significant digits kept for floats before hashing.  numpy dispatches
#: some float kernels (exp, log, ...) per CPU instruction set, so the
#: last bits of a float result may differ between hosts; a pinned digest
#: must not.
DIGEST_DIGITS = 10


def canonical(value):
    """*value* as plain JSON data with floats rounded for hashing."""
    if hasattr(value, "item") and not isinstance(value, (list, tuple, dict)):
        value = value.item()  # numpy scalar
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest(value) -> str:
    """sha256 of the canonical JSON form of *value*."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def timed(fn, *args, **kwargs):
    """``(wall seconds, fn(*args, **kwargs))``."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


class Ledger:
    """Attempted/failed operation counts and pinned-digest checks.

    *pins* maps a label to its expected digest; ``None`` skips pin
    checks (seeds other than the pinned one).  With *record* set, pins
    are not checked but every digest is stored into it instead.
    """

    def __init__(self, pins=None, record=None):
        self.pins = pins
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, label, fn, check=None):
        """Run one operation and its *check*; returns its value.

        *check* maps the value to a list of problems (empty = correct)
        and runs after *fn* returns, outside any timing *fn* does.  The
        value is ``None`` when *fn* raised.
        """
        try:
            value = fn()
        except Exception:
            self.record_outcome(label, [traceback.format_exc(limit=4).strip()])
            return None
        try:
            problems = check(value) if check is not None else []
        except Exception:
            problems = [traceback.format_exc(limit=4).strip()]
        self.record_outcome(label, problems)
        return value

    def record_outcome(self, label, problems):
        """Count one operation that ran elsewhere, failed if *problems*."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def pin(self, label, value):
        """Problems from comparing *value*'s digest with its pin."""
        value_digest = digest(value)
        if self.record is not None:
            self.record[label] = value_digest
            return []
        if self.pins is None:
            return []
        expected = self.pins.get(label)
        if expected is None:
            return [f"no pinned digest for {label!r}"]
        if expected != value_digest:
            return [f"digest {value_digest[:12]} != pinned {expected[:12]}"]
        return []


#: Median wall of one :meth:`HostProbe.probe` on the 2-vCPU x86-64 host
#: the benchmark was tuned on (python 3.11, numpy 2.4).  It only sets
#: the scale of normalized times: they read as seconds on that host at
#: its usual speed.
PROBE_REFERENCE_S = 0.17


class HostProbe:
    """Host-speed normalization of wall times.

    On a shared host the CPU speed a process gets drifts by tens of
    per cent within seconds, and by more over minutes.  :meth:`timed`
    runs a fixed piece of work that calls no ``repro`` code right before
    and right after the timed call, and scales the call's wall by
    ``PROBE_REFERENCE_S / (mean probe wall)``: the drift the probe sees
    cancels, and a change to the program moves the normalized time as
    much as the raw one.  The probe mixes the program's three kinds of
    work: interpreter loops, numpy calls on small arrays, and gathers
    and scatters over an array larger than the caches.  A probe that
    ended at most ``REUSE_S`` before a timed call is that call's "before"
    probe too, so back-to-back calls share one.  A long call can probe
    more often by calling :meth:`split` from inside: each stretch between
    two probes is then scaled by the probes at its two ends, and the
    split probes' own time is left out.
    """

    REUSE_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._big = rng.integers(0, 1 << 20, size=1 << 22)  # 32 MiB
        self._index = rng.integers(0, 1 << 22, size=1 << 19)
        self._small = rng.integers(0, 1000, size=4096)
        self.walls = []
        self._last = None  # (wall, perf_counter at its end)
        self._splits = None  # the running timed call's split probes

    def probe(self):
        """Wall seconds of one round of the fixed work."""
        big, index, small = self._big, self._index, self._small
        start = time.perf_counter()
        for _ in range(12):
            gathered = big[index]
            big[index[:50_000]] += 1
            np.cumsum(gathered)
        for _ in range(3000):
            picked = small[small > 500]
            np.add.at(small, picked[:10], 0)
            small.sum()
        total, table = 0, {}
        for i in range(250_000):
            total += i & 7
            table[i & 1023] = total
        end = time.perf_counter()
        self.walls.append(end - start)
        self._last = (end - start, end)
        return end - start

    def split(self):
        """Probe now, inside a :meth:`timed` call; no-op outside one."""
        if self._splits is not None:
            self.probe()
            self._splits.append(self._last)

    def timed(self, fn, *args, **kwargs):
        """``(normalized wall seconds, fn(*args, **kwargs))``."""
        last = self._last
        if last is not None and time.perf_counter() - last[1] <= self.REUSE_S:
            before = last[0]
        else:
            before = self.probe()
        self._splits = splits = []
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._splits = None
        self.probe()
        # Stretch i runs from the end of probe i to the start of probe
        # i + 1; probe 0 is the one before the call.
        probes = [(before, start)] + splits + [self._last]
        normalized = 0.0
        for (wall_a, end_a), (wall_b, end_b) in zip(probes, probes[1:]):
            stretch = min(end_b - wall_b, end) - end_a
            normalized += stretch * PROBE_REFERENCE_S / ((wall_a + wall_b) / 2)
        return normalized, value


def repeat(fn, seconds, min_reps):
    """Call *fn* at least *min_reps* times and until *seconds* have
    passed; returns its results other than ``None``."""
    values = []
    start = time.perf_counter()
    reps = 0
    while reps < min_reps or time.perf_counter() - start < seconds:
        value = fn()
        reps += 1
        if value is not None:
            values.append(value)
    return values


class Spans:
    """Accumulated wall seconds per layer metric name.

    ``with spans("schedules.build_s"): ...`` adds the block's wall time
    to that name.
    """

    def __init__(self):
        self.seconds = {}

    @contextlib.contextmanager
    def __call__(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


class TimedRouter:
    """A router that times every ``paths_batch`` call it forwards.

    Passed to ``SlotSimulator`` in place of the real router; every other
    attribute is the wrapped router's, so the engine sees the same
    router and draws the same paths.
    """

    def __init__(self, router):
        self._router = router
        self.seconds = 0.0
        self.calls = 0
        self.paths = 0

    def paths_batch(self, srcs, dsts, rng=None):
        start = time.perf_counter()
        out = self._router.paths_batch(srcs, dsts, rng)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.paths += len(srcs)
        return out

    def __getattr__(self, name):
        return getattr(self._router, name)


def reap_children(timeout=60.0):
    """Wait for every child process this process started (pool
    workers) to end, terminating any still running after *timeout*."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join()


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest joined child.

    Call :func:`reap_children` first: a child counts only once joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _physical_cpus():
    """Distinct (package, core) pairs in /proc/cpuinfo, or None."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return None
    cores = set()
    for block in text.split("\n\n"):
        fields = dict(
            (key.strip(), value.strip())
            for key, _, value in (line.partition(":") for line in block.splitlines())
        )
        if "core id" in fields:
            cores.add((fields.get("physical id"), fields["core id"]))
    return len(cores) or None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(workers):
    """Host and configuration block stamped into every result."""
    from repro.exp.shm import posting_seen
    from repro.schedules import schedule as schedule_module
    from repro.sim.kernels import HAVE_NUMBA

    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpus_logical": os.cpu_count(),
        "cpus_physical": _physical_cpus(),
        "numba": HAVE_NUMBA,
        "schedule_cache_active": getattr(schedule_module, "_TABLE_PROVIDER", None)
        is not None,
        "shm_posting": posting_seen(),
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
        "sweep_workers": workers,
    }
