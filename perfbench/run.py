"""Repository benchmark: one workload per run, end-to-end or per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sat-1024 --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics BENCHMARK.json declares,
``--trace 1`` the per-layer ones, from a separate run that times each
layer around calls to its public functions.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  An operation (one slot run, one flow-model point, one
sweep point) fails when it raises or fails its correctness check; for
``--seed 0`` (the pinned seed) the checks include the sha256 digests in
``pins.json``.  Every end-to-end time is scaled for host speed by
``harness.HostProbe``.

Every run is isolated: BLAS/OpenMP use one thread, the sweep cache,
journal and temp files live in a fresh directory under
``.perfbench-tmp/`` that is removed on exit, and at most ``nproc``
processes run.  ``--tiny`` shrinks every workload for the smoke tests.
"""

import os
import sys

# Before numpy is imported anywhere.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PINS = os.path.join(HERE, "pins.json")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")

#: The seed whose outputs are pinned by digest.
PINNED_SEED = 0

#: Sweep worker processes of the frontier workload's traced run, capped
#: at nproc.  Its timed runs sweep serially: on a shared host two busy
#: workers measure the scheduler more than the program (README.md).
WORKERS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny problem sizes (smoke tests)"
    )
    parser.add_argument(
        "--pins",
        help="pinned digests to check (default: perfbench/pins.json; "
        "none with --tiny)",
    )
    parser.add_argument(
        "--write-pins",
        metavar="PATH",
        help="record this run's digests into PATH instead of checking them",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_pins and args.seed != PINNED_SEED:
        parser.error(f"--write-pins records the pinned seed {PINNED_SEED} only")
    return args


def _load_pins(args):
    """The workload's pinned digests, or None when nothing is pinned."""
    if args.seed != PINNED_SEED or args.write_pins:
        return None
    path = args.pins or (None if args.tiny else PINS)
    if path is None:
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(args.workload, {})


def _write_pins(path, workload, digests):
    pins = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            pins = json.load(handle)
    pins[workload] = dict(sorted(digests.items()))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(pins.items())), handle, indent=2)
        handle.write("\n")


def _isolate():
    """Point every cache, journal and temp file at a fresh directory."""
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    for var, name in (
        ("REPRO_CACHE_DIR", "cache"),
        ("REPRO_RUNS_DIR", "runs"),
        ("TMPDIR", "tmp"),
    ):
        path = os.path.join(scratch, name)
        os.makedirs(path)
        os.environ[var] = path
    tempfile.tempdir = os.environ["TMPDIR"]
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return scratch


def _cleanup(scratch):
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass  # another run's directory is still there


def _collect(spec, trace, measured):
    """``{name: (value, unit)}`` for every declared metric of this mode.

    Per-layer metrics of layers this workload does not exercise are 0;
    an undeclared metric, or an end-to-end metric left out, is an error.
    """
    section = spec["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(measured))
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {}
    for name, unit in units.items():
        value = measured.get(name, 0)
        metrics[name] = (value.item() if hasattr(value, "item") else value, unit)
    return metrics, missing


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"error: no repro package under {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    scratch = _isolate()
    try:
        import harness
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(
                f"error: unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
        recorded = {} if args.write_pins else None
        ledger = harness.Ledger(pins=_load_pins(args), record=recorded)
        workers = min(WORKERS, os.cpu_count() or 1) if args.trace else 1
        scale = workloads.SCALES["tiny" if args.tiny else "full"][args.workload]
        ctx = workloads.Context(
            args.seed, args.seconds, bool(args.trace), scale, ledger, workers
        )
        measured = workloads.WORKLOADS[args.workload](ctx)
        ctx.median_of("host probe walls (s)", ctx.probe.walls)
        harness.reap_children()
        environment = harness.environment(workers)
        fail_ratio = ledger.failed / max(ledger.attempted, 1)
        if args.trace:
            measured["fail_ratio"] = fail_ratio
        else:
            measured["peak_rss_mib"] = harness.peak_rss_mib()
    finally:
        _cleanup(scratch)

    metrics, unexercised = _collect(spec, args.trace, measured)
    if recorded is not None:
        _write_pins(args.write_pins, args.workload, recorded)
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"scale {'tiny' if args.tiny else 'full'}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    if unexercised:
        print(f"  not exercised by this workload (reported as 0): {', '.join(unexercised)}")
    for label, values in ctx.samples.items():
        print(f"  {label}: n={len(values)} {[round(v, 4) for v in values]}")
    for note in ctx.notes:
        print(note)
    print(f"operations {ledger.attempted}  failed {ledger.failed}  fail_ratio {fail_ratio:g}")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
