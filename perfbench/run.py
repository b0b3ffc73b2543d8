"""Repository benchmark: end-to-end and per-layer metrics for four workloads.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` installs the layer wrappers and reports the per-layer
metrics.  Without ``--workload`` every workload runs in its own child
process and each end-to-end metric is printed with its unit; the exit
code is non-zero if any correctness check failed.  ``--check-spec``
compares BENCHMARK.json with the metric table in ``layers.py`` and prints
each layer metric's rationale: the end-to-end metric it should move, and
the workload where it should not.

Run from the repository root: the program under test is imported from
``src/``, and everything a run writes (caches, service databases, HOME,
TMPDIR, the span dump) stays under ``.perfbench/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("campaign-cold", "grid-warm", "netdb-churn", "netdb-lossy")
#: Fresh-interpreter imports and set-ups per run; ``setup_s`` reports the
#: median import time plus the median set-up time.
IMPORT_REPEATS = 7
SETUP_REPEATS = 3
#: Every run measures at least this many operations, and their canonical
#: output digests must agree byte for byte.
MIN_OPS = 2
#: Kernel timings behind ``host.kernel_s`` in a traced run.
KERNEL_PROBES = 25


def host_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        match = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = match.group(1).strip() if match else cpu
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def reset_peak_rss() -> bool:
    """Restart the kernel's RSS high-water mark (Linux), so set-up is
    excluded from ``peak_rss_mib``; False if the kernel refused."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mib() -> float:
    try:
        match = re.search(r"^VmHWM:\s+(\d+) kB", Path("/proc/self/status").read_text(), re.M)
        if match:
            return int(match.group(1)) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def isolate(rundir: Path) -> None:
    """Point every cache, database and home directory into ``rundir``."""
    for name in ("home", "cache", "tmp"):
        (rundir / name).mkdir(parents=True, exist_ok=True)
    os.environ["HOME"] = str(rundir / "home")
    os.environ["REPRO_CACHE_DIR"] = str(rundir / "cache")
    os.environ["REPRO_SERVICE_DB"] = str(rundir / "cache" / "service.sqlite")
    os.environ["TMPDIR"] = str(rundir / "tmp")
    # Serial masks: no workload here runs a fleet past the pool crossover,
    # and pinning it keeps the benchmark to one process.
    os.environ["REPRO_EXPOSURE_WORKERS"] = "0"
    for name in ("REPRO_EXPOSURE_BACKEND", "REPRO_CACHE_MAX_BYTES", "REPRO_CACHE_SHARD_DAYS",
                 "REPRO_GEO_PROVIDER", "REPRO_GEO_DB", "REPRO_GRID_JOB_DELAY"):
        os.environ.pop(name, None)
    import tempfile

    tempfile.tempdir = None


def attempt(workload):
    from workloads import Op

    try:
        return workload.run()
    except Exception:  # noqa: BLE001 - a failed operation is a counted failure
        traceback.print_exc()
        return Op(digest=None, units=workload.units, failed_units=workload.units,
                  problems=["raised"])


def discount(op, seconds: float) -> None:
    """Take ``seconds`` of host-speed sampling out of an operation's times."""
    if op.wall > seconds > 0.0:
        keep = (op.wall - seconds) / op.wall
        op.wall *= keep
        op.latencies = [x * keep for x in op.latencies]


def measure(workload, seconds: float, trace: bool):
    """Run operations for ``seconds``; returns (ops, per-op layer metrics,
    spans, host-speed kernel timings)."""
    ops, layer_rows, spans = [], [], []
    if not trace:
        with hostspeed.Sampler(workload.calibration) as sampler:
            start = time.perf_counter()
            while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
                spent = sampler.spent
                op = attempt(workload)
                discount(op, sampler.spent - spent)
                ops.append(op)
        return ops, layer_rows, spans, sampler.samples

    from layers import METRICS, OpTrace, targets
    from spans import Tracer, install

    tracer = Tracer()
    wrappers = targets()
    traced_walls = []

    def traced_op():
        tracer.reset()
        restore = install(tracer, wrappers)
        try:
            op = attempt(workload)
        finally:
            restore()
        ops.append(op)
        if op.digest is not None:
            view = OpTrace(tracer, op)
            layer_rows.append({m.name: float(m.compute(view)) for m in METRICS if m.compute})
            traced_walls.append(op.wall)
            spans[:] = [span.as_dict() for span in tracer.spans]
        # Drop the populations and networks the spans kept alive before
        # the next operation runs.
        tracer.reset()

    # The first operation warms lazy imports; the untraced reference runs
    # second so the overhead ratio compares warm against warm.  All
    # operations must produce one digest, so tracing cannot change output.
    start = time.perf_counter()
    traced_op()
    reference = attempt(workload)
    ops.append(reference)
    while len(ops) < MIN_OPS + 1 or time.perf_counter() - start < seconds:
        traced_op()
    # No sampling timer here: its samples would land inside the spans.
    kernel = [hostspeed.time_kernel(workload.calibration) for _ in range(KERNEL_PROBES)]
    for row, wall in zip(layer_rows, traced_walls):
        row["trace.overhead_ratio"] = wall / reference.wall if reference.wall else 0.0
        row["host.kernel_s"] = statistics.median(kernel)
    return ops, layer_rows, spans, kernel


def import_seconds(repeats: int) -> float:
    """Median time for a fresh interpreter to import the workloads (and so
    the program), as a user's first ``repro`` call pays it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import workloads"], env=env, check=True)
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def run_workload(args) -> int:
    rundir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    isolate(rundir)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from workloads import WORKLOADS

        if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
            print(f"error: imported repro from {repro.__file__}, not ./src", file=sys.stderr)
            return 2
        host = host_fingerprint()
        workload = WORKLOADS[args.workload]()
        # The set-up sampler also runs while a fresh interpreter imports:
        # its kernel then runs in this process beside the child, and
        # still tracks the child's import time better than no sampling.
        with hostspeed.Sampler(workload.calibration) as setup_sampler:
            import_s = import_seconds(IMPORT_REPEATS)
            setups = []
            for index in range(SETUP_REPEATS):
                workdir = rundir / f"run-{index}"
                if index:
                    shutil.rmtree(rundir / f"run-{index - 1}", ignore_errors=True)
                workdir.mkdir()
                spent = setup_sampler.spent
                begin = time.perf_counter()
                workload.prepare(args.seed, workdir)
                setups.append(time.perf_counter() - begin - (setup_sampler.spent - spent))
        setup_kernel = setup_sampler.samples
        setup_s = import_s + statistics.median(setups)
        setup_speed = hostspeed.speed_factor(workload.calibration, setup_kernel)
        rss_reset = reset_peak_rss()
        if not rss_reset:
            print("warning: could not reset the RSS high-water mark; "
                  "peak_rss_mib includes set-up", file=sys.stderr)
        ops, layer_rows, spans, kernel = measure(workload, args.seconds, bool(args.trace))
        rss = peak_rss_mib()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    digests = {op.digest for op in ops}
    problems = sorted({p for op in ops for p in op.problems})
    attempted = sum(op.units for op in ops)
    failed = sum(op.failed_units for op in ops)
    if len(digests) != 1 or None in digests:
        problems.append(f"canonical output differs between operations: {sorted(map(str, digests))}")
        failed = max(failed, sum(op.units for op in ops[1:]))
    correct = not problems and failed == 0
    timed = [op for op in ops if op.latencies]
    busy = sum(op.wall for op in timed)
    latencies = [x for op in timed for x in op.latencies]
    work_per_s = sum(op.work for op in timed) / busy if busy else 0.0
    op_p50_s = statistics.median(latencies) if latencies else 0.0
    speed = hostspeed.speed_factor(workload.calibration, kernel)
    if args.trace:
        from layers import METRICS

        units = {m.name: m.unit for m in METRICS}
        metrics = {
            name: {"value": statistics.median(row[name] for row in layer_rows) if layer_rows else 0.0,
                   "unit": units[name]}
            for name in units
        }
        dump = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                                    "metrics": metrics, "spans": spans}))
    else:
        metrics = {
            "setup_s": {"value": setup_s * setup_speed, "unit": "s"},
            "work_per_ref_s": {"value": work_per_s / speed, "unit": "1/ref_s"},
            "op_p50_ref_s": {"value": op_p50_s * speed, "unit": "ref_s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"host": host, "digest": sorted(map(str, digests))[0],
                      "peak_rss_reset": rss_reset,
                      "wall": {"setup_s": setup_s, "work_per_s": work_per_s,
                               "op_p50_s": op_p50_s},
                      "calibration": workload.calibration,
                      "speed_factor": {"setup": setup_speed, "run": speed},
                      "kernel_s": {"setup": setup_kernel, "run": kernel},
                      "op_walls": [op.wall for op in ops],
                      "latencies": latencies}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own child process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {child.returncode})")
            status = 1
            continue
        verdict = "ok" if result["correct"] else "FAILED"
        print(f"{name}: {verdict} ({result['failed']}/{result['attempted']} failed)")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
        status = status or child.returncode
    return status


def check_spec() -> int:
    from layers import METRICS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    computed = [(m.name, m.unit, m.better) for m in METRICS]
    workloads = tuple(w["name"] for w in spec["workloads"])
    if declared != computed or workloads != WORKLOAD_NAMES:
        print("BENCHMARK.json does not match perfbench/layers.py", file=sys.stderr)
        for entry in sorted(set(declared) ^ set(computed)):
            print(f"  differs: {entry}", file=sys.stderr)
        return 1
    print(f"BENCHMARK.json matches: {len(computed)} per-layer metrics")
    print(f"{'metric':40s} {'should move':58s} no change on")
    for m in METRICS:
        print(f"{m.name:40s} {m.moves:58s} {m.quiet_on}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-spec", action="store_true")
    args = parser.parse_args(argv)
    if args.check_spec:
        return check_spec()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root; ./src/repro is missing", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
