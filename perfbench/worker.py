"""One benchmark process: set up a workload, run and check its passes.

run.py starts this script in a fresh interpreter with one BLAS thread:

    worker.py --workload NAME --seed N --workdir DIR --setup-only
    worker.py --workload NAME --seed N --workdir DIR --seconds S --trace 0|1

It prints one line, ``perfbench-result <json>``. With --setup-only it stops
after the set-up, which run.py times from process start. Otherwise it runs
passes back to back for S seconds (at least MIN_PASSES of them), with the
speed probe of speed.py sampling the CPU, and checks each. With --trace 1
it alternates untraced and traced passes, so the difference of their
median wall times gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

MIN_PASSES = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_checks(checks):
    """Evaluate (name, check) pairs; a check that raises has failed."""
    out = []
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - a broken output fails its check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append((name, bool(ok), detail))
    return out


def run_pass(workload):
    """Run the operations of one pass; returns wall time, results, failures."""
    results, failures = {}, []
    start = time.perf_counter()
    for name, op in workload.operations():
        try:
            results[name] = op()
        except Exception:  # noqa: BLE001 - count the failure, keep measuring
            results[name] = None
            failures.append(f"{name}: {traceback.format_exc(limit=3)}")
    return time.perf_counter() - start, results, failures


def self_test(workload, results):
    """Corrupt the outputs once per check; each check must catch its case."""
    names = {name for name, _ in workload.checks(results)}
    caught = set()
    problems = []
    for target, args in workload.corruptions(results):
        verdict = {name: ok for name, ok, _ in run_checks(workload.checks(*args))}
        if verdict.get(target, True):
            problems.append(f"check {target} accepted corrupted output")
        else:
            caught.add(target)
    problems += [f"check {name} has no corruption case" for name in sorted(names - caught)]
    return problems


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy):
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def environment(seed):
    import numpy
    import scipy

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": _blas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def _setup(args, tracer):
    """Import gravibar from this checkout and build the workload's inputs."""
    import gravibar

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(gravibar.__file__).startswith(src):
        raise SystemExit(f"gravibar imported from {gravibar.__file__}, not {src}")
    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    if tracer is None:
        return WORKLOADS[args.workload](args.seed, args.workdir)
    tracer.install()
    with tracer.span("setup"):
        workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer.remove()
    return workload


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from speed import SETUP_REF_S, SpeedProbe
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    if args.trace:
        workload = _setup(args, tracer)
        out = {"ready_wall": time.time()}
    else:
        with SpeedProbe.for_setup() as setup_probe:
            workload = _setup(args, None)
        out = {"ready_wall": time.time(), "setup_probe_s": setup_probe.spent,
               "setup_scale": SETUP_REF_S / setup_probe.kernel_s}
    if args.setup_only:
        print("perfbench-result " + json.dumps(out), flush=True)
        return 0

    attempted = failed = 0
    failures: list[str] = []
    results = None

    probe = SpeedProbe.for_workload(args.workload)
    cals = []

    def one_pass(traced: bool):
        nonlocal attempted, failed, results
        if traced:
            with tracer.span("pass"):
                wall, results, errors = run_pass(workload)
        elif args.trace:
            wall, results, errors = run_pass(workload)
        else:
            with probe:
                wall, results, errors = run_pass(workload)
            wall -= probe.spent
            cals.append(wall / probe.kernel_s)
        checks = run_checks(workload.checks(results))
        attempted += len(results) + len(checks)
        failed += len(errors) + sum(not ok for _, ok, _ in checks)
        failures.extend(errors)
        failures.extend(f"check {name}: {detail}" for name, ok, detail in checks if not ok)
        return wall

    walls, traced_walls = [], []
    start = time.perf_counter()
    if args.trace:
        # Alternate so that drifts in machine speed hit both kinds alike.
        while not traced_walls or time.perf_counter() - start < args.seconds:
            walls.append(one_pass(traced=False))
            tracer.install()
            traced_walls.append(one_pass(traced=True))
            tracer.remove()
    else:
        while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            walls.append(one_pass(traced=False))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = self_test(workload, results) if failed == 0 else ["self-test skipped"]
    out.update(
        pass_walls=walls,
        pass_cals=cals,
        traced_walls=traced_walls,
        traj_steps_per_pass=workload.traj_steps,
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
        self_test=problems,
        peak_rss_mb=peak_rss_mb,
        env=environment(args.seed),
    )
    if args.trace:
        layer = layer_metrics(tracer.spans, workload.active_step_frac)
        layer.update({"measurement.detection_frac": 0.0, "measurement.purified_frac": 0.0})
        if failed == 0:
            layer.update(workload.health(results))
        files, size = workload.written()
        layer["cli.files_written"] = files
        layer["cli.bytes_written"] = size
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        layer["trace.overhead_s"] = traced - untraced
        layer["trace.overhead_frac"] = (traced - untraced) / untraced
        out["layer"] = layer
        if args.trace_file:
            tracer.write(args.trace_file)
    print("perfbench-result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
