#!/usr/bin/env python3
"""Benchmark of gravibar, measured from outside through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload fig3-ensemble --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Every run starts fresh worker processes (worker.py) with one BLAS thread.
With --trace 0, SETUP_PROBES workers first only set up, each timed from
process start to the end of its set-up; then one worker runs the workload's
passes back to back for --seconds and checks every pass. With --trace 1 the
worker traces the set-up and the later passes, and no probes run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. `--workload all`
runs every workload and prints one table, failed_frac included, before a
last JSON line whose metric names carry the workload as a prefix.

Each run records the environment in .perfbench_out/results/ and, when
traced, writes its spans to .perfbench_out/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("fig3-ensemble", "qnd-mixed", "cli-simulate", "analytic")
SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0
RESULT_PREFIX = "perfbench-result "


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    # Pinned before numpy is imported in the worker.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; returns its spawn time and its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    spawn = time.time()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv[:2])} exited with code {proc.returncode}")
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return spawn, json.loads(line[len(RESULT_PREFIX):])
    raise BenchError("worker printed no result")


def git_state() -> dict:
    """Commit and dirty flag of the checkout, when it is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": "unknown", "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}


def listed_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run of one workload: (result line, full record)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{name}")
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    argv = [*common, "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        argv += ["--trace-file", os.path.join(OUT, "traces", f"{name}-seed{seed}.jsonl")]
    setup, setup_scaled = [], []
    try:
        for _ in range(0 if trace else SETUP_PROBES):
            spawn, probe = run_worker([*common, "--setup-only"], deadline)
            setup.append(probe["ready_wall"] - spawn - probe["setup_probe_s"])
            setup_scaled.append(setup[-1] * probe["setup_scale"])
        spawn, res = run_worker(argv, deadline)
        if not trace:
            setup.append(res["ready_wall"] - spawn - res["setup_probe_s"])
            setup_scaled.append(setup[-1] * res["setup_scale"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = res["layer"]
    else:
        wall_cal = statistics.median(res["pass_cals"])
        values = {
            "wall_cal": wall_cal,
            "traj_steps_per_cal": res["traj_steps_per_pass"] / wall_cal,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = listed_metrics(trace)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    line = {
        "correct": res["failed"] == 0 and not res["self_test"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {**res["env"], **git_state()},
        "result": line,
        "setup_samples_s": setup,
        "setup_samples_ref_s": setup_scaled,
        "traj_steps_per_pass": res["traj_steps_per_pass"],
        "pass_walls_s": res["pass_walls"],
        "pass_cals": res["pass_cals"],
        "traced_pass_walls_s": res["traced_walls"],
        "failures": res["failures"],
        "self_test": res["self_test"],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{name}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def _report(record: dict) -> None:
    print("env " + json.dumps(record["env"], sort_keys=True))
    for failure in record["failures"] + record["self_test"]:
        print(f"{record['workload']}: {failure}", file=sys.stderr)
    line = record["result"]
    for key, m in line["metrics"].items():
        print(f"{record['workload']:<14} {key:<44} {m['value']:>14.6g} {m['unit']}")
    extra = {"failed_frac": (line["failed"] / line["attempted"], "ratio")}
    if not record["trace"]:
        wall = statistics.median(record["pass_walls_s"])
        extra["setup_wall_s"] = (statistics.median(record["setup_samples_s"]), "s")
        extra["wall_s"] = (wall, "s")
        extra["traj_steps_per_s"] = (record["traj_steps_per_pass"] / wall, "1/s")
    for key, (value, unit) in extra.items():
        print(f"{record['workload']:<14} {key:<44} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "gravibar", "__init__.py")):
        print(f"error: no gravibar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            line, record = run_one(name, args.seed, args.seconds, args.trace)
            _report(record)
            lines[name] = line
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{name}.{key}": m for name, line in lines.items()
                    for key, m in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
