"""Benchmark of the paper's three pipelines: exclusion, model sets and
tight-binding spectra.

    python3 bench/run.py --workload {exclusion,modelset,spectrum} --seed N \
        --seconds T --trace {0,1} [--scale {full,tiny}]

It builds the seeded plan (inputs and operations) and pickles it for the
workers.  With ``--trace 0`` it times the end-to-end metrics: set-up (the
median of five fresh worker processes that import the package and write
the input files), then whole rounds of the workload's fixed batch of
operations in a closed loop for T seconds, in one more worker.
With ``--trace 1`` it runs one round untraced and one round through span
wrappers, and reports the per-layer metrics.  Either way every output is
read back and checked, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every check holds, 1 when one fails and 2 when the benchmark
cannot run (for instance, no package source next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _worker(args, mode, run_dir, result, timeout):
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--dir", str(run_dir), "--mode", mode, "--seconds", str(args.seconds),
        "--result", str(result),
    ]
    try:
        proc = subprocess.run(cmd, timeout=timeout, stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(inputs.SCALES), default="full")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "aperiodica" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'aperiodica'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = OUT / f"{tag}-{os.getpid()}"
    plan = inputs.build(args.workload, args.seed, args.scale)
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        with open(run_dir / inputs.PLAN_FILE, "wb") as fh:
            pickle.dump(plan, fh)
        setups = []
        for i in range(1 if args.trace else SETUP_SAMPLES):
            remaining = DEADLINE_S - (time.perf_counter() - started)
            sample = _worker(args, "setup", run_dir, run_dir / f"setup{i}.json", remaining)
            setups.append(sample["setup_s"])
        remaining = DEADLINE_S - (time.perf_counter() - started)
        mode = "trace" if args.trace else "run"
        worker = _worker(args, mode, run_dir, OUT / f"{tag}.worker.json", remaining)
        checker = checks.Checker(plan)

        def read_output(label):
            with open(run_dir / f"{label}.out.json") as fh:
                return json.load(fh)

        problems, attempted, failed = checks.summarise(checker, plan, worker["rounds"], read_output)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics = worker["layers"]
    else:
        op_seconds = [s for r in worker["rounds"] for _, s, code, _ in r["ops"] if code == 0]
        if not op_seconds:
            print("error: every operation failed", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "solve_s": _metric(statistics.median(r["wall_s"] for r in worker["rounds"]), "s"),
            "op_p50_ms": _metric(1e3 * statistics.median(op_seconds), "ms"),
            "peak_rss_mib": _metric(worker["maxrss_kib"] / 1024, "MiB"),
        }
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(OUT / f"{tag}.result.json", "w") as fh:
        json.dump({"rounds": len(worker["rounds"]), **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
