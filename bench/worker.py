"""The process that runs the timed operations of one workload.

Started by ``run.py``; one process per set-up sample and one for the
timed loop, so every sample pays a fresh import and the checks' own
memory never counts towards the peak resident size reported here.

    python3 bench/worker.py --dir D --mode {setup,run,trace} --seconds T \
        --result FILE

Every mode imports the package and loads the plan that the runner built
from the seed and pickled into D.  ``setup`` then writes the plan's rule
and spec files and stops: its time is the set-up the program pays, while
building the plan (oracle factor sets, the choice of inputs) stays the
benchmark's own work outside it.  ``run`` runs whole rounds of the plan's
operations in a closed loop until T seconds have passed; ``trace`` runs
one round untraced and one round through the span wrappers.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("words", "substitution", "rudin_shapiro", "modelset", "spectral", "cli")


class PackageMissing(RuntimeError):
    pass


def import_layers():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import importlib

    try:
        modules = {name: importlib.import_module(f"aperiodica.{name}") for name in LAYERS}
    except ImportError as exc:
        raise PackageMissing(f"cannot import aperiodica from {SRC}: {exc}") from None
    where = Path(modules["cli"].__file__).resolve().parent
    if where != (SRC / "aperiodica").resolve():
        raise PackageMissing(f"aperiodica was imported from {where}, not from {SRC}")
    return modules


def clear_memos(modules):
    """Empty every lru_cache of the package, so that each operation pays
    what a fresh CLI invocation pays."""
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(op, modules, plan):
    """Run one operation; returns (seconds, exit code).  The output file
    is written inside the timed region only where the CLI writes it."""
    out = f"{op.label}.out.json"
    if op.kind == "cli":
        argv = list(op.argv) + ["-o", out]
        t0 = time.perf_counter()
        try:
            code = modules["cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation's crash is a failed operation
            traceback.print_exc()
            code = -1
        return time.perf_counter() - t0, code
    info = op.info
    potential = plan.potentials[info["potential"]]
    t0 = time.perf_counter()
    try:
        product = modules["spectral"].transfer_product(
            info["energy"], potential, info["values"], info["coupling"]
        )
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, -1
    seconds = time.perf_counter() - t0
    with open(out, "w") as fh:
        json.dump(
            {
                "energy": product.energy,
                "start": product.start,
                "stop": product.stop,
                "matrix": product.matrix,
                "scale_pow2": product.scale_pow2,
                "determinant_error": product.determinant_error(),
            },
            fh,
        )
    return seconds, 0


def run_round(plan, modules, tracer=None):
    ops = []
    t_round = time.perf_counter()
    for op in plan.ops:
        clear_memos(modules)
        close = tracer.op_span(op.label) if tracer is not None else None
        seconds, code = run_op(op, modules, plan)
        if close is not None:
            close()
        digest = _digest(f"{op.label}.out.json") if code == 0 else None
        ops.append([op.label, seconds, code, digest])
    return {"wall_s": time.perf_counter() - t_round, "ops": ops}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    modules = import_layers()
    os.chdir(args.dir)
    # written by the runner of this run, never read from elsewhere
    with open(inputs.PLAN_FILE, "rb") as fh:
        plan = pickle.load(fh)
    result = {}
    if args.mode == "setup":
        for name, payload in plan.files.items():
            with open(name, "w") as fh:
                json.dump(payload, fh)
        result["setup_s"] = time.perf_counter() - T0

    if args.mode == "run":
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(plan, modules))
            if time.perf_counter() - start >= args.seconds:
                break
        result["rounds"] = rounds
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif args.mode == "trace":
        import spans

        untraced = run_round(plan, modules)
        tracer = spans.Tracer(modules)
        tracer.install()
        try:
            traced = run_round(plan, modules, tracer)
        finally:
            tracer.uninstall()
        result["rounds"] = [untraced, traced]
        peak = tracer.enumerate_peak_mib()
        result["layers"] = tracer.layer_metrics(traced["wall_s"] - untraced["wall_s"], peak)
        trace_path = Path(args.result).with_suffix(".spans.tsv.gz")
        tracer.write(trace_path)
        result["spans"] = {"file": str(trace_path), "count": len(tracer.span_name)}

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PackageMissing as exc:
        print(f"worker: {exc}", file=sys.stderr)
        sys.exit(3)
