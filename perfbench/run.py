"""facecond benchmark: one command, four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; facecond is imported from its
`src/`. Set-up (input generation) is repeated and timed apart from the
measured loop. The loop then runs rounds of requests until --seconds
have passed, checks every output, and prints the named metrics, the
environment, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
traced rounds and reports the per-layer spans. Spans and a full result
record go to .perfbench_work/ under the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys

# One client in one process: pin BLAS to one thread before numpy loads,
# so that run-to-run spread on a small shared machine stays low.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from pace import pace  # noqa: E402
from tracing import Tracer, patched, per_layer_metric_units  # noqa: E402

SETUP_REPEATS = 3

E2E_UNITS = {
    "primary_per_s": "1/s",
    "control_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the benchmark's own smoke tests")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(wl, rnd, ops, traced, tracer):
    """One round; plain rounds record the machine pace on their ops."""
    first = len(ops)
    machine_pace = 1.0 if traced else pace(wl.pace_kind)
    try:
        if traced:
            with patched(wl.patches(tracer)):
                wl.round(rnd, ops, traced=True)
        else:
            wl.round(rnd, ops)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        wl.new_op(ops, "error", rnd, 0, traced).failures.append(f"{type(exc).__name__}: {exc}")
    for op in ops[first:]:
        op.pace = machine_pace


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "facecond" / "__init__.py").is_file():
        print(f"facecond sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    start = perf_counter()
    import workloads  # imports facecond

    import_s = perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](tiny=args.scale == "tiny")
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)

    out_dir = ROOT / ".perfbench_work"
    work_dir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times, setup_paces = [], []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            setup_paces.append(pace(wl.pace_kind))
            t0 = perf_counter()
            wl.setup(args.seed, str(work_dir))
            setup_times.append(perf_counter() - t0)
        setup_raw_s = import_s + statistics.median(setup_times)
        # scaled to the reference machine speed, like the rates
        setup_s = setup_raw_s / statistics.median(setup_paces)

        ops: list = []
        wl.reference(ops, golden.get(args.workload, {}))
        tracer = Tracer() if args.trace else None
        wl.tracer = tracer
        deadline = perf_counter() + args.seconds
        rnd = 0
        while True:
            run_round(wl, rnd, ops, False, tracer)
            if tracer is not None:
                run_round(wl, rnd, ops, True, tracer)
            rnd += 1
            if perf_counter() >= deadline and rnd >= wl.min_rounds:
                break
        if tracer is not None:
            wl.after_trace(tracer)
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(ops)
    failures = [f"{op.kind}[{op.round}]: {msg}" for op in ops for msg in op.failures]
    failed = sum(op.failed for op in ops)
    for line in failures:
        print(f"check failed: {line}")

    env = environment(args.seed)
    try:
        primary, control = wl.rates(ops)
        named = wl.named_metrics(ops)
    except (ValueError, statistics.StatisticsError, ZeroDivisionError) as exc:
        print(f"no metrics: {exc}", file=sys.stderr)
        return 1
    e2e = {"primary_per_s": primary, "control_per_s": control, "setup_s": setup_s, "peak_rss_mb": rss}
    machine_pace = statistics.median(op.pace for op in ops if not op.traced)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {rnd} rounds, {attempted} operations, {failed} failed")
    print(f"machine pace {machine_pace:.3f} x reference; the figures below are as measured,")
    print("the result line scales rates and set-up time to the reference pace")
    for name, value, unit in [
        ("setup_s", setup_raw_s, "s"),
        ("error_rate", failed / attempted, "failed/attempted"),
        ("peak_rss_mb", rss, "MB"),
        *named,
    ]:
        print(f"metric {name} = {value:.6g} {unit}")

    if tracer is not None:
        units = per_layer_metric_units()
        values = tracer.summary(rounds=rnd)
        values["trace.overhead_pct"] = wl.overhead_pct(ops)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        spans_dir = out_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "env": env, "rounds": rnd, "setup_repeats_s": setup_times, "import_s": import_s,
        "setup_paces": setup_paces, "machine_pace": machine_pace,
        "named": {name: value for name, value, _ in named}, "failures": failures, "metrics": metrics,
    }
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
