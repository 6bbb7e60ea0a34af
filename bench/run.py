"""mixcomp benchmark: one workload, one seed, closed loop, outputs checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload commuting-exact --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's inputs from ``--seed``, measures the
set-up time of a fresh interpreter, runs the task list in a separate workload
process for ``--seconds`` (at least three rounds), checks every output, and
prints the metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every process started below.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# dense-block artifacts of the seed commit at the default seed (see record_reference.py)
REFERENCE = os.path.join(BENCH_DIR, "reference_dense_block.json")
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 160
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import mixcomp, mixcomp.cli\n"
    "mixcomp.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)
END_TO_END = (
    ("wall_s", "s"), ("task_ms_p50", "ms"), ("task_ms_p90", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_seconds() -> float:
    """Median, over fresh interpreters, of importing mixcomp and building the parser.

    One unmeasured start first, so byte-code compilation is not counted.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout.strip()))
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def count_failures(generated: dict, result: dict, seed: int,
                   reference: dict | None) -> tuple[int, int, list]:
    """(attempted, failed, problems) over every task execution of the run."""
    import checks
    import gen

    problems = []
    attempted = failed = 0
    if "block_tasks" in generated:
        items = generated["block_tasks"]
        ids = [t.label for t in items]
    else:
        items = generated["batch"].calls
        ids = [c[0] for c in items]
    partner = _fidelity_partners(items) if "batch" in generated else {}
    for task_id, item in zip(ids, items):
        runs = len(result["durations"][task_id]) + len(result["traced_durations"][task_id])
        errors = result["errors"][task_id]
        attempted += runs + len(errors)
        bad = len(errors) + result["mismatches"][task_id]
        for err in errors[:1]:
            problems.append(f"{task_id}: raised: {err.strip().splitlines()[-1]}")
        if result["mismatches"][task_id]:
            problems.append(f"{task_id}: output differs between rounds")
        text = result["first"].get(task_id)
        if text is not None:
            if "block_tasks" in generated:
                found = checks.check_blocksim(
                    item, text, checks.blocksim_expected(item), gen.program_seed(seed),
                    reference.get(task_id) if reference else None)
            else:
                other = partner.get(task_id)
                found = checks.check_call(
                    generated["batch"], item, json.loads(text),
                    None if other is None else json.loads(result["first"][other]))
            if found:
                bad = runs + len(errors)
                problems += [f"{task_id}: {p}" for p in found]
        failed += bad
    return attempted, failed, problems


def _fidelity_partners(calls) -> dict:
    """Map each fidelity call to the call with its arguments swapped."""
    by_args = {json.dumps(args): cid for cid, fn, args in calls if fn == "fidelity"}
    return {cid: by_args.get(json.dumps(args[::-1]))
            for cid, fn, args in calls if fn == "fidelity"}


def end_to_end(result: dict, setup_s: float) -> dict:
    """wall_s sums per-task medians; task_ms percentiles range over those medians."""
    from worker import wall_seconds

    per_task_ms = [1000.0 * statistics.median(v) for v in result["durations"].values() if v]
    return {
        "wall_s": wall_seconds(result["durations"]),
        "task_ms_p50": percentile(per_task_ms, 50),
        "task_ms_p90": percentile(per_task_ms, 90),
        "peak_rss_mb": result["rss_kb"] / 1024.0,
        "setup_s": setup_s,
    }


def result_lines(metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> list:
    """Human-readable metric lines, then the JSON result line."""
    lines = [f"{name} {value!r} {units[name]}" for name, value in metrics.items()]
    lines.append(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixcomp", "__init__.py")):
        sys.stderr.write(f"no mixcomp sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, BENCH_DIR)
    import gen
    from tracing import PER_LAYER

    if args.workload not in gen.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {gen.WORKLOADS}\n")
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        generated = gen.generate(args.workload, args.seed, workdir)
        spec = dict(generated["spec"], src=SRC, seconds=args.seconds, trace=args.trace,
                    spans=os.path.join(WORK, f"spans-{args.workload}.jsonl"))
        spec_path = os.path.join(workdir, "spec.json")
        result_path = os.path.join(workdir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        setup_s = None if args.trace else setup_seconds()
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path, result_path],
            env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(f"workload process exited with {proc.returncode}\n")
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        reference = None
        if args.seed == 0 and args.workload == "dense-block":
            with open(REFERENCE, encoding="utf-8") as fh:
                reference = json.load(fh)
        attempted, failed, problems = count_failures(generated, result, args.seed, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"# FAILED {p}")
    runs = sum(len(v) for v in result["durations"].values())
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: closed loop, one caller, "
          f"{len(result['durations'])} tasks x {result['rounds']} rounds untraced"
          f" + {result['traced_rounds']} traced, {time.perf_counter() - started:.1f} s")
    if "block_tasks" in generated:
        for task_id, runs_s in result["durations"].items():
            print(f"# task {task_id}: " + " ".join(f"{x:.3f}" for x in runs_s) + " s")
    print(f"# fail_frac {failed}/{attempted} task runs failed; task_ms percentiles over "
          f"{len(result['durations'])} per-task medians of {runs} untraced task runs")
    if args.trace:
        metrics, units = result["layers"], dict(PER_LAYER)
    else:
        metrics, units = end_to_end(result, setup_s), dict(END_TO_END)
    for line in result_lines(metrics, units, failed == 0, attempted, failed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
