"""Workload process: runs one workload's fixed task list as a closed loop.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

One caller runs the tasks in order, each starting after the previous one
finished, and repeats the whole list (a round) while another round fits in the
time budget, and at least ``MIN_ROUNDS`` times.
Only the call into the program is timed; reading back and summarising its
output happens between timed calls.  In a traced run, untraced and traced
rounds alternate so the two can be compared.

The result file records per-task durations, the first round's outputs, how
often a later round's output differed from the first, errors, and
``ru_maxrss`` of this process.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

MIN_ROUNDS = 3


def summarise(value) -> object:
    """JSON-able summary of a library result, complete enough to check it."""
    if isinstance(value, float):
        return value
    kind = type(value).__name__
    if kind == "RateReport":
        return {"entries": [[e.name, e.kind, e.rate] for e in value.entries],
                "bracket": list(value.bracket())}
    if kind == "ContinuityBound":
        return [value.bound, bool(value.applicable), value.avg_fidelity]
    if kind == "PhotographicNegativeReport":
        return {"spectrum": value.mixture_spectrum.tolist(), "q": value.q,
                "chi": value.chi, "gap": value.gap}
    if kind == "ProtocolTrace":
        coins, msgs, outs = value.coin_sequence, value.message_sequence, value.output_sequence
        digest = hashlib.sha256(coins.tobytes() + msgs.tobytes() + outs.tobytes()).hexdigest()
        # Message 1 always decodes to tails and message 2 to heads.
        inconsistent = int(((msgs == 1) & (outs != 0)).sum() + ((msgs == 2) & (outs != 1)).sum())
        return {"coin_counts": [int((coins == c).sum()) for c in (1, 2)],
                "heads": [int(outs[coins == c].sum()) for c in (1, 2)],
                "inconsistent": inconsistent, "digest": digest}
    raise TypeError(f"cannot summarise a {kind}")


def wall_seconds(durations: dict) -> float:
    """Time for one pass over the task list: the sum of per-task medians."""
    return sum(statistics.median(v) for v in durations.values() if v)


class Task:
    """One timed call plus the way to read back its output."""

    def __init__(self, task_id, call, read, block_dim=None):
        self.id, self.call, self.read, self.block_dim = task_id, call, read, block_dim


def cli_tasks(spec) -> list[Task]:
    from mixcomp import cli

    tasks = []
    for t in spec["cli_tasks"]:
        def call(argv=t["argv"]):
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"mixcomp exited with {rc}")

        def read(_, path=t["out"]):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()

        tasks.append(Task(t["id"], call, read, t["block_dim"]))
    return tasks


def api_tasks(spec) -> list[Task]:
    import mixcomp
    from mixcomp import wire

    with open(spec["batch"], "r", encoding="utf-8") as fh:
        batch = json.load(fh)
    # Built before timing starts: the batch's inputs, not calls being measured.
    matrices = {name: [wire.matrix_from_json(s) for s in e["states"]]
                for name, e in batch["ensembles"].items()}
    ensembles = {name: wire.ensemble_from_json(e) for name, e in batch["ensembles"].items()}
    coins = {name: mixcomp.classical.CoinSource(*v) for name, v in batch["coins"].items()}

    def resolve(arg):
        if "ens" in arg:
            return ensembles[arg["ens"]]
        if "state" in arg:
            name, i = arg["state"]
            return matrices[name][i]
        if "coin" in arg:
            return coins[arg["coin"]]
        return arg["int"]

    tasks = []
    for call_id, fn_name, args in batch["calls"]:
        values = [resolve(a) for a in args]

        # Looked up at call time, so a traced round reaches the wrapper.
        def call(fn_name=fn_name, values=values):
            return getattr(mixcomp, fn_name)(*values)

        tasks.append(Task(call_id, call, lambda value: json.dumps(summarise(value))))
    return tasks


class Loop:
    """Closed-loop runner that keeps timings and output comparisons."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.durations = {t.id: [] for t in tasks}
        self.traced_durations = {t.id: [] for t in tasks}
        self.first = {}
        self.mismatches = {t.id: 0 for t in tasks}
        self.errors = {t.id: [] for t in tasks}
        self.rounds = 0
        self.traced_rounds = 0

    def run_round(self, tracer=None) -> None:
        clock = time.perf_counter
        for t in self.tasks:
            if tracer is not None:
                tracer.begin_task(t.id, t.block_dim)
            start = clock()
            try:
                value = t.call()
                elapsed = clock() - start
                text = t.read(value)
            except Exception:  # a failing task is counted and the loop goes on
                self.errors[t.id].append(traceback.format_exc(limit=3))
                continue
            (self.durations if tracer is None else self.traced_durations)[t.id].append(elapsed)
            if t.id not in self.first:
                self.first[t.id] = text
            elif text != self.first[t.id]:
                self.mismatches[t.id] += 1
        if tracer is None:
            self.rounds += 1
        else:
            self.traced_rounds += 1


def main(argv) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import mixcomp

    where = os.path.dirname(os.path.abspath(mixcomp.__file__))
    if os.path.dirname(where) != os.path.abspath(spec["src"]):
        sys.stderr.write(f"mixcomp imported from {where}, not from {spec['src']}\n")
        return 3
    tasks = cli_tasks(spec) if "cli_tasks" in spec else api_tasks(spec)
    loop = Loop(tasks)
    seconds = float(spec["seconds"])
    start = time.perf_counter()

    def more(done: int, least: int) -> bool:
        # Start another round only if it should end within the budget.
        elapsed = time.perf_counter() - start
        return done < least or elapsed + elapsed / done <= seconds

    layers = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        while more(loop.traced_rounds, 1):
            loop.run_round()
            tracer.install()
            try:
                loop.run_round(tracer)
            finally:
                tracer.uninstall()
        tracer.write_spans(spec["spans"])
        overhead = wall_seconds(loop.traced_durations) - wall_seconds(loop.durations)
        layers = tracer.metrics(loop.traced_rounds, overhead)
    else:
        while more(loop.rounds, MIN_ROUNDS):
            loop.run_round()
    result = {
        "rounds": loop.rounds,
        "traced_rounds": loop.traced_rounds,
        "durations": loop.durations,
        "traced_durations": loop.traced_durations,
        "first": loop.first,
        "mismatches": loop.mismatches,
        "errors": loop.errors,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if layers is not None:
        result["layers"] = layers
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
