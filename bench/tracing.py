"""Outside-in layer trace: timing wrappers installed around mixcomp's public functions.

Modules import each other's functions by name (``blocksim`` holds its own
``fidelity``, ``classical_fidelity``, ``eig_hermitian`` ...), so patching only
the defining module would miss most calls.  ``Tracer.install`` therefore
replaces every ``mixcomp`` module attribute bound to a traced function, wraps
``DensityOperator.from_matrix`` on the class, and wraps ``numpy.linalg.eigh``
and ``numpy.linalg.eigvalsh`` with a counter that records the matrix dimension.

Each call becomes a span (name, start, end, parent).  Spans of hot leaf
functions are folded into per-(function, parent) counters to bound memory;
every other span stays in memory until ``write_spans``.  A function's self
time is its span minus the spans of the traced calls it made.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> public functions whose calls are timed
TRACED = {
    "cli": ("build_parser", "main"),
    "wire": ("load_ensemble", "dumps"),
    "blocksim": ("project_patch_scheme", "global_fidelity_score", "local_fidelity_score",
                 "lemma_a1_ceiling", "project_and_patch", "project_and_patch_diagonal"),
    "qmat": ("eig_hermitian", "matrix_sqrt_psd", "partial_trace"),
    "measures": ("fidelity", "sqrt_fidelity", "classical_fidelity", "as_prob_vector",
                 "vn_entropy", "holevo"),
    "rates": ("rate_report",),
    "purify": ("two_state_purification_rate", "photographic_negative_report"),
    "classical": ("xi_rate", "example9_simulate"),
    "sampling": ("block_generator",),
}
FROM_MATRIX = "qmat.DensityOperator.from_matrix"
SOLVERS = ("eigh", "eigvalsh")
SCORES = ("blocksim.global_fidelity_score", "blocksim.local_fidelity_score")
# Called per string or per matrix: counted per parent instead of kept as spans.
HOT = {
    "blocksim.project_and_patch", "blocksim.project_and_patch_diagonal",
    "qmat.eig_hermitian", "qmat.matrix_sqrt_psd", "qmat.partial_trace", FROM_MATRIX,
    "measures.fidelity", "measures.sqrt_fidelity", "measures.classical_fidelity",
    "measures.as_prob_vector", "measures.vn_entropy", "sampling.block_generator",
    "numpy.linalg.eigh", "numpy.linalg.eigvalsh",
}

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.build_parser.total_s", "s"), ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("wire.load_ensemble.total_s", "s"), ("wire.dumps.total_s", "s"),
    ("blocksim.project_patch_scheme.total_s", "s"),
    ("blocksim.global_fidelity_score.calls", "count"),
    ("blocksim.global_fidelity_score.total_s", "s"),
    ("blocksim.global_fidelity_score.self_s", "s"),
    ("blocksim.local_fidelity_score.calls", "count"),
    ("blocksim.local_fidelity_score.total_s", "s"),
    ("blocksim.local_fidelity_score.self_s", "s"),
    ("blocksim.lemma_a1_ceiling.total_s", "s"),
    ("blocksim.project_and_patch.calls", "count"), ("blocksim.project_and_patch.self_s", "s"),
    ("blocksim.project_and_patch_diagonal.calls", "count"),
    ("blocksim.project_and_patch_diagonal.self_s", "s"),
    ("blocksim.strings_scored", "count"), ("blocksim.strings_per_s", "1/s"),
    ("blocksim.score_calls_per_task", "count"),
    ("qmat.eig_hermitian.calls", "count"), ("qmat.eig_hermitian.self_s", "s"),
    ("qmat.DensityOperator.from_matrix.calls", "count"),
    ("qmat.DensityOperator.from_matrix.self_s", "s"),
    ("qmat.matrix_sqrt_psd.calls", "count"), ("qmat.matrix_sqrt_psd.self_s", "s"),
    ("qmat.partial_trace.calls", "count"), ("qmat.partial_trace.self_s", "s"),
    ("qmat.eigensolves", "count"), ("qmat.eigensolves_at_block_dim", "count"),
    ("qmat.eigensolves_per_string", "count"), ("qmat.eig_dim3_sum", "count"),
    ("measures.fidelity.calls", "count"), ("measures.fidelity.total_s", "s"),
    ("measures.sqrt_fidelity.self_s", "s"),
    ("measures.classical_fidelity.calls", "count"), ("measures.classical_fidelity.self_s", "s"),
    ("measures.as_prob_vector.calls", "count"), ("measures.as_prob_vector.self_s", "s"),
    ("measures.vn_entropy.calls", "count"), ("measures.vn_entropy.self_s", "s"),
    ("measures.holevo.calls", "count"), ("measures.holevo.total_s", "s"),
    ("rates.rate_report.calls", "count"), ("rates.rate_report.total_s", "s"),
    ("rates.rate_report.self_s", "s"),
    ("purify.two_state_purification_rate.calls", "count"),
    ("purify.two_state_purification_rate.total_s", "s"),
    ("purify.photographic_negative_report.calls", "count"),
    ("purify.photographic_negative_report.total_s", "s"),
    ("classical.xi_rate.calls", "count"), ("classical.xi_rate.total_s", "s"),
    ("classical.example9_simulate.calls", "count"),
    ("classical.example9_simulate.total_s", "s"),
    ("sampling.block_generator.calls", "count"), ("sampling.block_generator.total_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span recorder; ``install`` patches the program, ``uninstall`` restores it."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.leaf: dict[tuple, list] = {}     # (name, parent name) -> [calls, total_s]
        self.spans: list[tuple] = []          # (span id, name, start, end, parent id)
        self.solves = 0
        self.block_solves = 0
        self.dim3_sum = 0
        self.strings_scored = 0
        self.block_dim: int | None = None     # D of the task running now
        self._stack = [["task", 0, 0.0]]      # open spans: [name, id, child time]
        self._next_id = 1
        self._patches: list[tuple] = []

    def begin_task(self, name: str, block_dim: int | None) -> None:
        self.block_dim = block_dim
        self._stack[0] = [name, 0, 0.0]

    def _wrap(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep_span = name not in HOT
        stack, leaf, spans, clock = self._stack, self.leaf, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [name, sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[2] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                if keep_span:
                    spans.append((sid, name, start, end, parent[1]))
                else:
                    agg = leaf.setdefault((name, parent[0]), [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _solve_observer(self, args, result) -> None:
        d = int(args[0].shape[-1])
        self.solves += 1
        self.dim3_sum += d**3
        if d == self.block_dim:
            self.block_solves += 1

    def _score_observer(self, args, result) -> None:
        self.strings_scored += int(result.n_terms)

    def install(self) -> None:
        import numpy.linalg

        import mixcomp.cli  # noqa: F401  (loads every module the CLI uses)
        from mixcomp.qmat import DensityOperator

        wrappers: dict[int, tuple] = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"mixcomp.{layer}"]
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                fn = getattr(mod, fn_name)
                observe = self._score_observer if name in SCORES else None
                wrappers[id(fn)] = (fn, self._wrap(name, fn, observe))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mixcomp" and not mod_name.startswith("mixcomp."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        original = DensityOperator.__dict__["from_matrix"]
        self._patch(DensityOperator, "from_matrix",
                    classmethod(self._wrap(FROM_MATRIX, original.__func__)))
        for solver in SOLVERS:
            fn = getattr(numpy.linalg, solver)
            self._patch(numpy.linalg, solver,
                        self._wrap(f"numpy.linalg.{solver}", fn, self._solve_observer))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics per pass over the task list."""
        r = max(rounds, 1)

        def stat(name: str, i: int) -> float:
            return self.stats.get(name, [0, 0.0, 0.0])[i]

        out = {}
        for metric, _ in PER_LAYER:
            head, _, field = metric.rpartition(".")
            if field in ("calls", "total_s", "self_s"):
                out[metric] = stat(head, ("calls", "total_s", "self_s").index(field)) / r
        score_s = sum(stat(n, 1) for n in SCORES)
        score_calls = sum(stat(n, 0) for n in SCORES)
        tasks = stat("cli.main", 0)
        out.update({
            "blocksim.strings_scored": self.strings_scored / r,
            "blocksim.strings_per_s": self.strings_scored / score_s if score_s else 0.0,
            "blocksim.score_calls_per_task": score_calls / tasks if tasks else 0.0,
            "qmat.eigensolves": self.solves / r,
            "qmat.eigensolves_at_block_dim": self.block_solves / r,
            "qmat.eigensolves_per_string": (
                self.block_solves / self.strings_scored if self.strings_scored else 0.0),
            "qmat.eig_dim3_sum": self.dim3_sum / r,
            "trace.overhead_s": overhead_s,
        })
        return {metric: out[metric] for metric, _ in PER_LAYER}

    def write_spans(self, path: str) -> None:
        """Spans and per-parent leaf counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            for (name, parent), (calls, total) in sorted(self.leaf.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                     "total_s": total}) + "\n")
