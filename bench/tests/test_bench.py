"""Tests of the benchmark itself: oracles, generator, checks, trace and printer.

Run from the root of a checkout: python3 -m pytest bench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

from mixcomp import blocksim, cli  # noqa: E402
from mixcomp.measures import Ensemble  # noqa: E402


def _program_scores(probs, states, n, rate):
    source = blocksim.BlockSource.build(Ensemble.from_lists(probs, states), n)
    scheme = blocksim.project_patch_scheme(source, rate)
    g = blocksim.global_fidelity_score(source, scheme, mode="exact")
    loc = blocksim.local_fidelity_score(source, scheme, mode="exact")
    return {"global_fid": g.value, "local_fid": loc.value, "eta": scheme.subspace.eta,
            "ceiling": blocksim.lemma_a1_ceiling(source, rate)[0], "method": g.method}


@pytest.mark.parametrize("d, m, n, rate", [
    (2, 2, 3, 0.5), (2, 3, 4, 0.7), (2, 2, 6, 0.6), (3, 2, 3, 1.0), (3, 3, 2, 1.3), (4, 2, 2, 1.5),
])
def test_diagonal_oracle_matches_per_string_code(d, m, n, rate):
    rng = gen.stream(11, d * 100 + m * 10 + n)
    probs = gen.prob_vector(rng, m)
    states = [gen.diagonal_state(rng, d) for _ in range(m)]
    want = _program_scores(probs, states, n, rate)
    got = oracles.diagonal_scores(probs, states, n, rate)
    assert want["method"] == got["method"] == "exact-diagonal"
    for field in ("global_fid", "local_fid", "eta", "ceiling"):
        assert got[field] == pytest.approx(want[field], abs=1e-12), field


@pytest.mark.parametrize("d, m, n, rate", [(2, 2, 3, 0.7), (2, 3, 2, 0.5), (3, 2, 2, 1.0)])
def test_dense_oracle_matches_per_string_code(d, m, n, rate):
    rng = gen.stream(12, d * 100 + m * 10 + n)
    probs = gen.prob_vector(rng, m)
    states = [gen.dense_state(rng, d) for _ in range(m)]
    want = _program_scores(probs, states, n, rate)
    got = oracles.dense_scores(probs, states, n, rate)
    assert want["method"] == got["method"] == "exact-dense"
    for field in ("global_fid", "local_fid", "eta", "ceiling"):
        assert got[field] == pytest.approx(want[field], abs=checks.DENSE_TOL), field


def _inputs(workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}"
    gen.generate(workload, seed, str(workdir))
    return {p.name: p.read_text() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_varies_across_seeds(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path / "a")
    assert first == _inputs(workload, 5, tmp_path / "b")
    other = _inputs(workload, 6, tmp_path / "a")
    assert other.keys() == first.keys()
    assert other != first


def test_generator_keeps_work_fixed_across_seeds(tmp_path):
    a = gen.generate("ensemble-reports", 1, str(tmp_path / "a"))["batch"]
    b = gen.generate("ensemble-reports", 2, str(tmp_path / "b"))["batch"]
    assert [c[1] for c in a.calls] == [c[1] for c in b.calls]
    def shapes(batch):
        return {k: (kind, len(s), s[0].shape) for k, (kind, _, s) in batch.ensembles.items()}

    assert shapes(a) == shapes(b)


def test_blocksim_tasks_use_proper_subspaces(tmp_path):
    for workload in ("commuting-exact", "dense-block"):
        for t in gen.generate(workload, 3, str(tmp_path / workload))["block_tasks"]:
            assert gen.scheme_dim(t.rate, t.n, t.full_dim) < t.full_dim


def test_checks_reject_a_wrong_score(tmp_path):
    task = gen.generate("commuting-exact", 4, str(tmp_path))["block_tasks"][1]
    assert cli.main(task.argv) == 0
    text = open(task.out, encoding="utf-8").read()
    expected = checks.blocksim_expected(task)
    assert checks.check_blocksim(task, text, expected, 4, None) == []
    art = json.loads(text)
    art["global_fid"] += 1e-6
    assert checks.check_blocksim(task, json.dumps(art), expected, 4, None)


def test_tracer_counts_five_block_solves_per_dense_string(tmp_path):
    task = gen.generate("dense-block", 2, str(tmp_path))["block_tasks"][2]
    argv = list(task.argv)
    argv[argv.index("--N") + 1] = "3"
    argv[argv.index("--rate") + 1] = "0.5"
    original = blocksim.fidelity
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_task(task.label, task.d**3)
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert blocksim.fidelity is original
    layers = tracer.metrics(1, 0.0)
    assert layers["blocksim.strings_scored"] == 2 * 3**3
    assert layers["qmat.eigensolves_per_string"] == 5
    assert layers["blocksim.score_calls_per_task"] == 2
    assert list(layers) == [name for name, _ in PER_LAYER]


def test_printer_emits_every_benchmark_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[section]]
        assert declared == list(table)
        units = dict(table)
        metrics = {name: 1.5 for name in units}
        lines = run.result_lines(metrics, units, True, 10, 0)
        for (name, unit), line in zip(table, lines):
            assert line == f"{name} 1.5 {unit}"
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["metrics"] == {n: {"value": 1.5, "unit": u} for n, u in table}


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert np.isclose(run.percentile([7.0], 90), 7.0)


def test_reference_check_flags_a_changed_exact_field():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    art = dict(reference["qubit-N5-exact"])
    assert checks.check_reference(art, reference["qubit-N5-exact"]) == []
    art["local_fid"] += 1e-4
    assert checks.check_reference(art, reference["qubit-N5-exact"])
