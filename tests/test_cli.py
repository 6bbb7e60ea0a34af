import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mixcomp import blocksim, classical, cli, sampling, wire
from mixcomp.blocksim import ceiling_subspace_dim
from mixcomp.cli import main
from mixcomp.errors import ParseError, ValidationError
from mixcomp.measures import Ensemble
from mixcomp.purify import photographic_negative_ensemble, two_state_purification_rate

from conftest import diag_state, top_product_sum_oracle

SRC = Path(__file__).resolve().parents[1] / "src"


def write_state(path, matrix):
    path.write_text(wire.dumps(wire.matrix_to_json(matrix)))
    return str(path)


def write_ensemble(path, ensemble):
    path.write_text(wire.dumps(wire.ensemble_to_json(ensemble)))
    return str(path)


class TestWireFormats:
    def test_matrix_round_trip(self, rng):
        rho = sampling.random_density(3, rng)
        back = wire.matrix_from_json(json.loads(wire.dumps(wire.matrix_to_json(rho))))
        assert np.max(np.abs(back - rho.matrix)) <= 1e-11

    def test_ensemble_round_trip(self, rng):
        ens = sampling.random_ensemble(2, 3, rng)
        back = wire.ensemble_from_json(json.loads(wire.dumps(wire.ensemble_to_json(ens))))
        np.testing.assert_allclose(back.probs, ens.probs, atol=1e-11)

    def test_parse_errors_name_the_problem(self):
        with pytest.raises(ParseError, match="dim"):
            wire.matrix_from_json({"re": [[1.0]]})
        with pytest.raises(ParseError, match="entry count"):
            wire.matrix_from_json({"dim": 2, "re": [[1.0]]})
        with pytest.raises(ParseError, match="probs"):
            wire.ensemble_from_json({"states": []})
        # dim must be a JSON integer >= 1: not Infinity, not 2.5, not true.
        for text in ("Infinity", "2.5", "true"):
            with pytest.raises(ParseError, match="'dim' must be a positive integer, got "):
                wire.matrix_from_json(json.loads(f'{{"dim": {text}, "re": [[1.0]]}}'))
        with pytest.raises(ParseError, match="'probs' must be a list of numbers"):
            wire.ensemble_from_json({"probs": ["a", "b"], "states": []})
        with pytest.raises(ParseError, match="'states' must be a list"):
            wire.ensemble_from_json({"probs": [1.0], "states": 7})
        # Each matrix entry must be a JSON number: not "1", not true.
        for re in ([["1"]], [[True, False], [False, False]]):
            with pytest.raises(ParseError, match="matrix field 're' is not a numeric grid"):
                wire.matrix_from_json({"dim": len(re), "re": re})

    @pytest.mark.parametrize("argv, text, field", [
        (["entropy"], '{"dim": Infinity, "re": [[1.0]], "im": [[0.0]]}', "'dim'"),
        (["holevo", "--ensemble"], '{"probs": ["a", "b"], "states": []}', "'probs'"),
        (["holevo", "--ensemble"], '{"probs": [1.0], "states": 7}', "'states'"),
        (["entropy"], '{"dim": 2, "re": [[true, false], [false, false]]}', "'re'"),
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, argv, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: ") and field in captured.err

    def test_validation_names_invariant(self):
        payload = {"dim": 2, "re": [[0.6, 0.0], [0.0, 0.6]], "im": [[0.0, 0.0]] * 2}
        with pytest.raises(ValidationError, match="trace"):
            wire.density_from_json(payload)


class TestCliCommands:
    def test_fidelity_identical_files(self, tmp_path, capsys):
        path = write_state(tmp_path / "a.json", diag_state(0.5, 0.5))
        assert main(["fidelity", path, path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"fidelity": 1.0}

    def test_entropy(self, tmp_path, capsys):
        path = write_state(tmp_path / "a.json", diag_state(0.5, 0.5))
        assert main(["entropy", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"entropy_bits": 1.0}

    def test_holevo(self, tmp_path, capsys):
        ens = photographic_negative_ensemble(3)
        path = write_ensemble(tmp_path / "e.json", ens)
        assert main(["holevo", "--ensemble", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["holevo_bits"] - np.log2(1.5)) <= 1e-9

    def test_rates_report_json_and_csv(self, tmp_path, capsys):
        ens = Ensemble.from_lists(
            [0.5, 0.5], [diag_state(0.25, 0.75), diag_state(0.75, 0.25)]
        )
        path = write_ensemble(tmp_path / "e.json", ens)
        assert main(["rates", "report", "--ensemble", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [e["name"] for e in payload["entries"]]
        assert "Holevo quantity chi" in names
        assert payload["optimal_rate_bracket"]["lower"] <= payload["optimal_rate_bracket"]["upper"]

        assert main(["rates", "report", "--ensemble", path, "--csv"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "name,kind,rate_bits_per_signal"

    def test_purify_report(self, capsys):
        assert main(["purify", "report", "--dim", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == 3
        assert abs(payload["q"] - (payload["chi"] + payload["gap"])) <= 1e-9
        np.testing.assert_allclose(payload["spectrum"], [2 / 3, 1 / 6, 1 / 6], atol=1e-9)

    def test_classical_compare_grid(self, capsys):
        assert main(["classical", "compare", "--grid", "--grid-step", "0.25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epsilon_or_params,S_rho_bar,H_p,Xi,Upsilon,chi,conjectured_MI"
        assert len(lines) == 4  # eps in {0, 0.25, 0.5}
        last = lines[-1].split(",")
        assert float(last[3]) == 0.0  # Xi at eps = 1/2
        assert float(last[4]) == 0.0  # Upsilon at eps = 1/2

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf", "-inf"])
    def test_classical_compare_refuses_a_bad_grid_step(self, capsys, step):
        assert main(["classical", "compare", "--grid", f"--grid-step={step}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: DomainError: --grid-step must be finite and positive, got {float(step)}\n")

    @pytest.mark.parametrize("argv, message", [
        (["classical", "compare", "--grid", "--grid-step=9.99e-05"],
         "--grid-step 9.99e-05 gives more than GRID_ROW_CAP 5001 grid rows"),
        (["classical", "compare", "--grid", "--grid-step=1e-09"],
         "--grid-step 1e-09 gives more than GRID_ROW_CAP 5001 grid rows"),
        (["classical", "compare", "--grid-step=5e-324"],
         "--grid-step 5e-324 gives more than GRID_ROW_CAP 5001 grid rows"),
        (["classical", "simulate", "--n", "10000001"],
         "n_tosses 10000001 exceeds TOSS_CAP 10000000"),
        (["classical", "simulate", "--n", "10000000000"],
         "n_tosses 10000000000 exceeds TOSS_CAP 10000000"),
        (["purify", "report", "--dim", "257"],
         "photographic negative ensemble d = 257 exceeds HOLE_DIM_CAP 256"),
        (["purify", "report", "--dim", "1024"],
         "photographic negative ensemble d = 1024 exceeds HOLE_DIM_CAP 256"),
    ])
    def test_size_bounds_refused_before_any_array(self, capsys, argv, message):
        # Grid rows, tosses and the hole dimension are bounded before the
        # grid, the traces or the first state is built.
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: DimensionOverflow: {message}\n"
        assert peak < 2**20

    def test_grid_row_cap_admits_its_own_step(self, capsys, monkeypatch):
        # Step 1e-4 gives exactly GRID_ROW_CAP rows, so it is accepted (rows stubbed).
        monkeypatch.setattr(cli, "_compare_row", lambda label, src: [label])
        assert main(["classical", "compare", "--grid", "--grid-step=1e-4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + cli.GRID_ROW_CAP and lines[-1] == "0.5"

    def test_classical_compare_single_source(self, capsys):
        # Without --grid: one row for the source the options describe.
        assert main(["classical", "compare", "--p1", "0.3", "--alpha1", "0.6",
                     "--alpha2", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "p1=0.3;a1=0.6;a2=0.1"
        src = classical.CoinSource(0.3, 0.7, 0.6, 0.1)
        assert row[3] == f"{classical.xi_rate(src):.12g}"
        # Off the symmetric family, Upsilon is the pair's purification rate, not nan.
        assert row[4] == f"{two_state_purification_rate(src.as_ensemble()):.12g}"

    def test_classical_simulate_records_seed(self, capsys):
        assert main(["classical", "simulate", "--n", "2000", "--seed", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 9
        assert payload["n_tosses"] == 2000
        counts = payload["message_counts"]
        assert counts["M0"] + counts["M1"] + counts["M2"] == 2000

    def test_blocksim_run(self, tmp_path, capsys):
        ens = Ensemble.from_lists(
            [0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)]
        )
        path = write_ensemble(tmp_path / "e.json", ens)
        assert main([
            "blocksim", "run", "--ensemble", path, "--N", "8",
            "--rate", "1.2", "--mode", "exact",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N"] == 8
        assert payload["method"] == "exact-diagonal"
        assert payload["global_fid"] >= 1 - 2 * payload["eta"] - 1e-9
        assert 0.0 <= payload["ceiling"] <= 1.0

    @pytest.mark.parametrize("rate", ["100", "1e308"])
    def test_blocksim_run_past_log2_d_keeps_the_whole_space(self, tmp_path, capsys, rate):
        ens = Ensemble.from_lists([0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)])
        path = write_ensemble(tmp_path / "e.json", ens)
        assert main(["blocksim", "run", "--ensemble", path, "--N", "12", "--rate", rate]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eta"] == 0.0 and payload["realized_rate"] == 1.0
        assert abs(payload["ceiling"] - 1.0) <= 1e-12

    def test_rate_1e300_runs_in_bounded_memory(self, tmp_path):
        # At rate 1e300 a count of 2 ** ceil(4e300) would exhaust memory, so the
        # run is a child process under a 2 GiB address-space limit and a timeout.
        ens = Ensemble.from_lists([0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)])
        path = write_ensemble(tmp_path / "e.json", ens)
        script = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from mixcomp import blocksim, wire
from mixcomp.cli import main
[row] = blocksim.theorem7_demo(wire.load_ensemble({path!r}), 1e300, [4])
print(json.dumps([row.rate_up, row.scheme_dim, row.eta_plus, row.achieved]))
raise SystemExit(main(["blocksim", "run", "--ensemble", {path!r}, "--N", "12", "--rate", "1e300"]))
"""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        row, payload = result.stdout.split("\n", 1)
        assert json.loads(row) == [1e300, 16, 0.0, 1.0]
        payload = json.loads(payload)
        assert payload["eta"] == 0.0 and abs(payload["ceiling"] - 1.0) <= 1e-12

    def test_blocksim_run_commuting_past_dim_cap(self, tmp_path, capsys):
        # d^N = 65536 > DIM_CAP: the diagonal tables fit their budget, so the
        # sweep is exact and no block-sized matrix is built.
        ens = Ensemble.from_lists(
            [0.3, 0.7], [diag_state(0.9, 0.1), diag_state(0.2, 0.8)]
        )
        path = write_ensemble(tmp_path / "e.json", ens)
        assert main([
            "blocksim", "run", "--ensemble", path, "--N", "16",
            "--rate", "0.8", "--mode", "exact",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "exact-diagonal"
        retained = ceiling_subspace_dim(0.8, 16, 2**16)
        oracle = top_product_sum_oracle((0.41, 0.59), 16, retained)
        assert abs(payload["ceiling"] - oracle) <= 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        ens = Ensemble.from_lists(
            [0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)]
        )
        path = write_ensemble(tmp_path / "e.json", ens)
        outs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            assert main([
                "blocksim", "run", "--ensemble", path, "--N", "6",
                "--rate", "0.9", "--mode", "mc", "--samples", "500",
                "--seed", "3", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([
                "classical", "simulate", "--n", "5000", "--seed", "4",
                "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_error_paths(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["entropy", missing]) == 2
        assert "ParseError" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text(wire.dumps({"dim": 2, "re": [[0.8, 0.0], [0.0, 0.8]]}))
        assert main(["entropy", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "trace" in err

    @pytest.mark.parametrize("kind, fragment", [("directory", "cannot read"),
                                                 ("binary", "is not UTF-8 text")])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, kind, fragment):
        # A PermissionError takes the same OSError branch; it is not tested
        # because a process running as root reads every file.
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x00{")
        assert main(["entropy", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ") and fragment in err and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["probs", "states"])
    def test_holevo_rejects_nan_literal(self, tmp_path, capsys, where):
        payload = wire.ensemble_to_json(photographic_negative_ensemble(3))
        if where == "probs":
            payload["probs"][0] = float("nan")
        else:
            payload["states"][1]["re"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        assert "NaN" in path.read_text()
        assert main(["holevo", "--ensemble", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_dim_cap_flag(self, tmp_path, capsys, rng):
        # A dense source at N = 13 (D = 8192 > DIM_CAP): one string's 8 D^3
        # steps are over WORK_BUDGET, so it exits 2 before the scheme is built.
        ens = Ensemble.from_lists(
            [0.5, 0.5], [sampling.random_density(2, rng) for _ in range(2)]
        )
        path = write_ensemble(tmp_path / "e.json", ens)
        with contextlib.ExitStack() as stack:
            mocks = [stack.enter_context(mock.patch.object(blocksim, name))
                     for name in ("project_patch_scheme", "_score_string")]
            code = main(["blocksim", "run", "--ensemble", path, "--N", "13", "--rate", "0.8"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DimensionOverflow: Monte Carlo work of 2000 strings x 4398046773248 steps "
            f"exceeds WORK_BUDGET {blocksim.WORK_BUDGET} and no diagonal fast path applies\n"
        )
        for m in mocks:
            m.assert_not_called()

    def test_unscorable_blocksim_run_refused_before_the_scheme(self, tmp_path, capsys):
        # N = 22: tables of 2^23 elements exceed their budget, so each string
        # is one engine call of 2^18 + 22 * 2^22 steps.  Neither the exact
        # sweep of 2^22 strings nor auto's fallback to Monte Carlo over 2000
        # fits WORK_BUDGET; the 2^22 weights are never built.
        ens = Ensemble.from_lists(
            [0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)]
        )
        path = write_ensemble(tmp_path / "e.json", ens)
        for mode, label, scored in (("exact", "exact sweep", 4194304),
                                    ("auto", "Monte Carlo", 2000)):
            tracemalloc.start()
            try:
                with contextlib.ExitStack() as stack:
                    mocks = [stack.enter_context(mock.patch.object(blocksim, name)) for name in (
                        "project_patch_scheme", "block_generator", "_score_string",
                        "_diagonal_tables")]
                    code = main(["blocksim", "run", "--ensemble", path, "--N", "22",
                                 "--rate", "0.8", "--mode", mode])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: DimensionOverflow: {label} work of {scored} strings x 92536832 steps "
                f"exceeds WORK_BUDGET {blocksim.WORK_BUDGET} and the diagonal tables need "
                "8388608 elements, over the budget 4194304\n"
            )
            assert peak < 2**20
            for m in mocks:
                m.assert_not_called()

    @pytest.mark.parametrize("second, options, message", [
        ([[0.9, 0.2], [0.2, 0.1]], ["--N", "1000", "--mode", "mc", "--samples", "1"],
         "Monte Carlo work of 1 strings x 2^3003 steps exceeds WORK_BUDGET"),
        ([[0.9, 0.2], [0.2, 0.1]], ["--N", "5000", "--mode", "mc", "--samples", "1"],
         "Monte Carlo work of 1 strings x 2^15003 steps exceeds WORK_BUDGET"),
        (diag_state(0.1, 0.9), ["--N", "20000"],
         "kept-set mask of 2^20000 elements exceeds DIAGONAL_TABLE_BUDGET"),
    ], ids=["dense-1000", "dense-5000", "diagonal-20000"])
    def test_refusals_at_any_block_length_name_sizes_by_exponent(self, tmp_path, capsys,
                                                               second, options, message):
        # At N = 5000 and 20000, d^N has more digits than str() converts (4,300).
        ens = Ensemble.from_lists([0.5, 0.5], [diag_state(0.9, 0.1), second])
        path = write_ensemble(tmp_path / "e.json", ens)
        with mock.patch.object(blocksim, "project_patch_scheme") as build:
            code = main(["blocksim", "run", "--ensemble", path, "--rate", "0.6", *options])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DimensionOverflow: ") and message in captured.err
        assert len(captured.err) < 300
        build.assert_not_called()

    @pytest.mark.parametrize("dense, n, mode", [(True, 3, "mc"), (True, 11, "auto"),
                                                (False, 6, "mc")])
    def test_monte_carlo_draws_over_budget_refused_before_scoring(self, tmp_path, capsys, rng,
                                                                  dense, n, mode):
        # Drawing every pick first needs n_samples x N integers: one more
        # sample than the budget admits exits 2 before the scheme is built,
        # a pick is drawn or a string is scored.
        if dense:
            states = [sampling.random_density(2, rng) for _ in range(2)]
        else:
            states = [diag_state(0.9, 0.1), diag_state(0.1, 0.9)]
        path = write_ensemble(tmp_path / "e.json", Ensemble.from_lists([0.5, 0.5], states))
        samples = blocksim.DIAGONAL_TABLE_BUDGET // n + 1
        with contextlib.ExitStack() as stack:
            mocks = [stack.enter_context(mock.patch.object(blocksim, name)) for name in (
                "project_patch_scheme", "block_generator", "_score_string", "_diagonal_tables")]
            code = main(["blocksim", "run", "--ensemble", path, "--N", str(n), "--rate", "0.6",
                         "--mode", mode, "--samples", str(samples)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: DimensionOverflow: Monte Carlo draws of {samples} samples x {n} picks "
            f"exceed DIAGONAL_TABLE_BUDGET {blocksim.DIAGONAL_TABLE_BUDGET}\n"
        )
        for m in mocks:
            m.assert_not_called()

    @pytest.mark.parametrize("mode", ["mc", "exact"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_sample_count_refused_before_the_scheme(self, tmp_path, capsys,
                                                                 mode, samples):
        # _plan makes the refusal, so the scheme is never built, in either mode.
        ens = Ensemble.from_lists([0.3, 0.7], [diag_state(0.9, 0.1), diag_state(0.2, 0.8)])
        path = write_ensemble(tmp_path / "e.json", ens)
        with mock.patch.object(blocksim, "project_patch_scheme") as scheme:
            code = main(["blocksim", "run", "--ensemble", path, "--N", "20", "--rate", "0.8",
                         "--mode", mode, "--samples", samples])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: DomainError: n_samples must be >= 1, got {samples}\n")
        scheme.assert_not_called()

    @pytest.mark.parametrize("option, message", [
        (["--rate", "nan"], "rate must be finite"),
        (["--rate", "inf"], "rate must be finite"),
        (["--rate", "0.8", "--mode", "mc", "--samples", "0"], "n_samples must be >= 1"),
        (["--rate", "0.8", "--mode", "mc", "--samples", "-3"], "n_samples must be >= 1"),
        (["--rate", "0.8", "--workers", "0"], "workers must be >= 1, got 0"),
        (["--rate", "0.8", "--workers", "-3"], "workers must be >= 1, got -3"),
    ])
    def test_blocksim_run_rejects_bad_rates_and_sample_counts(self, tmp_path, capsys,
                                                              option, message):
        ens = Ensemble.from_lists(
            [0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)]
        )
        path = write_ensemble(tmp_path / "e.json", ens)
        assert main(["blocksim", "run", "--ensemble", path, "--N", "4", *option]) == 2
        err = capsys.readouterr().err
        assert "DomainError" in err and message in err

    @pytest.mark.parametrize("option", [["--format", "csv"], ["--workers", "2"],
                                        ["--dim-cap", "64"], ["--seed", "1"], ["--seed=0"]])
    def test_options_nothing_reads_are_refused(self, tmp_path, capsys, option):
        # --seed is refused where no stochastic step reads it and no payload echoes it.
        path = write_state(tmp_path / "a.json", diag_state(0.5, 0.5))
        ens = write_ensemble(tmp_path / "e.json", Ensemble.from_lists(
            [0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)]))
        for command in (["fidelity", path, path], ["entropy", path],
                        ["holevo", "--ensemble", ens], ["purify", "report", "--dim", "3"],
                        ["classical", "compare"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, *option])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestParserReuse:
    """main parses with one parser per process, built on first use."""

    @pytest.fixture
    def inputs(self, tmp_path):
        ens = Ensemble.from_lists([0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)])
        return write_ensemble(tmp_path / "e.json", ens), write_state(
            tmp_path / "a.json", diag_state(0.7, 0.3))

    @staticmethod
    def sequence(ensemble, state, out_dir):
        return [
            ["blocksim", "run", "--ensemble", ensemble, "--N", "6", "--rate", "0.8",
             "--mode", "mc", "--samples", "300", "--seed", "2",
             "--out", str(out_dir / "blocksim.json")],
            ["fidelity", state, state, "--out", str(out_dir / "fidelity.json")],
            ["rates", "report", "--ensemble", ensemble, "--csv",
             "--out", str(out_dir / "rates.csv")],
        ]

    def test_build_parser_runs_once(self, monkeypatch, inputs, tmp_path):
        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for argv in self.sequence(*inputs, tmp_path):
                assert main(argv) == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    def test_reused_parser_gives_fresh_parser_artifacts(self, inputs, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        fresh.mkdir()
        for argv in self.sequence(*inputs, reused):
            assert main(argv) == 0
        for argv in self.sequence(*inputs, fresh):
            args = cli.build_parser().parse_args(argv)
            assert args.func(args) is None
        for name in ("blocksim.json", "fidelity.json", "rates.csv"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("bad", [
        ["blocksim", "run", "--N", "6"],
        ["blocksim", "run", "--ensemble", "e.json", "--N", "6", "--rate", "0.8",
         "--mode", "fast"],
        ["fidelity"],
    ])
    def test_argparse_errors_exit_2_after_a_successful_call(self, inputs, tmp_path, capsys,
                                                            bad):
        argv = self.sequence(*inputs, tmp_path)[1]
        assert main(argv) == 0
        first = (tmp_path / "fidelity.json").read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert main(argv) == 0
        assert (tmp_path / "fidelity.json").read_bytes() == first


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "0 failed" in out.splitlines()[-1]
