import json

import numpy as np
import pytest

from mixcomp import sampling, wire
from mixcomp.cli import main
from mixcomp.errors import ParseError, ValidationError
from mixcomp.measures import Ensemble
from mixcomp.purify import photographic_negative_ensemble

from conftest import diag_state


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

    def test_dim_cap_flag(self, tmp_path, capsys):
        ens = Ensemble.from_lists(
            [0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)]
        )
        path = write_ensemble(tmp_path / "e.json", ens)
        assert main([
            "blocksim", "run", "--ensemble", path, "--N", "8",
            "--rate", "1.0", "--dim-cap", "64",
        ]) == 2
        assert "DimensionOverflow" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--format", "csv"], ["--workers", "2"], ["--dim-cap", "64"]])
    def test_options_nothing_reads_are_refused(self, tmp_path, capsys, option):
        path = write_state(tmp_path / "a.json", diag_state(0.5, 0.5))
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", path, path, *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "0 failed" in out.splitlines()[-1]
