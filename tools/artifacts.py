"""Write every artifact the program produces on the benchmark's inputs, one file each.

Usage: python3 tools/artifacts.py OUTDIR

Run it in two checkouts and compare the two directories with ``diff -r``: an
empty diff means the change left every artifact byte-identical.  It writes:

* the ``blocksim run`` outputs of the ``commuting-exact`` and ``dense-block``
  tasks at seeds 1-3;
* every ``ensemble-reports`` library result at seeds 1-3, summarised as the
  benchmark checks it;
* ``holevo`` and ``rates report`` (JSON and CSV) on those seeds' batch ensembles;
* ``purify report --dim 3..16``, ``classical compare --grid`` at the default
  step and at 0.001, and ``selftest`` at seeds 0-3;
* the stdout of every demo.

Inputs come from ``bench/gen.py`` and results are read by ``bench/worker.py``,
both imported and left unchanged.  BLAS runs on one thread, nothing is timed,
and nothing is written outside OUTDIR and a temporary directory.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import json
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen
import worker
from mixcomp import cli

SEEDS = (1, 2, 3)


def run_cli(out: Path, *argv: str) -> None:
    """One CLI call writing to ``out``; a nonzero exit status is appended to it."""
    status = cli.main([*argv, "--out", str(out)])
    if status:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(f"exit status {status}\n")


def main(outdir: str) -> int:
    out = Path(outdir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # Relative input paths: the outputs that echo them do not name the directory.
        os.chdir(tmp)
        for seed in SEEDS:
            for workload in ("commuting-exact", "dense-block"):
                spec = gen.generate(workload, seed, f"{workload}-{seed}")["spec"]
                for task in spec["cli_tasks"]:
                    run_cli(out / f"blocksim-{workload}-s{seed}-{task['id']}.json", *task["argv"])
            made = gen.generate("ensemble-reports", seed, f"reports-{seed}")
            for task in worker.api_tasks(made["spec"]):
                (out / f"reports-s{seed}-{task.id}.json").write_text(task.read(task.call()))
            for name, (_, probs, states) in made["batch"].ensembles.items():
                path = f"reports-{seed}/{name}.json"
                Path(path).write_text(json.dumps(gen.ensemble_json(probs, states)))
                run_cli(out / f"holevo-s{seed}-{name}.json", "holevo", "--ensemble", path)
                report = ("rates", "report", "--ensemble", path)
                run_cli(out / f"rates-s{seed}-{name}.json", *report)
                run_cli(out / f"rates-s{seed}-{name}.csv", *report, "--csv")
        os.chdir(home)
    for d in range(3, 17):
        run_cli(out / f"purify-d{d}.json", "purify", "report", "--dim", str(d))
    run_cli(out / "classical-grid.csv", "classical", "compare", "--grid")
    run_cli(out / "classical-grid-0.001.csv", "classical", "compare", "--grid",
            "--grid-step", "0.001")
    for seed in range(4):
        run_cli(out / f"selftest-s{seed}.txt", "selftest", "--seed", str(seed))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        shown = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, check=True,
                               capture_output=True, text=True)
        (out / f"demo-{demo.stem}.txt").write_text(shown.stdout)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
