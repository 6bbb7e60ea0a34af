"""Record the dense-block reference artifacts at the default seed (0).

Usage (from the root of a checkout): python3 bench/record_reference.py

Runs each dense-block task once and writes its artifact fields to
bench/reference_dense_block.json.  The file checked in was recorded from the
commit that introduced the benchmark; re-record it only on purpose, because
run.py compares seed-0 runs against it.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import json
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import gen  # noqa: E402
from mixcomp import cli  # noqa: E402


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", "reference")
    try:
        tasks = gen.generate("dense-block", 0, workdir)["block_tasks"]
        reference = {}
        for t in tasks:
            if cli.main(t.argv) != 0:
                raise SystemExit(f"{t.label}: mixcomp failed")
            with open(t.out, encoding="utf-8") as fh:
                reference[t.label] = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(BENCH_DIR, "reference_dense_block.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
