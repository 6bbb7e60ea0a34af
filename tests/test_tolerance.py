import ast
import math
import pathlib

import numpy as np
import pytest

from mixcomp import tolerance
from mixcomp.tolerance import STRUCTURE_TOL, Tolerance, max_abs

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mixcomp"
POLICY = SRC / "tolerance.py"


class TestPolicy:
    @pytest.mark.parametrize("defect", [math.nan, [0.0, math.nan], np.array([[math.nan]])])
    def test_nan_is_never_admitted(self, defect):
        assert not STRUCTURE_TOL.admits(defect)

    def test_admits_up_to_and_including_the_tolerance(self):
        assert STRUCTURE_TOL.admits(1e-8) and STRUCTURE_TOL.admits([0.0, -1.0, 1e-8])
        assert not STRUCTURE_TOL.admits(2e-8) and not STRUCTURE_TOL.admits(math.inf)

    def test_max_abs(self):
        assert max_abs(np.zeros((0, 0))) == 0.0
        assert max_abs([[1.0, -3.0j]]) == 3.0
        assert math.isnan(max_abs([1.0, math.nan]))

    def test_at_most_eight_constants_each_a_tolerance(self):
        names = [n for n, v in vars(tolerance).items() if isinstance(v, Tolerance)]
        assert 1 <= len(names) <= 8
        assert f"{tolerance.PSD_TOL}" == "1e-09"


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_tolerance_lives_in_the_policy_module():
    # Guard: a module-level *_TOL, *_EPS or *_FLOOR outside tolerance.py, or a
    # ``tol`` parameter or keyword anywhere, would start a second policy.
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        if path != POLICY:
            for node in tree.body:
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, ast.AnnAssign) else []
                )
                for t in targets:
                    if isinstance(t, ast.Name) and t.id.endswith(("_TOL", "_EPS", "_FLOOR")):
                        problems.append(f"{path.name}:{node.lineno} defines {t.id}")
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.arg == "tol":
                problems.append(f"{path.name}:{node.lineno} has a tol parameter")
            if isinstance(node, ast.keyword) and node.arg == "tol":
                problems.append(f"{path.name}:{node.lineno} passes tol=")
    assert problems == []
