import ast
import math
import pathlib

import numpy as np
import pytest

from mixcomp import errors, tolerance
from mixcomp.cli import main
from mixcomp.errors import DimensionOverflow, DomainError
from mixcomp.tolerance import STRUCTURE_TOL, Tolerance, max_abs, whole_number

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


class TestWholeNumber:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 3.0, np.float32(3.0)])
    def test_whole_numbers_pass_as_int(self, value):
        got = whole_number(value, "n", 1, 3)
        assert got == 3 and type(got) is int

    def test_a_seed_keeps_every_bit(self):
        assert whole_number(np.uint64(2**64 - 1), "seed", 0, 2**64 - 1) == 2**64 - 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, np.float64(1.5),
                                       True, np.bool_(True), "2", None, 0, 4, 10**400])
    def test_anything_else_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match=r"^n must be a whole number in \[1, 3\], got "):
            whole_number(value, "n", 1, 3)

    def test_no_upper_bound_by_default(self):
        assert whole_number(10**400, "n") == 10**400
        with pytest.raises(DomainError, match=r"^n must be a whole number >= 0, got -1$"):
            whole_number(-1, "n")

    def test_over_a_cap_is_a_dimension_overflow(self):
        assert whole_number(4096.0, "dim", 1, cap=("DIM_CAP", 4096)) == 4096
        with pytest.raises(DimensionOverflow, match=r"^dim = 4097 exceeds DIM_CAP 4096$"):
            whole_number(4097, "dim", 1, cap=("DIM_CAP", 4096))


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


def test_one_whole_number_rule():
    # Guard: x == floor(x) (or int, trunc) is the whole-number test of
    # tolerance.whole_number only; a copy elsewhere starts a second rule.
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        helper = {id(node) for f in tree.body if path == POLICY
                  and isinstance(f, ast.FunctionDef) and f.name == "whole_number"
                  for node in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare) or id(node) in helper:
                continue
            sides = [node.left, *node.comparators]
            rounded = {ast.dump(c.args[0]) for c in sides
                       if isinstance(c, ast.Call) and len(c.args) == 1
                       and ast.unparse(c.func).split(".")[-1] in ("floor", "int", "trunc")}
            if any(ast.dump(c) in rounded for c in sides):
                problems.append(f"{path.name}:{node.lineno} tests for a whole number")
    assert problems == []


def test_no_size_bound_is_a_parameter():
    # Guard: each size bound is a fixed module constant checked where its
    # array is built; a ``*_cap`` parameter would make it a knob again.
    problems = [
        f"{path.name}:{node.lineno} has a {node.arg} parameter"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.arg) and node.arg.endswith("_cap")
    ]
    assert problems == []


def test_one_route_to_a_state_spectrum():
    # Guard: a state's kept eigenpairs are read and set only in qmat.py, behind
    # DensityOperator.eigenpairs and eigenvalues; a ``pairs`` parameter would
    # thread them around the state again.  Every spectrum is solved by eigh,
    # through qmat._eig: only the fidelity orientations
    # (measures._sqrt_fid_oriented) call eigvalsh, and no state class keeps a
    # second route to its eigenvalues, as _MeanState did.
    problems = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "_MeanState" in text:
            problems.append(f"{path.name} names _MeanState")
        tree = ast.parse(text, filename=str(path))
        oriented = {id(node) for f in tree.body if path.name == "measures.py"
                    and isinstance(f, ast.FunctionDef) and f.name == "_sqrt_fid_oriented"
                    for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.arg == "pairs":
                problems.append(f"{path.name}:{node.lineno} has a pairs parameter")
            named = (node.attr if isinstance(node, ast.Attribute)
                     else node.id if isinstance(node, ast.Name)
                     else node.name if isinstance(node, ast.alias)
                     else node.value if isinstance(node, ast.Constant) else None)
            if named == "_spectrum" and path.name != "qmat.py":
                problems.append(f"{path.name}:{node.lineno} reads or sets _spectrum")
            if named == "eigvalsh" and id(node) not in oriented:
                problems.append(f"{path.name}:{node.lineno} calls eigvalsh")
    assert problems == []


def test_no_measure_builds_a_square_root_matrix():
    # Guard: measures read a state's eigenpairs, not V sqrt(L) V^dag.  Only
    # the public qmat.matrix_sqrt_psd builds a root (qmat._spectrum_root), and
    # no module keeps a stack of roots (_roots) or a root-taking fidelity
    # (sqrt_fidelity_from_roots) beside the eigenpair formula.
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        allowed = {id(node) for f in tree.body if path.name == "qmat.py"
                   and isinstance(f, ast.FunctionDef) and f.name == "matrix_sqrt_psd"
                   for node in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1]
                    == "_spectrum_root" and id(node) not in allowed):
                problems.append(f"{path.name}:{node.lineno} calls _spectrum_root")
            if isinstance(node, ast.FunctionDef) and node.name in ("_roots",
                                                                   "sqrt_fidelity_from_roots"):
                problems.append(f"{path.name}:{node.lineno} defines {node.name}")
    assert problems == []


def test_no_package_error_drives_control_flow():
    # Guard: a handler that catches a package error turns a refusal into a
    # branch.  Only the CLI's top level may catch one, to exit 2 with it.
    package_errors = {name for name, value in vars(errors).items()
                      if isinstance(value, type) and issubclass(value, errors.MixcompError)}
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        allowed = {id(node) for f in tree.body
                   if path.name == "cli.py" and isinstance(f, ast.FunctionDef) and f.name == "main"
                   for node in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None or id(node) in allowed:
                continue
            caught = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                      if isinstance(n, (ast.Name, ast.Attribute))}
            for name in sorted(caught & package_errors):
                problems.append(f"{path.name}:{node.lineno} catches {name}")
    assert problems == []


def test_dim_cap_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["blocksim", "run", "--ensemble", "e.json", "--N", "8", "--rate", "1.0",
              "--dim-cap", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dim-cap" in capsys.readouterr().err
