"""Every name that src/mixcomp defines is used by the package, a demo or the benchmark.

A top-level function or class, or a public method or property, whose name
appears nowhere outside its own definition is code that only its tests call.
The search reads every word of src/mixcomp (whose __init__ imports are the
package's exports), demos/ and bench/, but not bench/tests/.  An import
elsewhere is not a use, and a name used only inside unused definitions is
unused too: the search repeats until no more names fall.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixcomp"

# Names kept although only tests call them, each with a test that needs it.
ALLOWED = {
    "random_pure_state": "tests/test_measures.py::TestEntropies::test_pure_state_zero",
    "ensemble_to_json": "tests/test_cli.py::write_ensemble, which writes the CLI tests' ensembles",
    "BlockSource.string_prob": "tests/test_blocksim.py::per_string_sweep, the per-string oracle",
    "CoinSource.average_heads":
        "tests/test_classical.py::TestRateComparison::test_holevo_equals_mutual_information",
}


class Definition(NamedTuple):
    qualname: str
    path: Path
    first: int
    last: int

    def holds(self, use: tuple[Path, int]) -> bool:
        return use[0] == self.path and self.first <= use[1] <= self.last


def definitions(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield Definition(node.name, path, node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield Definition(f"{node.name}.{item.name}", path, item.lineno, item.end_lineno)


def searched() -> list[Path]:
    bench = [p for p in sorted((ROOT / "bench").rglob("*.py"))
             if "tests" not in p.relative_to(ROOT / "bench").parts]
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").rglob("*.py")) + bench


def uses() -> dict[str, set[tuple[Path, int]]]:
    """Every word of the searched files, with the (file, line) places it appears."""
    found = defaultdict(set)
    for path in searched():
        text = path.read_text()
        imports = set()
        if path != PACKAGE / "__init__.py":
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    imports.update(range(node.lineno, node.end_lineno + 1))
        for number, line in enumerate(text.splitlines(), 1):
            if number not in imports:
                for word in re.findall(r"\w+", line):
                    found[word].add((path, number))
    return found


def unused_names(kept=()) -> list[str]:
    """Names that fall, where the ``kept`` names and what they use stay."""
    defs = [d for path in sorted(PACKAGE.glob("*.py")) for d in definitions(path)
            if d.qualname not in kept]
    found = uses()
    dead: list[Definition] = []
    while True:
        fallen = [d for d in defs if d not in dead and all(
            any(owner.holds(use) for owner in [d, *dead])
            for use in found[d.qualname.rsplit(".", 1)[-1]])]
        if not fallen:
            return sorted(d.qualname for d in dead)
        dead += fallen


def test_no_name_is_called_only_by_its_tests():
    assert unused_names(ALLOWED) == []
    # An allowed name that gains a use leaves the list.
    assert set(ALLOWED) <= set(unused_names())
