"""The suite's own pytest settings report a failing Hypothesis property as a failure."""

import json
import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_prints_its_falsifying_example(pytester):
    # A fresh pytest run under this project's warning filters, not an INTERNALERROR.
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    filters = ",\n".join(json.dumps(f) for f in options["filterwarnings"])
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = [\n{filters}\n]\n")
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
