"""JSON/CSV wire formats used by the command-line interface.

Matrix schema:   {"dim": d, "re": [[...]], "im": [[...]]}
Ensemble schema: {"probs": [...], "states": [matrix, ...]}

All floats are emitted at 12 significant digits with '.' decimal separators,
so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import ParseError
from .measures import Ensemble
from .qmat import DensityOperator, as_density


def fmt_float(x: float) -> float:
    """Round-trip a float through 12 significant digits for stable output."""
    return float(f"{float(x):.12g}")


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, (np.floating,)):
        return fmt_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dumps(payload: dict) -> str:
    """Deterministic JSON text: rounded floats, sorted keys, newline-terminated."""
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


def matrix_to_json(m) -> dict:
    a = np.asarray(m.matrix if isinstance(m, DensityOperator) else m, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "re": np.real(a).tolist(),
        "im": np.imag(a).tolist(),
    }


def _as_grid(obj, d: int, key: str) -> np.ndarray:
    try:
        grid = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix field '{key}' is not a numeric grid: {exc}") from exc
    if grid.shape != (d, d):
        raise ParseError(
            f"matrix field '{key}' has shape {grid.shape}, expected ({d}, {d}); "
            "entry count must equal dim x dim"
        )
    # np.asarray reads "1" and true as 1.0: each entry must be a JSON number.
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for row in obj for x in row):
        raise ParseError(f"matrix field '{key}' is not a numeric grid: entries must be numbers")
    return grid


def matrix_from_json(payload: dict, name: str = "matrix") -> np.ndarray:
    if not isinstance(payload, dict):
        raise ParseError(f"{name}: expected a JSON object with dim/re/im")
    d = payload.get("dim")
    # A JSON integer: 2.5, true, Infinity and a missing field are not dimensions.
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ParseError(f"{name}: 'dim' must be a positive integer, got {d!r}")
    if "re" not in payload:
        raise ParseError(f"{name}: missing 're' field")
    re = _as_grid(payload["re"], d, "re")
    im = _as_grid(payload.get("im", np.zeros((d, d))), d, "im")
    return re + 1j * im


def density_from_json(payload: dict, name: str = "state") -> DensityOperator:
    return as_density(matrix_from_json(payload, name), name)


def ensemble_to_json(e: Ensemble) -> dict:
    return {
        "probs": e.probs.tolist(),
        "states": [matrix_to_json(x) for x in e.matrices],
    }


def ensemble_from_json(payload: dict) -> Ensemble:
    if not isinstance(payload, dict):
        raise ParseError("ensemble: expected a JSON object with probs/states")
    if "probs" not in payload or "states" not in payload:
        raise ParseError("ensemble: must carry 'probs' and 'states' fields")
    probs, states = payload["probs"], payload["states"]
    if not (isinstance(probs, list) and all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs)):
        raise ParseError("ensemble: 'probs' must be a list of numbers")
    if not isinstance(states, list):
        raise ParseError("ensemble: 'states' must be a list of state objects")
    return Ensemble.from_lists(
        probs, [matrix_from_json(s, f"ensemble state {i}") for i, s in enumerate(states)])


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_density(path: str) -> DensityOperator:
    return density_from_json(load_json(path), name=path)


def load_ensemble(path: str) -> Ensemble:
    return ensemble_from_json(load_json(path))


def csv_lines(header: list[str], rows: list[list]) -> str:
    """Locale-free CSV with '.' decimals and 12-significant-digit floats."""
    def cell(v) -> str:
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.12g}"
        return str(v)

    out = [",".join(header)]
    out.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(out) + "\n"
