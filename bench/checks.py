"""Output checks.  Each returns a list of problems; an empty list means correct.

Tolerances are fixed here, before any run:

* ``DIAG_TOL`` for exact-diagonal fields and closed forms.  The artifacts carry
  12 significant digits, so this leaves three orders of margin.
* ``DENSE_TOL`` for exact-dense fidelities.  The program takes square roots of
  rank-deficient D x D matrices, whose zero eigenvalues come back as rounding
  noise of order 1e-17 and contribute up to about 1e-8 each under the root.
* ``MC_SIGMAS``: a Monte Carlo field must lie within this many of its own
  reported standard errors of the exact value.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles

DIAG_TOL = 1e-9
DENSE_TOL = 2e-6
MC_SIGMAS = 8.0
CONTINUITY_THRESHOLD = math.sqrt(35.0 / 36.0)
CONTINUITY_COEFF = 2.0 + 2.0 * math.sqrt(2.0)


def _close(problems: list, what: str, got, want, tol: float) -> None:
    if got is None or not (abs(float(got) - float(want)) <= tol):
        problems.append(f"{what}: got {got!r}, expected {want!r} within {tol:g}")


def _in_unit(problems: list, what: str, x) -> None:
    if x is None or not (0.0 <= float(x) <= 1.0):
        problems.append(f"{what}: {x!r} outside [0, 1]")


def blocksim_expected(task) -> dict:
    """Oracle values for one blocksim task (exact scores over every string)."""
    score = oracles.diagonal_scores if task.diagonal else oracles.dense_scores
    return score(task.probs, task.states, task.n, task.rate)


def check_blocksim(task, text: str, expected: dict, seed: int, reference: dict | None) -> list:
    """Check one ``blocksim run`` artifact against the oracle and invariants."""
    problems: list = []
    try:
        art = json.loads(text)
    except (TypeError, ValueError) as exc:
        return [f"artifact is not JSON: {exc}"]
    if art.get("N") != task.n or art.get("rate") != task.rate or art.get("seed") != seed:
        problems.append(f"echoed N/rate/seed {art.get('N')}/{art.get('rate')}/{art.get('seed')}")
    _close(problems, "realized_rate", art.get("realized_rate"), expected["realized_rate"], DIAG_TOL)
    _close(problems, "eta", art.get("eta"), expected["eta"], DIAG_TOL)
    _close(problems, "ceiling", art.get("ceiling"), expected["ceiling"], DIAG_TOL)
    for field in ("global_fid", "local_fid", "ceiling"):
        _in_unit(problems, field, art.get(field))
    if task.mode == "mc":
        if art.get("method") != "monte-carlo":
            problems.append(f"method {art.get('method')!r}, expected 'monte-carlo'")
        for field in ("global_fid", "local_fid"):
            err = art.get(f"{field}_stderr")
            if err is None or not err > 0.0:
                problems.append(f"{field}_stderr {err!r} is not positive")
                continue
            _close(problems, f"{field} (Monte Carlo)", art.get(field), expected[field],
                   MC_SIGMAS * err + DENSE_TOL)
    else:
        if art.get("method") != expected["method"]:
            problems.append(f"method {art.get('method')!r}, expected {expected['method']!r}")
        tol = DIAG_TOL if expected["method"] == "exact-diagonal" else DENSE_TOL
        for field in ("global_fid", "local_fid"):
            _close(problems, field, art.get(field), expected[field], tol)
            if art.get(f"{field}_stderr") is not None:
                problems.append(f"{field}_stderr should be null on an exact sweep")
    if reference is not None:
        problems += check_reference(art, reference)
    return problems


def check_reference(art: dict, ref: dict) -> list:
    """Compare with the values the seed commit produced for the default seed."""
    problems: list = []
    for field, want in ref.items():
        got = art.get(field)
        if isinstance(want, str) or want is None:
            if got != want:
                problems.append(f"reference {field}: got {got!r}, recorded {want!r}")
        elif field in ("global_fid", "local_fid") and ref.get(f"{field}_stderr"):
            tol = MC_SIGMAS * max(ref[f"{field}_stderr"], art.get(f"{field}_stderr") or 0.0)
            _close(problems, f"reference {field}", got, want, tol)
        elif not field.endswith("_stderr"):
            _close(problems, f"reference {field}", got, want, DENSE_TOL)
    return problems


# ---------------------------------------------------------------------------
# ensemble-reports

def _report_entry(report: dict, name: str):
    for entry_name, kind, rate in report["entries"]:
        if entry_name == name:
            return rate
    return None


def check_call(batch, call, result, partner_result=None) -> list:
    """Check one library call's summarised result (see worker.summarise)."""
    _, fn, args = call
    problems: list = []

    def ens(arg):
        return batch.ensembles[arg["ens"]]

    def state(arg):
        name, i = arg["state"]
        return batch.ensembles[name][2][i]

    if fn == "rate_report":
        kind, probs, states = ens(args[0])
        chi, s_mean = oracles.holevo_and_entropy(probs, states)
        d = states[0].shape[0]
        _close(problems, "S entry", _report_entry(result, "mean-state entropy S"), s_mean, DIAG_TOL)
        _close(problems, "chi entry", _report_entry(result, "Holevo quantity chi"), chi, DIAG_TOL)
        _close(problems, "H(p) entry", _report_entry(result, "visible state-identity coding H(p)"),
               oracles.entropy_bits(probs), DIAG_TOL)
        if not (-DIAG_TOL <= chi <= s_mean + DIAG_TOL <= math.log2(d) + 2 * DIAG_TOL):
            problems.append(f"oracle ordering 0 <= chi <= S <= log2 d fails ({chi}, {s_mean})")
        lo, hi = result["bracket"]
        if not lo <= hi + 1e-8:
            problems.append(f"bracket lower {lo} above upper {hi}")
        lowers = [r for _, k, r in result["entries"] if k == "lower_bound"]
        uppers = [r for _, k, r in result["entries"] if k in ("upper_bound", "scheme_rate")]
        if lowers and uppers and max(lowers) > min(uppers) + 1e-8:
            problems.append("an upper bound or scheme rate lies below a lower bound")
        name = args[0]["ens"]
        if kind == "coin":
            p1, p2, a1, a2 = batch.coins[name]
            _close(problems, "Xi entry", _report_entry(result, "three-message protocol Xi"),
                   oracles.xi_rate(p1, p2, a1, a2), DIAG_TOL)
            _close(problems, "purification entry",
                   _report_entry(result, "canonical purification scheme"),
                   oracles.two_state_purification_rate(p1, p2, a1, a2), DIAG_TOL)
        elif kind == "block":
            eps, da = batch.extra[name]["eps"], batch.extra[name]["sigma_dim"]
            sigma_bar = oracles.mean_state(probs, [s[:da, :da] / eps for s in states])
            want = oracles.entropy_bits([eps, 1.0 - eps]) + eps * oracles.entropy_bits(
                np.linalg.eigvalsh(sigma_bar))
            _close(problems, "block-diagonal entry",
                   _report_entry(result, "block-diagonal scheme (shared tau)"), want, DIAG_TOL)
        elif kind == "hole":
            _close(problems, "hole-pattern entry",
                   _report_entry(result, "photographic-negative purification mixture"),
                   oracles.hole_pattern(d)["q"], DIAG_TOL)
    elif fn == "holevo":
        _, probs, states = ens(args[0])
        _close(problems, "holevo", result, oracles.holevo_and_entropy(probs, states)[0], DIAG_TOL)
    elif fn == "vn_entropy":
        rho = state(args[0])
        want = oracles.entropy_bits(np.linalg.eigvalsh(rho))
        _close(problems, "vn_entropy", result, want, DIAG_TOL)
    elif fn == "fidelity":
        _in_unit(problems, "fidelity", result)
        _close(problems, "fidelity", result, oracles.fidelity(state(args[0]), state(args[1])),
               DIAG_TOL)
        if partner_result is not None:
            _close(problems, "fidelity symmetry", result, partner_result, DIAG_TOL)
    elif fn in ("avg_ensemble_fidelity", "holevo_continuity_bound"):
        _, probs, states_a = ens(args[0])
        _, _, states_b = ens(args[1])
        fbar = sum(p * oracles.fidelity(a, b) for p, a, b in zip(probs, states_a, states_b))
        if fn == "avg_ensemble_fidelity":
            _in_unit(problems, "average fidelity", result)
            _close(problems, "average fidelity", result, fbar, DIAG_TOL)
        else:
            bound, applicable, got_fbar = result
            d = states_a[0].shape[0]
            _close(problems, "continuity avg_fidelity", got_fbar, fbar, DIAG_TOL)
            want = CONTINUITY_COEFF * math.sqrt(max(0.0, 1.0 - fbar)) * math.log2(d) + 1.0
            _close(problems, "continuity bound", bound, want, DIAG_TOL)
            if abs(fbar - CONTINUITY_THRESHOLD) > DIAG_TOL and applicable != (
                    fbar > CONTINUITY_THRESHOLD):
                problems.append(f"continuity applicable={applicable} at Fbar={fbar}")
    elif fn == "photographic_negative_report":
        want = oracles.hole_pattern(args[0]["int"])
        for field in ("q", "chi", "gap"):
            _close(problems, f"hole-pattern {field}", result[field], want[field], DIAG_TOL)
        spec, closed = np.asarray(result["spectrum"]), want["spectrum"]
        if spec.shape != closed.shape or np.max(np.abs(spec - closed)) > DIAG_TOL:
            problems.append("hole-pattern mixture spectrum differs from the closed form")
    elif fn == "xi_rate":
        want = oracles.xi_rate(*batch.coins[args[0]["coin"]])
        _close(problems, "xi_rate", result, want, DIAG_TOL)
    elif fn == "example9_simulate":
        _, _, a1, a2 = batch.coins[args[0]["coin"]]
        n = args[1]["int"]
        if sum(result["coin_counts"]) != n or result["inconsistent"] != 0:
            problems.append(f"protocol trace malformed: {result}")
        for count, heads, alpha in zip(result["coin_counts"], result["heads"], (a1, a2)):
            if count:
                spread = MC_SIGMAS * math.sqrt(alpha * (1.0 - alpha) / count) + 1e-12
                _close(problems, "empirical heads frequency", heads / count, alpha, spread)
    else:
        problems.append(f"no check for {fn}")
    return problems
