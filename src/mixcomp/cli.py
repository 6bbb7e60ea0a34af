"""Command-line interface.

Subcommands cover the whole library surface: fidelity/entropy/holevo on JSON
inputs, rate reports, purification reports, the classical coin protocol
(exact comparison grid and seeded simulation), the block-coding simulator,
and a selftest that runs every module's invariant suite.

Identical invocations (including any seed, which defaults to 0) produce
byte-identical output artifacts.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import blocksim, classical, purify, rates, wire
from .errors import DimensionOverflow, DomainError, MixcompError
from .measures import fidelity, holevo, vn_entropy

#: Most rows ``classical compare`` takes a --grid-step for: steps down to 1e-4,
#: at about 0.5 ms a row.
GRID_ROW_CAP = 5001


def _add_common(parser: argparse.ArgumentParser, seed: bool = False) -> None:
    """--out, and --seed on the subcommands that read or echo it."""
    parser.add_argument("--out", help="write the artifact here instead of stdout")
    if seed:
        parser.add_argument("--seed", type=int, default=0,
                            help="seed for any stochastic step (default 0)")


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rate_report_payload(report: rates.RateReport, seed: int) -> dict:
    lo, hi = report.bracket()
    return {
        "ensemble": report.ensemble,
        "seed": seed,
        "entries": [
            {"name": e.name, "rate": e.rate, "kind": e.kind} for e in report.entries
        ],
        "optimal_rate_bracket": {"lower": lo, "upper": hi},
    }


def _rate_report_csv(report: rates.RateReport) -> str:
    rows = [[e.name, e.kind, e.rate] for e in report.entries]
    return wire.csv_lines(["name", "kind", "rate_bits_per_signal"], rows)


def cmd_fidelity(args) -> None:
    a = wire.load_density(args.state_a)
    b = wire.load_density(args.state_b)
    _emit(wire.dumps({"fidelity": fidelity(a, b)}), args)


def cmd_entropy(args) -> None:
    rho = wire.load_density(args.state)
    _emit(wire.dumps({"entropy_bits": vn_entropy(rho)}), args)


def cmd_holevo(args) -> None:
    ensemble = wire.load_ensemble(args.ensemble)
    _emit(wire.dumps({"holevo_bits": holevo(ensemble)}), args)


def cmd_rates_report(args) -> None:
    ensemble = wire.load_ensemble(args.ensemble)
    report = rates.rate_report(ensemble, label=args.ensemble)
    if args.csv:
        _emit(_rate_report_csv(report), args)
    else:
        _emit(wire.dumps(_rate_report_payload(report, args.seed)), args)


def cmd_purify_report(args) -> None:
    report = purify.photographic_negative_report(args.dim)
    payload = {
        "d": report.d,
        "spectrum": report.mixture_spectrum.tolist(),
        "q": report.q,
        "chi": report.chi,
        "gap": report.gap,
    }
    _emit(wire.dumps(payload), args)


def _compare_row(label, src: classical.CoinSource) -> list:
    # The CSV's columns are rate_report entries; conjectured_MI is chi, the
    # mutual information of this commuting source.
    rate = {e.name: e.rate for e in rates.rate_report(src.as_ensemble()).entries}
    return [label, *(rate[name] for name in (
        "mean-state entropy S", "visible state-identity coding H(p)", "three-message protocol Xi",
        "canonical purification scheme", "Holevo quantity chi", "Holevo quantity chi"))]


def cmd_classical_compare(args) -> None:
    header = ["epsilon_or_params", "S_rho_bar", "H_p", "Xi", "Upsilon", "chi", "conjectured_MI"]
    if not 0.0 < args.grid_step < np.inf:
        raise DomainError(f"--grid-step must be finite and positive, got {args.grid_step}")
    # The grid runs to just past 1/2; np.arange gives it ceil(stop / step) rows.
    stop = 0.5 + 1e-12
    if stop / args.grid_step > GRID_ROW_CAP:
        raise DimensionOverflow(
            f"--grid-step {args.grid_step} gives more than GRID_ROW_CAP {GRID_ROW_CAP} grid rows")
    rows = []
    if args.grid:
        for eps in np.arange(0.0, stop, args.grid_step):
            eps = float(round(eps, 10))
            src = classical.CoinSource(0.5, 0.5, eps, 1.0 - eps)
            rows.append(_compare_row(eps, src))
    else:
        src = classical.CoinSource(args.p1, 1.0 - args.p1, args.alpha1, args.alpha2)
        rows.append(_compare_row(
            f"p1={args.p1:g};a1={args.alpha1:g};a2={args.alpha2:g}", src
        ))
    _emit(wire.csv_lines(header, rows), args)


def cmd_classical_simulate(args) -> None:
    src = classical.CoinSource(args.p1, 1.0 - args.p1, args.alpha1, args.alpha2)
    trace = classical.example9_simulate(src, args.n, seed=args.seed)
    law = classical.analytic_output_law(src)
    empirical = trace.empirical_heads_given_coin()
    msg_counts = {f"M{m}": int(np.sum(trace.message_sequence == m)) for m in (0, 1, 2)}
    payload = {
        "seed": args.seed,
        "n_tosses": args.n,
        "coins_swapped_internally": trace.swapped,
        "message_counts": msg_counts,
        "empirical_heads_given_coin": {str(k): v for k, v in empirical.items()},
        "analytic_heads_given_coin": {"1": law[0, 0], "2": law[1, 0]},
        "xi_rate_bits_per_toss": classical.xi_rate(src),
    }
    _emit(wire.dumps(payload), args)


def cmd_blocksim_run(args) -> None:
    ensemble = wire.load_ensemble(args.ensemble)
    source = blocksim.BlockSource.build(ensemble, args.n_blocks)
    # Refuse an unscorable request before the scheme's d^N weights are built.
    blocksim.project_patch_plan(source, args.mode, args.samples)
    scheme = blocksim.project_patch_scheme(source, args.rate)
    kwargs = dict(mode=args.mode, n_samples=args.samples, seed=args.seed,
                  workers=max(1, args.workers))
    g = blocksim.global_fidelity_score(source, scheme, **kwargs)
    loc = blocksim.local_fidelity_score(source, scheme, **kwargs)
    ceiling, _ = blocksim.lemma_a1_ceiling(source, args.rate)
    payload = {
        "seed": args.seed,
        "rate": args.rate,
        "realized_rate": float(np.log2(scheme.channel_dim)) / args.n_blocks,
        "N": args.n_blocks,
        "global_fid": g.value,
        "global_fid_stderr": g.stderr,
        "local_fid": loc.value,
        "local_fid_stderr": loc.stderr,
        "method": g.method,
        "ceiling": ceiling,
        "eta": scheme.subspace.eta,
    }
    _emit(wire.dumps(payload), args)


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(seed=args.seed)
    total_pass = total_fail = 0
    lines = []
    for r in results:
        lines.append(f"{r.name}: {r.passed} passed, {r.failed} failed")
        for msg in r.failures:
            lines.append(f"  FAIL {msg}")
        total_pass += r.passed
        total_fail += r.failed
    lines.append(f"total: {total_pass} passed, {total_fail} failed (seed {args.seed})")
    _emit("\n".join(lines) + "\n", args)
    return 0 if total_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcomp",
        description="Rates, fidelities, and coding simulations for ensembles of mixed states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", help="Bures-Uhlmann fidelity of two state files")
    p.add_argument("state_a")
    p.add_argument("state_b")
    _add_common(p)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("entropy", help="von Neumann entropy of a state file (bits)")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("holevo", help="Holevo quantity of an ensemble file (bits)")
    p.add_argument("--ensemble", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_holevo)

    p_rates = sub.add_parser("rates", help="rate bounds and scheme rates")
    rates_sub = p_rates.add_subparsers(dest="rates_command", required=True)
    p = rates_sub.add_parser("report", help="bracket the optimal rate for an ensemble")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_rates_report)

    p_pur = sub.add_parser("purify", help="purification-based compression reports")
    pur_sub = p_pur.add_subparsers(dest="purify_command", required=True)
    p = pur_sub.add_parser("report", help="photographic-negative mixture report")
    p.add_argument("--dim", type=int, required=True, help="signal dimension d >= 3")
    _add_common(p)
    p.set_defaults(func=cmd_purify_report)

    p_cl = sub.add_parser("classical", help="two-coin source: rates and simulation")
    cl_sub = p_cl.add_subparsers(dest="classical_command", required=True)
    p = cl_sub.add_parser("compare", help="CSV of rates for a coin source or an epsilon grid")
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--alpha1", type=float, default=0.25)
    p.add_argument("--alpha2", type=float, default=0.75)
    p.add_argument("--grid", action="store_true",
                   help="sweep the symmetric family over epsilon in [0, 1/2]")
    p.add_argument("--grid-step", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=cmd_classical_compare)

    p = cl_sub.add_parser("simulate", help="seeded protocol run with empirical output laws")
    p.add_argument("--n", type=int, required=True, help="number of coin tosses")
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--alpha1", type=float, default=0.25)
    p.add_argument("--alpha2", type=float, default=0.75)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_classical_simulate)

    p_bs = sub.add_parser("blocksim", help="block coding simulator")
    bs_sub = p_bs.add_subparsers(dest="blocksim_command", required=True)
    p = bs_sub.add_parser("run", help="score project-and-patch at a rate and block length")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--N", dest="n_blocks", type=int, required=True)
    p.add_argument("--rate", type=float, required=True, help="target qubits/signal")
    p.add_argument("--mode", choices=("auto", "exact", "mc"), default="auto")
    p.add_argument("--samples", type=int, default=blocksim.DEFAULT_MC_SAMPLES)
    p.add_argument("--workers", type=int, default=1,
                   help="threads that split the distinct strings an exact sweep or a "
                        "Monte Carlo run scores one at a time (default 1)")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_blocksim_run)

    p = sub.add_parser("selftest", help="run every module invariant suite")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built once per process, since parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = args.func(args)
    except MixcompError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    return int(result) if result is not None else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
