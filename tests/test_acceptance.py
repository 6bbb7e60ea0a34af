"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (visible with `pytest -s`)
and asserts the criterion.  Expected values come from independent oracles:
scalar entropy formulas, brute-force binomial tails, and direct closed forms.
"""

import math

import numpy as np

from mixcomp import sampling
from mixcomp.blocksim import (
    BlockSource,
    FixedOutputScheme,
    ceiling_subspace_dim,
    global_fidelity_score,
    local_fidelity_score,
    project_and_patch,
    theorem7_demo,
    typical_subspace,
)
from mixcomp.classical import CoinSource, analytic_output_law, example9_simulate, xi_rate
from mixcomp.measures import (
    CONTINUITY_COEFF,
    CONTINUITY_THRESHOLD,
    Ensemble,
    fidelity,
    holevo,
    measured_classical_fidelity,
    shannon_entropy,
    sqrt_fidelity,
    vn_entropy,
)
from mixcomp.purify import photographic_negative_report, upsilon_rate
from mixcomp.qmat import maximally_mixed
from mixcomp.rates import BlockDiagonalEnsemble, example11_rate, rate_report

from conftest import diag_state


def report(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def h_bits(*ps) -> float:
    return -sum(p * math.log2(p) for p in ps if p > 0)


def test_criterion_01_swapped_pair_fidelity():
    worst = 0.0
    for eps in np.arange(0.0, 0.5 + 1e-12, 0.05):
        f = fidelity(diag_state(eps, 1 - eps), diag_state(1 - eps, eps))
        worst = max(worst, abs(f - 4 * eps * (1 - eps)))
    report(1, worst <= 1e-10, f"swapped-pair fidelity matches 4e(1-e); worst dev {worst:.2e}")


def test_criterion_02_xi_dominates_upsilon():
    grid = np.round(np.arange(0.0, 0.5 + 1e-9, 0.01), 10)
    gaps = []
    for eps in grid:
        src = CoinSource(0.5, 0.5, float(eps), 1.0 - float(eps))
        gaps.append(xi_rate(src) - upsilon_rate(float(eps)))
    interior_ok = all(g >= -1e-9 for g in gaps)
    endpoint_ok = abs(gaps[0]) <= 1e-9 and abs(gaps[-1]) <= 1e-9
    report(
        2,
        interior_ok and endpoint_ok,
        f"Xi >= Upsilon on the grid (min gap {min(gaps):.2e}), equality at endpoints",
    )


def test_criterion_03_hole_pattern_reports():
    spectrum_ok = True
    formula_ok = True
    gaps = []
    for d in range(3, 17):
        rep = photographic_negative_report(d)
        expected_spec = np.concatenate([[(d - 1) / d], np.full(d - 1, 1 / (d * (d - 1)))])
        spectrum_ok &= bool(np.max(np.abs(rep.mixture_spectrum - expected_spec)) <= 1e-8)
        formula_ok &= abs(rep.gap - (2 / d) * math.log2(d - 1)) <= 1e-9
        gaps.append(rep.gap)
    # As stated this requires gap(d) strictly decreasing from d = 3 on; the
    # closed form (2/d)log2(d-1) rises until d = 5 (0.6667, 0.7925, 0.8000)
    # before falling, so this sub-check cannot hold on the full grid.
    monotone_ok = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    report(
        3,
        spectrum_ok and formula_ok and monotone_ok,
        "spectrum ok: %s, q-chi formula ok: %s, gap strictly decreasing: %s "
        "(gaps d=3..6: %s)"
        % (spectrum_ok, formula_ok, monotone_ok, [round(g, 4) for g in gaps[:4]]),
    )


def test_criterion_04_block_entropy_decomposition(rng):
    worst_identity = 0.0
    worst_saving = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        probs = sampling.random_prob_vector(k, rng)
        sigma = [sampling.random_density(m, rng) for _ in range(k)]
        tau = [sampling.random_density(n, rng) for _ in range(k)]

        # Entropy split of the mean block state, checked directly.
        block = BlockDiagonalEnsemble.build(eps, probs, sigma, tau)
        s_rho = vn_entropy(block.as_ensemble().average())
        sigma_bar = Ensemble.from_lists(probs, sigma).average()
        tau_bar = Ensemble.from_lists(probs, tau).average()
        split = h_bits(eps, 1 - eps) + eps * vn_entropy(sigma_bar) + (1 - eps) * vn_entropy(tau_bar)
        worst_identity = max(worst_identity, abs(s_rho - split))

        # Shared lower block: the scheme's saving is exactly the tau share.
        shared = BlockDiagonalEnsemble.build(eps, probs, sigma, [tau[0]] * k)
        result = example11_rate(shared)
        expected_saving = (1 - eps) * vn_entropy(tau[0])
        worst_saving = max(worst_saving, abs(result.saving - expected_saving))
        worst_saving = max(
            worst_saving, abs(result.scheme_rate + result.saving - result.s_rho_bar)
        )
    ok = worst_identity <= 1e-8 and worst_saving <= 1e-8
    report(
        4,
        ok,
        f"entropy split dev {worst_identity:.2e}, saving dev {worst_saving:.2e} over 100 draws",
    )


def test_criterion_05_support_ceiling(rng):
    violations = 0
    worst = -1.0
    for _ in range(500):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        rho = sampling.random_density(d, rng)
        supported = sampling.random_state_on_subspace(
            sampling.random_subspace(d, k, rng), rng
        )
        vals = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        bound = float(vals[:k].sum())
        excess = fidelity(rho, supported) - bound
        worst = max(worst, excess)
        if excess > 1e-8:
            violations += 1
    report(5, violations == 0, f"500 support-ceiling draws, worst excess {worst:.2e}")


def test_criterion_06_project_and_patch_floor(rng):
    violations = 0
    worst = 1.0
    for _ in range(500):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        rho = sampling.random_density(d, rng)
        sub = typical_subspace(rho, k)
        f = fidelity(rho, project_and_patch(rho, sub))
        slack = f - (1 - sub.eta) ** 2
        worst = min(worst, slack)
        if slack < -1e-8:
            violations += 1
    report(6, violations == 0, f"500 project-and-patch draws, worst slack {worst:.2e}")


def test_criterion_07_holevo_continuity(rng):
    checked = 0
    violations = 0
    attempts = 0
    while checked < 200 and attempts < 2000:
        attempts += 1
        d = int(rng.choice([2, 3]))
        ens = sampling.random_ensemble(d, int(rng.integers(2, 5)), rng)
        pert = sampling.perturbed_ensemble(ens, 2e-3, rng)
        fbar = sum(
            p * fidelity(r, s) for p, r, s in zip(ens.probs, ens.states, pert.states)
        )
        if fbar <= CONTINUITY_THRESHOLD:
            continue
        checked += 1
        bound = CONTINUITY_COEFF * math.sqrt(1 - fbar) * math.log2(d) + 1
        if abs(holevo(ens) - holevo(pert)) > bound:
            violations += 1
    report(
        7,
        checked == 200 and violations == 0,
        f"{checked} perturbed pairs above the fidelity threshold, {violations} violations",
    )


def test_criterion_08_double_concavity(rng):
    violations = 0
    worst = 1.0
    for _ in range(500):
        d = int(rng.integers(2, 5))
        r1, r2 = sampling.random_density(d, rng), sampling.random_density(d, rng)
        s1, s2 = sampling.random_density(d, rng), sampling.random_density(d, rng)
        g_r = sqrt_fidelity(r1, r2)
        g_s = sqrt_fidelity(s1, s2)
        for lam in np.arange(0.1, 0.95, 0.1):
            mixed = sqrt_fidelity(
                lam * r1.matrix + (1 - lam) * s1.matrix,
                lam * r2.matrix + (1 - lam) * s2.matrix,
            )
            slack = mixed - (lam * g_r + (1 - lam) * g_s)
            worst = min(worst, slack)
            if slack < -1e-8:
                violations += 1
    report(8, violations == 0, f"500 quadruples x 9 mixing weights, worst slack {worst:.2e}")


def test_criterion_09_measurement_bound(rng):
    violations = 0
    worst = 1.0
    for _ in range(1000):
        r1 = sampling.random_density(2, rng)
        r2 = sampling.random_density(2, rng)
        povm = sampling.random_povm(2, int(rng.integers(2, 5)), rng)
        slack = measured_classical_fidelity(r1, r2, povm) - fidelity(r1, r2)
        worst = min(worst, slack)
        if slack < -1e-8:
            violations += 1
    eq_violations = 0
    worst_eq = 0.0
    for _ in range(200):
        r1, r2, basis = sampling.random_commuting_pair(2, rng)
        sampling.random_unitary(2, rng)
        # Equality case: measure in the shared eigenbasis.
        from mixcomp.measures import Povm

        shared = Povm.from_elements(
            [np.outer(basis[:, i], basis[:, i].conj()) for i in range(2)]
        )
        dev = abs(measured_classical_fidelity(r1, r2, shared) - fidelity(r1, r2))
        worst_eq = max(worst_eq, dev)
        if dev > 1e-8:
            eq_violations += 1
    report(
        9,
        violations == 0 and eq_violations == 0,
        f"1000 POVM draws (worst slack {worst:.2e}); 200 eigenbasis equalities "
        f"(worst dev {worst_eq:.2e})",
    )


def test_criterion_10_coin_protocol(rng):
    # Closed-form branch sums must reproduce each coin's law exactly.
    worst_law = 0.0
    for _ in range(50):
        src = CoinSource(
            p1=(p1 := float(rng.random())), p2=1 - p1,
            alpha1=float(rng.random()), alpha2=float(rng.random()),
        )
        law = analytic_output_law(src)
        worst_law = max(worst_law, abs(law[0, 0] - src.alpha1), abs(law[1, 0] - src.alpha2))
    law_ok = worst_law <= 1e-12

    src = CoinSource(0.5, 0.5, 0.25, 0.75)
    trace = example9_simulate(src, 100_000, seed=0)
    emp = trace.empirical_heads_given_coin()
    mc_ok = True
    devs = []
    for coin, alpha in ((1, 0.25), (2, 0.75)):
        count = int(np.sum(trace.coin_sequence == coin))
        stderr = math.sqrt(alpha * (1 - alpha) / count)
        devs.append(abs(emp[coin] - alpha) / stderr)
        mc_ok &= abs(emp[coin] - alpha) <= 4 * stderr
    report(
        10,
        law_ok and mc_ok,
        f"branch-sum law exact to {worst_law:.1e}; Monte Carlo devs {devs[0]:.2f} / "
        f"{devs[1]:.2f} standard errors",
    )


def test_criterion_11_unitary_decoding_rate():
    base = Ensemble.from_lists(
        [0.5, 0.5], [diag_state(0.9, 0.1), diag_state(0.1, 0.9)]
    )
    rows = theorem7_demo(base, 0.15, [4, 8, 12])
    ceilings = [r.ceiling for r in rows]

    # Independent oracle: binomial tail of the flat mean-state spectrum.
    def oracle(n, retained):
        classes = sorted(
            ((0.5**a) * (0.5 ** (n - a)), math.comb(n, a)) for a in range(n + 1)
        )[::-1]
        total, left = 0.0, retained
        for value, count in classes:
            take = min(count, left)
            total += take * value
            left -= take
            if left == 0:
                break
        return total

    oracle_ok = all(
        abs(r.ceiling - oracle(r.n_blocks, r.ceiling_dim)) <= 1e-12 for r in rows
    )
    decreasing = ceilings[0] > ceilings[1] > ceilings[2]
    below = ceilings[2] < 0.8
    final = rows[-1]
    achieved_ok = final.achieved >= 1 - 2 * final.eta_plus - 1e-9
    report(
        11,
        oracle_ok and decreasing and below and achieved_ok,
        f"ceilings {[round(c, 4) for c in ceilings]} strictly decreasing and < 0.8; "
        f"achieved {final.achieved:.6f} >= 1 - 2*eta = {1 - 2 * final.eta_plus:.6f}",
    )


def test_criterion_12_entangled_decoding_scores(bell_state):
    base = Ensemble.from_lists([1.0], [maximally_mixed(2)])
    source = BlockSource.build(base, 2)
    scheme = FixedOutputScheme(bell_state)
    loc = local_fidelity_score(source, scheme).value
    glob = global_fidelity_score(source, scheme).value
    ok = abs(loc - 1.0) <= 1e-10 and abs(glob - 0.25) <= 1e-10
    report(12, ok, f"entangled decoding: local {loc:.12f}, global {glob:.12f}")


def test_criterion_13_bound_ordering(rng):
    violations = 0
    for i in range(500):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        # Mix in recognisable shapes so scheme rates are exercised too.
        style = i % 5
        if style == 3:
            r1, r2, _ = sampling.random_commuting_pair(2, rng)
            ens = Ensemble.from_lists(sampling.random_prob_vector(2, rng), [r1, r2])
        elif style == 4 and d >= 2:
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            kk = int(rng.integers(2, 4))
            sigma = [sampling.random_density(m, rng) for _ in range(kk)]
            tau = sampling.random_density(n, rng)
            ens = BlockDiagonalEnsemble.build(
                float(rng.uniform(0.1, 0.9)),
                sampling.random_prob_vector(kk, rng),
                sigma,
                [tau] * kk,
            ).as_ensemble()
            d = ens.dim
        else:
            ens = sampling.random_ensemble(d, k, rng)
        chi = holevo(ens)
        s_bar = vn_entropy(ens.average())
        if not (0.0 <= chi <= s_bar + 1e-9 and s_bar <= math.log2(ens.dim) + 1e-9):
            violations += 1
            continue
        rep = rate_report(ens)
        if any(e.rate < chi - 1e-8 for e in rep.scheme_rates()):
            violations += 1
    report(13, violations == 0, f"500 ensembles, {violations} ordering violations")
