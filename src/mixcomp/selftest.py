"""Seeded invariant suites, runnable from the CLI (`selftest`) or from tests.

Each suite draws its instances from an explicit generator seed and returns
pass/fail counts, so a selftest run is reproducible end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import blocksim, classical, measures, purify, qmat, rates, sampling


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, label: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(label)


def qmat_suite(seed: int = 0, trials: int = 20) -> SuiteResult:
    res = SuiteResult("qmat")
    rng = sampling.generator(seed)
    for _ in range(trials):
        dim = int(rng.integers(2, 7))
        rho = sampling.random_density(dim, rng)
        spec = qmat.eig_hermitian(rho.matrix)
        res.check(
            float(np.max(np.abs(spec.reconstruct() - rho.matrix))) <= 1e-8,
            "eigendecomposition reconstructs the matrix",
        )
        res.check(abs(float(np.sum(spec.eigenvalues)) - 1.0) <= 1e-8,
                  "density eigenvalues sum to 1")
        root = qmat.matrix_sqrt_psd(rho.matrix)
        res.check(float(np.max(np.abs(root @ root - rho.matrix))) <= 1e-8,
                  "matrix square root squares back")
        other = sampling.random_density(int(rng.integers(2, 5)), rng)
        prod = qmat.tensor(rho, other)
        res.check(abs(float(np.real(np.trace(prod.matrix))) - 1.0) <= 1e-10,
                  "tensor product preserves unit trace")
        back = qmat.partial_trace(prod, [rho.dim, other.dim], keep=0)
        res.check(float(np.max(np.abs(back.matrix - rho.matrix))) <= 1e-10,
                  "partial trace inverts the tensor product")
        k = int(rng.integers(1, dim + 1))
        basis = sampling.random_subspace(dim, k, rng)
        pi = qmat.projector([basis[:, j] for j in range(k)])
        res.check(float(np.max(np.abs(pi @ pi - pi))) <= 1e-8, "projector is idempotent")
    return res


def measures_suite(seed: int = 1, trials: int = 20) -> SuiteResult:
    res = SuiteResult("measures")
    rng = sampling.generator(seed)
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        r1 = sampling.random_density(dim, rng)
        r2 = sampling.random_density(dim, rng)
        g = measures.sqrt_fidelity(r1, r2)
        res.check(abs(g * g - measures.fidelity(r1, r2)) <= 1e-9,
                  "sqrt-fidelity squares to fidelity")
        res.check(
            abs(measures.fidelity(r1, r2) - measures.fidelity(r2, r1)) <= 1e-8,
            "fidelity is symmetric",
        )
        s1, s2 = sampling.random_density(dim, rng), sampling.random_density(dim, rng)
        for lam in (0.1, 0.5, 0.9):
            lhs = measures.sqrt_fidelity(
                lam * r1.matrix + (1 - lam) * s1.matrix,
                lam * r2.matrix + (1 - lam) * s2.matrix,
            )
            rhs = lam * measures.sqrt_fidelity(r1, r2) + (1 - lam) * measures.sqrt_fidelity(s1, s2)
            res.check(lhs >= rhs - 1e-8, "sqrt-fidelity is doubly concave")
        povm = sampling.random_povm(dim, int(rng.integers(2, 5)), rng)
        res.check(
            measures.measured_classical_fidelity(r1, r2, povm)
            >= measures.fidelity(r1, r2) - 1e-8,
            "measured classical fidelity dominates quantum fidelity",
        )
        ens = sampling.random_ensemble(dim, int(rng.integers(2, 5)), rng)
        chi = measures.holevo(ens)
        res.check(0.0 <= chi <= measures.vn_entropy(ens.average()) + 1e-10,
                  "Holevo quantity between 0 and mean-state entropy")
        pert = sampling.perturbed_ensemble(ens, 1e-3, rng)
        bound = measures.holevo_continuity_bound(ens, pert)
        if bound.applicable:
            res.check(
                abs(chi - measures.holevo(pert)) <= bound.bound + 1e-9,
                "Holevo continuity bound holds",
            )
            lhs = abs(
                sum(p * measures.vn_entropy(s) for p, s in zip(ens.probs, ens.states))
                - sum(p * measures.vn_entropy(s) for p, s in zip(pert.probs, pert.states))
            )
            res.check(
                lhs <= measures.avg_entropy_continuity_bound(ens, pert) + 1e-9,
                "average-entropy continuity bound holds",
            )
    return res


def purify_suite(seed: int = 2, trials: int = 20) -> SuiteResult:
    res = SuiteResult("purify")
    rng = sampling.generator(seed)
    for _ in range(trials):
        dim = int(rng.integers(2, 6))
        rho = sampling.random_density(dim, rng)
        pur = purify.canonical_purification(rho)
        reduced = qmat.partial_trace(pur.state.projector(), [dim, dim], keep=0)
        res.check(float(np.max(np.abs(reduced.matrix - rho.matrix))) <= 1e-8,
                  "canonical purification round-trips by partial trace")
        r1, r2, _ = sampling.random_commuting_pair(dim, rng)
        overlap = purify.canonical_overlap(r1, r2)
        res.check(abs(overlap - measures.fidelity(r1, r2)) <= 1e-8,
                  "canonical overlap equals fidelity for commuting pairs")
    grid = np.linspace(0.0, 0.5, 26)
    ups = [purify.upsilon_rate(e) for e in grid]
    res.check(abs(ups[0] - 1.0) <= 1e-12 and abs(ups[-1]) <= 1e-12,
              "purification rate endpoints")
    res.check(all(u <= 1.0 + 1e-12 for u in ups), "purification rate never exceeds 1")
    for d in (3, 5, 8):
        report = purify.photographic_negative_report(d)
        closed = (2.0 / d) * np.log2(d - 1) - np.log2(1.0 - 1.0 / d)
        res.check(abs(report.q - closed) <= 1e-8,
                  "photographic-negative entropy matches closed form")
        res.check(abs(report.chi - (-np.log2(1.0 - 1.0 / d))) <= 1e-9,
                  "photographic-negative Holevo quantity matches closed form")
    return res


def classical_suite(seed: int = 3, trials: int = 25) -> SuiteResult:
    res = SuiteResult("classical")
    rng = sampling.generator(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        a = rng.random((n, n))
        a = classical.StochasticMatrix.from_matrix(a / a.sum(axis=0, keepdims=True))
        p = sampling.random_prob_vector(n, rng)
        out = classical.apply_channel(a, p)
        res.check(abs(float(out.sum()) - 1.0) <= 1e-12 and float(out.min()) >= 0.0,
                  "stochastic channel preserves normalisation")
        src = classical.CoinSource(
            p1=(p1 := float(rng.random())), p2=1.0 - p1,
            alpha1=float(rng.random()), alpha2=float(rng.random()),
        )
        law = classical.analytic_output_law(src)
        res.check(
            abs(law[0, 0] - src.alpha1) <= 1e-12 and abs(law[1, 0] - src.alpha2) <= 1e-12,
            "protocol output law reproduces each coin exactly",
        )
        xi = classical.xi_rate(src)
        res.check(xi >= 0.0, "protocol rate is nonnegative")
        if abs(src.alpha1 - src.alpha2) < 1e-12:
            res.check(xi <= 1e-9, "identical coins compress to zero rate")
        ens = src.as_ensemble()
        res.check(
            measures.holevo(ens)
            <= min(
                measures.vn_entropy(ens.average()),
                measures.shannon_entropy([src.p1, src.p2]),
                xi,
            )
            + 1e-9,
            "conjectured rate below every implemented bound and scheme",
        )
    grid = np.arange(0.0, 0.5 + 1e-12, 0.01)
    for eps in grid:
        src = classical.CoinSource(0.5, 0.5, float(eps), 1.0 - float(eps))
        gap = classical.xi_rate(src) - purify.upsilon_rate(float(eps))
        res.check(gap >= -1e-9, "three-message rate dominates purification rate")
    return res


def blocksim_suite(seed: int = 4, trials: int = 15) -> SuiteResult:
    res = SuiteResult("blocksim")
    rng = sampling.generator(seed)
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        rho = sampling.random_density(dim, rng)
        k = int(rng.integers(1, dim + 1))
        bound = blocksim.fidelity_subspace_upper_bound(rho, k)
        supported = sampling.random_state_on_subspace(
            sampling.random_subspace(dim, k, rng), rng
        )
        res.check(measures.fidelity(rho, supported) <= bound + 1e-8,
                  "subspace support caps fidelity by the top eigenvalue sum")
        sub = blocksim.typical_subspace(rho, k)
        patched = blocksim.project_and_patch(rho, sub)
        res.check(
            measures.fidelity(rho, patched) >= (1.0 - sub.eta) ** 2 - 1e-8,
            "project-and-patch keeps fidelity above (1 - eta)^2",
        )
    base = measures.Ensemble.from_lists(
        [0.5, 0.5],
        [np.diag([0.9, 0.1]).astype(complex), np.diag([0.1, 0.9]).astype(complex)],
    )
    for n, n2 in ((4, 8), (6, 12)):
        c1, _ = blocksim.lemma_a1_ceiling(blocksim.BlockSource.build(base, n), 0.8)
        c2, _ = blocksim.lemma_a1_ceiling(blocksim.BlockSource.build(base, n2), 0.8)
        res.check(c2 <= c1 + 1e-9, "fidelity ceiling never grows with block length")
    source = blocksim.BlockSource.build(base, 6)
    scheme = blocksim.project_patch_scheme(source, 1.2)
    g = blocksim.global_fidelity_score(source, scheme)
    loc = blocksim.local_fidelity_score(source, scheme)
    res.check(0.0 <= g.value <= 1.0 and 0.0 <= loc.value <= 1.0,
              "fidelity scores stay within [0, 1]")
    res.check(loc.value >= g.value - 1e-8, "local score dominates global score")
    ident = blocksim.IdentityScheme(source.full_dim)
    res.check(
        abs(blocksim.global_fidelity_score(source, ident).value - 1.0) <= 1e-10,
        "identity scheme has unit global fidelity",
    )
    short = blocksim.BlockSource.build(base, 4)
    for rate in (0.0, 0.6, 1.0):
        scheme = blocksim.project_patch_scheme(short, rate)
        g_table, l_table = blocksim._diagonal_tables(short, scheme, want_local=True)
        worst = 0.0
        for string in itertools.product(range(len(base)), repeat=short.n_blocks):
            g, loc = blocksim._score_string(short, scheme, string, True, True)
            worst = max(worst, abs(g_table[string] - g), abs(l_table[string] - loc))
        res.check(worst <= 1e-12, "vectorised diagonal scores equal the per-string scorer")
    return res


def rates_suite(seed: int = 5, trials: int = 25) -> SuiteResult:
    res = SuiteResult("rates")
    rng = sampling.generator(seed)
    for _ in range(trials):
        dim = int(rng.integers(2, 7))
        ens = sampling.random_ensemble(dim, int(rng.integers(1, 6)), rng)
        lo = rates.lower_bound_rate(ens)
        hi = rates.upper_bound_rate(ens)
        res.check(lo <= hi + 1e-8, "Holevo bound below mean-state entropy")
        res.check(hi <= np.log2(dim) + 1e-9, "mean-state entropy below log2(dim)")
        report = rates.rate_report(ens)
        res.check(
            all(e.rate >= lo - 1e-8 for e in report.scheme_rates()),
            "every scheme rate respects the lower bound",
        )
    return res


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [
        qmat_suite(seed),
        measures_suite(seed + 1),
        purify_suite(seed + 2),
        classical_suite(seed + 3),
        blocksim_suite(seed + 4),
        rates_suite(seed + 5),
    ]
