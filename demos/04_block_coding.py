# Block coding at small N: typical subspaces and the two fidelity criteria.
#
# Run with: python3 demos/04_block_coding.py

import numpy as np

from mixcomp import (
    BlockSource,
    Ensemble,
    FixedOutputScheme,
    global_fidelity_score,
    lemma_a1_ceiling,
    local_fidelity_score,
    project_patch_scheme,
    theorem7_demo,
    vn_entropy,
)
from mixcomp.qmat import maximally_mixed

print("== Local vs global fidelity: they are not the same criterion ==")
# Send two independent maximally mixed qubits but decode to an entangled pure
# state.  Every single-position marginal is perfect (local fidelity 1), yet
# the whole-block fidelity is only 1/4.
base = Ensemble.from_lists([1.0], [maximally_mixed(2)])
pair = BlockSource.build(base, 2)
bell_vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
scheme = FixedOutputScheme(np.outer(bell_vec, bell_vec.conj()))
print("  local  fidelity:", local_fidelity_score(pair, scheme).value)
print("  global fidelity:", global_fidelity_score(pair, scheme).value)

print()
print("== Project-and-patch: compress into the heavy subspace ==")
base = Ensemble.from_lists(
    [0.5, 0.5],
    [np.diag([0.9, 0.1]).astype(complex), np.diag([0.1, 0.9]).astype(complex)],
)
s_bar = vn_entropy(base.average())
print(f"  mean-state entropy: {s_bar} qubit/signal")
source = BlockSource.build(base, 10)
print("  rate   kept dims   tail eta   exact global fidelity")
for rate in (0.6, 0.8, 1.0, 1.2):
    scheme = project_patch_scheme(source, rate)
    score = global_fidelity_score(source, scheme, mode="exact")
    print(f"  {rate:.2f}   {scheme.channel_dim:9d}   {scheme.subspace.eta:.6f}"
          f"   {score.value:.6f}")

print()
print("== Why a unitary decoder cannot beat the mean-state entropy ==")
# Below S(mean) the support ceiling (top-eigenvalue mass of the block mean
# state) decays with N, capping every unitary-decoded scheme; above S(mean)
# project-and-patch already achieves fidelity >= 1 - 2 * eta.
rows = theorem7_demo(base, delta=0.15, n_list=[4, 8, 12, 16, 20])
print("   N   rate-   ceiling     rate+   achieved   1 - 2*eta")
for r in rows:
    print(f"  {r.n_blocks:2d}   {r.rate_down:.2f}   {r.ceiling:.6f}"
          f"    {r.rate_up:.2f}   {r.achieved:.6f}   {1 - 2 * r.eta_plus:.6f}")

print()
print("== The ceiling keeps falling as blocks grow ==")
for n in (4, 8, 12, 16, 20):
    ceiling, kept = lemma_a1_ceiling(BlockSource.build(base, n), rate=0.85)
    print(f"  N = {n:2d}: keep {kept:6d} of {2**n:7d} dims -> best possible fidelity {ceiling:.4f}")
