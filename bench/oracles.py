"""Independent numpy oracles for the outputs the benchmark checks.

Nothing here imports mixcomp.  The block-coding oracles rebuild the
project-and-patch scheme from its definition (the 2^ceil(qN) heaviest
eigenvectors of the block mean state, ties kept in the stable order of the
Kronecker-power weights, patch on the heaviest) and then score every source
string in closed form:

* diagonal sources: contractions of the kept-set mask with the m x d matrix of
  base diagonals, one axis at a time, give every string's mass inside the
  subspace and its per-position marginals at once;
* dense sources: the scheme output lives on the k-dimensional subspace, so the
  fidelity reduces to a k x k eigenproblem per string.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from gen import RATE_EPS, scheme_dim


def kron_power(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power, multiplied left to right like the program's."""
    return reduce(np.kron, [np.asarray(v, dtype=float)] * n)


def entropy_bits(vals) -> float:
    v = np.asarray(vals, dtype=float)
    v = v[v > 1e-15]
    return float(-np.sum(v * np.log2(v))) if v.size else 0.0


def mean_state(probs: np.ndarray, states: list[np.ndarray]) -> np.ndarray:
    """sum_i p_i rho_i, accumulated in the ensemble's order."""
    acc = np.zeros_like(states[0], dtype=complex)
    for p, s in zip(probs, states):
        acc += p * s
    return (acc + acc.conj().T) / 2.0


def sorted_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs with eigenvalues descending, ties in solver order."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Bures-Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2."""
    r = psd_sqrt(a)
    mid = r @ b @ r
    vals = np.linalg.eigvalsh((mid + mid.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)


def ceiling(mean_spectrum: np.ndarray, n: int, rate: float) -> float:
    """Lemma A1 ceiling: sum of the ceil(2^(qN)) largest eigenvalues of the power."""
    w = kron_power(mean_spectrum, n)
    k = int(min(max(1, math.ceil(2.0 ** (rate * n) * (1.0 - RATE_EPS))), w.size))
    return float(min(1.0, np.sort(w)[-k:].sum()))


def diagonal_scores(probs, states, n: int, rate: float) -> dict:
    """Exact global and local scores, eta and ceiling for a diagonal source."""
    probs = np.asarray(probs, dtype=float)
    mu = np.clip(np.real(np.diagonal(mean_state(probs, states))), 0.0, None)
    P = np.array([np.clip(np.real(np.diagonal(s)), 0.0, None) for s in states])
    m, d = P.shape
    w = kron_power(mu, n)
    k = scheme_dim(rate, n, w.size)
    kept = np.argsort(-w, kind="stable")[:k]
    eta = max(0.0, 1.0 - float(w[kept].sum()))
    x0 = np.unravel_index(kept[0], (d,) * n)
    mask = np.zeros(w.size)
    mask[kept] = 1.0
    mask = mask.reshape((d,) * n)

    def contract(keep: int | None) -> np.ndarray:
        # Contract x_j with P[s_j, x_j] for every j except ``keep``; the
        # result is indexed (s_1..s_n) with y = x_keep as the last axis.
        t = mask
        for j in range(n):
            if j == keep:
                t = np.moveaxis(t, 0, -1)
            else:
                t = np.tensordot(t, P, axes=([0], [1]))
        if keep is None:
            return t
        # axes are now (s_1..s_{keep-1}, y, s_{keep+1}..s_n); bring in s_keep.
        t = np.moveaxis(t, keep, -1)
        shape = [1] * n + [d]
        shape[keep] = m
        return np.expand_dims(t, keep) * P.reshape(shape)

    mass = contract(None)
    sig0 = reduce(np.multiply.outer, [P[:, x0[j]] for j in range(n)])
    tail = np.maximum(0.0, 1.0 - mass)
    g = np.minimum(1.0, (mass - sig0 + np.sqrt(sig0 * (sig0 + tail))) ** 2)
    local = np.ones_like(mass)
    for pos in range(n):
        marg = contract(pos)
        marg[..., x0[pos]] += tail
        marg = np.clip(marg, 0.0, None)
        marg = marg / marg.sum(axis=-1, keepdims=True)
        shape = [1] * n + [d]
        shape[pos] = m
        base = P.reshape(shape)
        local *= np.minimum(1.0, np.sum(np.sqrt(base * marg), axis=-1) ** 2)
    weights = kron_power(probs, n).reshape((m,) * n)
    clamp = lambda v: min(1.0, max(0.0, float(v)))
    return {
        "global_fid": clamp(np.sum(weights * g)),
        "local_fid": clamp(np.sum(weights * local)),
        "eta": eta,
        "ceiling": ceiling(np.sort(mu)[::-1], n, rate),
        "realized_rate": math.log2(k) / n,
        "method": "exact-diagonal",
    }


def dense_scores(probs, states, n: int, rate: float) -> dict:
    """Exact global and local scores, eta and ceiling for a dense source."""
    probs = np.asarray(probs, dtype=float)
    m, d = len(states), states[0].shape[0]
    vals, vecs = sorted_spectrum(mean_state(probs, states))
    w = kron_power(vals, n)
    k = scheme_dim(rate, n, w.size)
    kept = np.argsort(-w, kind="stable")[:k]
    eta = max(0.0, 1.0 - float(w[kept].sum()))
    basis = np.empty((d**n, k), dtype=complex)
    for col, flat in enumerate(kept):
        digits = np.unravel_index(flat, (d,) * n)
        basis[:, col] = reduce(np.kron, [vecs[:, j] for j in digits])
    roots = [psd_sqrt(s) for s in states]
    weights = kron_power(probs, n)
    total_g = total_l = 0.0
    for idx, string in enumerate(itertools.product(range(m), repeat=n)):
        sigma = reduce(np.kron, [states[i] for i in string])
        inner = basis.conj().T @ sigma @ basis
        inner = (inner + inner.conj().T) / 2.0
        tail = max(0.0, 1.0 - float(np.real(np.trace(inner))))
        kernel = inner.copy()
        kernel[0, 0] += tail
        # out = B kernel B^dag, so F(sigma, out) needs only the k x k block.
        root = psd_sqrt(kernel)
        mid = root @ inner @ root
        ev = np.linalg.eigvalsh((mid + mid.conj().T) / 2.0)
        g = min(1.0, float(np.sum(np.sqrt(np.clip(ev, 0.0, None)))) ** 2)
        out = basis @ kernel @ basis.conj().T
        t = out.reshape((d,) * (2 * n))
        loc = 1.0
        for pos, i in enumerate(string):
            moved = np.moveaxis(t, (pos, n + pos), (0, 1)).reshape(d, d, -1, d ** (n - 1))
            marg = np.trace(moved, axis1=2, axis2=3)
            mid = roots[i] @ marg @ roots[i]
            ev = np.linalg.eigvalsh((mid + mid.conj().T) / 2.0)
            loc *= min(1.0, float(np.sum(np.sqrt(np.clip(ev, 0.0, None)))) ** 2)
        total_g += weights[idx] * g
        total_l += weights[idx] * loc
    clamp = lambda v: min(1.0, max(0.0, float(v)))
    return {
        "global_fid": clamp(total_g),
        "local_fid": clamp(total_l),
        "eta": eta,
        "ceiling": ceiling(vals, n, rate),
        "realized_rate": math.log2(k) / n,
        "method": "exact-dense",
    }


def hole_pattern(d: int) -> dict:
    """Closed forms of the photographic-negative (hole pattern) report."""
    spectrum = np.concatenate([[(d - 1) / d], np.full(d - 1, 1.0 / (d * (d - 1)))])
    q = entropy_bits(spectrum)
    chi = math.log2(d) - math.log2(d - 1)
    return {"spectrum": spectrum, "q": q, "chi": chi, "gap": q - chi}


def xi_rate(p1: float, p2: float, a1: float, a2: float) -> float:
    gap = abs(a2 - a1)
    return entropy_bits([1.0 - gap, p1 * gap, p2 * gap])


def two_state_purification_rate(w1: float, w2: float, a1: float, a2: float) -> float:
    """Entropy of the mixture of canonical purifications of two commuting qubits."""
    c = math.sqrt(a1 * a2) + math.sqrt((1.0 - a1) * (1.0 - a2))
    disc = math.sqrt(max(0.0, (w1 - w2) ** 2 + 4.0 * w1 * w2 * c * c))
    return entropy_bits([(1.0 + disc) / 2.0, max(0.0, (1.0 - disc) / 2.0)])


def holevo_and_entropy(probs, states) -> tuple[float, float]:
    """(chi, S(mean)) of an ensemble."""
    s_mean = entropy_bits(np.linalg.eigvalsh(mean_state(np.asarray(probs), states)))
    cond = sum(p * entropy_bits(np.linalg.eigvalsh(s)) for p, s in zip(probs, states))
    return max(0.0, s_mean - cond), s_mean
