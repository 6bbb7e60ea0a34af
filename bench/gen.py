"""Seeded inputs and fixed task lists for the three benchmark workloads.

Every input is drawn here, from this module's own Philox streams keyed by
(workload seed, stream number), and reaches the program only as files in the
CLI's JSON schema.  A change to ``mixcomp.sampling`` therefore cannot change
what the benchmark feeds the program.

The task lists are fixed: a seed changes the numbers inside the states, never
the shapes, block lengths, rates or sample counts, so every seed asks for the
same amount of work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("commuting-exact", "dense-block", "ensemble-reports")

#: mixcomp.blocksim rounds ceil(rate * N) with this slack (``_RATE_EPS``).
RATE_EPS = 1e-9

# Blocksim tasks: (label, local dim d, states m, block length N, rate, mode, samples).
# commuting-exact uses the largest N the default dimension cap of 4096 admits.
COMMUTING_TASKS = (
    ("qubit-N12", 2, 2, 12, 0.8, "exact", None),
    ("qutrit-N7", 3, 3, 7, 1.2, "exact", None),
)
DENSE_TASKS = (
    ("qubit-N6-mc", 2, 2, 6, 0.8, "mc", 128),
    ("qubit-N7-mc", 2, 2, 7, 0.8, "mc", 64),
    ("qubit-N5-exact", 2, 3, 5, 0.8, "exact", None),
)

# ensemble-reports batch composition (seed-independent).
GENERIC_SHAPES = (  # (d, m)
    (2, 2), (2, 3), (2, 10), (3, 2), (3, 5), (4, 4), (5, 3),
    (6, 6), (8, 2), (8, 8), (10, 4), (12, 3), (16, 2), (16, 10),
)
N_COIN_PAIRS = 4
BLOCK_SHAPES = ((2, 2, 3), (3, 2, 4), (4, 4, 2))  # (sigma dim, tau dim, m)
HOLE_DIMS = tuple(range(3, 9))
PERTURBATION = 0.05
SIMULATE_TOSSES = 20000


def stream(seed: int, k: int) -> np.random.Generator:
    """Independent Philox stream number ``k`` of a workload seed."""
    key = np.array([int(seed) & (2**64 - 1), 0x6D6978 + k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def program_seed(seed: int) -> int:
    """The seed handed to the program (its streams need a non-negative key)."""
    return int(seed) % 2**31


def scheme_dim(rate: float, n: int, full_dim: int) -> int:
    """Channel dimension 2^ceil(rate*N) of the project-and-patch scheme, capped."""
    return int(min(2 ** max(math.ceil(rate * n - RATE_EPS), 0), full_dim))


def prob_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    p = rng.uniform(0.2, 1.0, size=m)
    return p / p.sum()


def diagonal_state(rng: np.random.Generator, d: int) -> np.ndarray:
    return np.diag(prob_vector(rng, d)).astype(complex)


def dense_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank Ginibre state, symmetrised so it is exactly Hermitian."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    r = g @ g.conj().T
    r = (r + r.conj().T) / 2.0
    return r / np.real(np.trace(r))


def matrix_json(a: np.ndarray) -> dict:
    return {"dim": int(a.shape[0]), "re": np.real(a).tolist(), "im": np.imag(a).tolist()}


def ensemble_json(probs: np.ndarray, states: list[np.ndarray]) -> dict:
    return {"probs": list(map(float, probs)), "states": [matrix_json(s) for s in states]}


@dataclass
class BlockTask:
    """One ``mixcomp blocksim run`` invocation and the source it scores."""

    label: str
    d: int
    n: int
    rate: float
    mode: str
    samples: int | None
    diagonal: bool
    probs: np.ndarray
    states: list[np.ndarray]
    argv: list[str] = field(default_factory=list)
    out: str = ""

    @property
    def full_dim(self) -> int:
        return self.d**self.n


@dataclass
class Batch:
    """Library-call batch of ``ensemble-reports``.

    ``ensembles`` maps a name to (kind, probs, states), where kind is one of
    generic, perturbed, coin, block or hole; ``extra`` holds the closed-form
    parameters of the recognised shapes; ``calls`` lists (id, function, args).
    """

    ensembles: dict = field(default_factory=dict)
    coins: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)


def _block_tasks(rows, seed: int, workdir: str, diagonal: bool) -> list[BlockTask]:
    tasks = []
    for k, (label, d, m, n, rate, mode, samples) in enumerate(rows):
        if not scheme_dim(rate, n, d**n) < d**n:
            raise ValueError(f"{label}: rate {rate} keeps the whole {d}^{n} space")
        rng = stream(seed, k)
        make = diagonal_state if diagonal else dense_state
        probs = prob_vector(rng, m)
        states = [make(rng, d) for _ in range(m)]
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ensemble_json(probs, states), fh)
        out = os.path.join(workdir, f"{label}.out.json")
        argv = ["blocksim", "run", "--ensemble", path, "--N", str(n), "--rate", repr(rate),
                "--mode", mode, "--seed", str(program_seed(seed)), "--workers", "1", "--out", out]
        if samples is not None:
            argv += ["--samples", str(samples)]
        tasks.append(
            BlockTask(label, d, n, rate, mode, samples, diagonal, probs, states, argv, out))
    return tasks


def _hole_states(d: int) -> list[np.ndarray]:
    states = []
    for i in range(d):
        diag = np.full(d, 1.0 / (d - 1))
        diag[i] = 0.0
        states.append(np.diag(diag).astype(complex))
    return states


def _batch(seed: int) -> Batch:
    b = Batch()
    rng = stream(seed, 100)

    def call(fn: str, *args) -> None:
        b.calls.append((f"{len(b.calls):03d}-{fn}", fn, list(args)))

    for g, (d, m) in enumerate(GENERIC_SHAPES):
        name, pert = f"g{g}", f"g{g}p"
        probs = prob_vector(rng, m)
        states = [dense_state(rng, d) for _ in range(m)]
        noisy = [(1.0 - PERTURBATION) * s + PERTURBATION * dense_state(rng, d) for s in states]
        b.ensembles[name] = ("generic", probs, states)
        b.ensembles[pert] = ("perturbed", probs, noisy)
        call("rate_report", {"ens": name})
        call("holevo", {"ens": name})
        call("vn_entropy", {"state": [name, 0]})
        call("fidelity", {"state": [name, 0]}, {"state": [name, 1]})
        call("fidelity", {"state": [name, 1]}, {"state": [name, 0]})
        call("avg_ensemble_fidelity", {"ens": name}, {"ens": pert})
        call("holevo_continuity_bound", {"ens": name}, {"ens": pert})

    for c in range(N_COIN_PAIRS):
        name = f"c{c}"
        p1 = float(rng.uniform(0.2, 0.8))
        a1, a2 = (float(x) for x in rng.uniform(0.05, 0.95, size=2))
        probs = np.array([p1, 1.0 - p1])
        states = [np.diag([a, 1.0 - a]).astype(complex) for a in (a1, a2)]
        b.ensembles[name] = ("coin", probs, states)
        b.coins[name] = (p1, 1.0 - p1, a1, a2)
        call("rate_report", {"ens": name})
        call("xi_rate", {"coin": name})
        call("example9_simulate", {"coin": name}, {"int": SIMULATE_TOSSES},
             {"int": program_seed(seed)})

    for k, (da, db, m) in enumerate(BLOCK_SHAPES):
        name = f"b{k}"
        eps = float(rng.uniform(0.2, 0.8))
        probs = prob_vector(rng, m)
        sigmas = [dense_state(rng, da) for _ in range(m)]
        tau = dense_state(rng, db)
        states = []
        for s in sigmas:
            full = np.zeros((da + db, da + db), dtype=complex)
            full[:da, :da] = eps * s
            full[da:, da:] = (1.0 - eps) * tau
            states.append(full)
        b.ensembles[name] = ("block", probs, states)
        b.extra[name] = {"eps": eps, "sigma_dim": da}
        call("rate_report", {"ens": name})
        call("holevo", {"ens": name})

    for d in HOLE_DIMS:
        name = f"h{d}"
        order = rng.permutation(d)
        states = _hole_states(d)
        b.ensembles[name] = ("hole", np.full(d, 1.0 / d), [states[i] for i in order])
        call("rate_report", {"ens": name})
        call("photographic_negative_report", {"int": d})
    return b


def batch_json(b: Batch) -> dict:
    return {
        "ensembles": {k: ensemble_json(p, s) for k, (_, p, s) in b.ensembles.items()},
        "coins": b.coins,
        "calls": b.calls,
    }


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's inputs under ``workdir`` and return its task spec.

    The spec is what the workload process reads; the returned dict also
    carries the in-memory inputs (``block_tasks`` or ``batch``) for the checks.
    """
    os.makedirs(workdir, exist_ok=True)
    spec: dict = {"workload": workload, "seed": int(seed)}
    if workload == "commuting-exact":
        tasks = _block_tasks(COMMUTING_TASKS, seed, workdir, diagonal=True)
    elif workload == "dense-block":
        tasks = _block_tasks(DENSE_TASKS, seed, workdir, diagonal=False)
    elif workload == "ensemble-reports":
        batch = _batch(seed)
        path = os.path.join(workdir, "batch.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(batch_json(batch), fh)
        spec["batch"] = path
        return {"spec": spec, "batch": batch}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    spec["cli_tasks"] = [
        {"id": t.label, "argv": t.argv, "out": t.out, "block_dim": t.full_dim} for t in tasks
    ]
    return {"spec": spec, "block_tasks": tasks}

