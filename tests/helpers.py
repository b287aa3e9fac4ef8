"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from torquenet import LayerRegistry, VillagePanel, build_network


def generic_registry(n_layers):
    return LayerRegistry(tuple(f"L{i}" for i in range(n_layers)))


def random_triples(rng, n, n_layers, density=None):
    """Random directed nomination triples (ego, alter, layer), no loops."""
    if density is None:
        density = float(rng.uniform(0.08, 0.45))
    mask = rng.random((n_layers, n, n)) < density
    triples = []
    for layer in range(n_layers):
        for ego in range(n):
            for alter in range(n):
                if ego != alter and mask[layer, ego, alter]:
                    triples.append((ego, alter, layer))
    return triples


def network_from_triples(triples, n, n_layers):
    ego, alter, layer = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return build_network(ego, alter, layer, n, generic_registry(n_layers))


def triples_of(net):
    """The network's collapsed nominations as (ego, alter, layer) tuples."""
    return list(zip(net.ego.tolist(), net.alter.tolist(), net.layer.tolist()))


def quick_panel(n, village="v0", topic="t", treated=None, k1=None, k3=None,
                seed=0, household=None):
    """Minimal valid panel with one topic and filled covariates."""
    rng = np.random.default_rng(seed)
    if treated is None:
        treated = (rng.random(n) < 0.3).astype(np.int8)
    treated = np.asarray(treated)
    if treated.dtype.kind != "f":
        treated = treated.astype(np.int8)
    if k1 is None:
        k1 = (rng.random(n) < 0.2).astype(float)
    k1 = np.asarray(k1, dtype=float)
    if k3 is None:
        with np.errstate(invalid="ignore"):
            k3 = ((rng.random(n) < 0.45) | (k1 == 1)).astype(float)
    if household is None:
        household = np.arange(n, dtype=np.int64)
    return VillagePanel(
        village=village,
        nodes=tuple(f"{village}_n{i:03d}" for i in range(n)),
        household=np.asarray(household, dtype=np.int64),
        sociability=rng.random(n).round(3),
        age=rng.integers(18, 80, n).astype(float),
        gender=rng.integers(0, 2, n).astype(float),
        education=rng.integers(0, 19, n).astype(float),
        income=rng.integers(1, 5, n).astype(float),
        self_health=rng.integers(1, 6, n).astype(float),
        topics=(topic,),
        treated={topic: treated},
        k_w1={topic: k1},
        k_w3={topic: np.asarray(k3, dtype=float)},
    )


WORD_BOUNDARY_SIZES = (1, 2, 63, 64, 65, 129)


def boundary_instances(rng, n_layers):
    """(n, triples) around the 64-node word boundaries of packed bitsets.

    Per size: a denser and a sparser instance, each with about one node in
    eight left isolated, and an edgeless one.
    """
    for n in WORD_BOUNDARY_SIZES:
        isolated = set(rng.choice(n, size=n // 8, replace=False).tolist())
        for mean_out in (1.5, 0.6):
            triples = random_triples(rng, n, n_layers, density=min(0.5, mean_out / n))
            yield n, [t for t in triples
                      if t[0] not in isolated and t[1] not in isolated]
        yield n, []
