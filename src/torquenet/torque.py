"""Pairwise layer criticality and per-layer network torque.

A composite-connected unordered pair {i, j} is critical for layer L when
its shortest distance strictly increases (possibly to INFINITE) once L's
support is removed from every dyad. Torque t_L is the critical-pair count
over the composite-connected pair count; disconnected pairs sit outside
both sums.

Everything runs on the multi-source BFS of msbfs. The composite's level
sets B_0 ⊆ B_1 ⊆ ... are walked once, to their fixed point B_∞; the graph
without L (the same arcs, masked by layer support) is walked in lockstep
to the same depth, giving level sets R_d. A pair at composite distance d
is critical exactly when it is missing from R_d, so, counting each
unordered pair from both ends,

    critical_L = Σ_d popcount(B_d & ~B_{d-1} & ~R_d) / 2
    connected  = (popcount(B_∞) - n) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import msbfs
from .errors import DisconnectedPairError, UndefinedStatisticError
from .graph import MultiplexNetwork, SimpleGraph

# Sentinel strictly greater than any finite hop count at village scale.
INFINITE = np.uint16(65535)


def _undirected(n: int, a: np.ndarray, b: np.ndarray, layer: np.ndarray,
                n_layers: int) -> msbfs.ArcSet:
    """Both arcs of every edge {a, b}, carried by the edge's layers."""
    return msbfs.ArcSet(n, tail=np.concatenate([a, b]), head=np.concatenate([b, a]),
                        layer=np.concatenate([layer, layer]), n_layers=n_layers)


def _composite(net: MultiplexNetwork) -> tuple[msbfs.ArcSet, list[np.ndarray]]:
    """The dyads with their layer support, and the composite's level sets."""
    arcs = _undirected(net.n, net.ego, net.alter, net.layer, len(net.registry))
    return arcs, msbfs.levels(arcs.gather(), net.n)


def _connected_pairs(levels: list[np.ndarray]) -> int:
    return (msbfs.popcount(levels[-1]) - len(levels[0])) // 2


def _distance_matrix(gather: msbfs.Gather, n: int) -> np.ndarray:
    out = np.full((n, n), INFINITE, dtype=np.uint16)
    # deepest level first, so each pair keeps the first level that reached it
    for d, level in reversed(list(enumerate(msbfs.levels(gather, n)))):
        out[msbfs.source_matrix(level, n)] = d
    return out


def all_pairs_distances(g: SimpleGraph) -> np.ndarray:
    """Exact unweighted geodesic distances; unreachable pairs get INFINITE.

    Returned as uint16: distances are < n <= a few thousand here, and the
    compact dtype keeps the per-layer matrices cheap.
    """
    u, v = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    arcs = _undirected(g.n, u, v, np.zeros_like(u), 1)
    return _distance_matrix(arcs.gather(), g.n)


@dataclass(frozen=True)
class TorqueReport:
    """Per-layer torque for one village, sharing one composite denominator."""

    layers: tuple[str, ...]
    torque: tuple[float, ...]
    critical_pairs: tuple[int, ...]
    connected_pairs: int

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.layers, self.torque))


def criticality(net: MultiplexNetwork, layer: int, i: int, j: int,
                base: np.ndarray | None = None,
                removed: np.ndarray | None = None) -> int:
    """1 iff removing the layer strictly lengthens the i-j geodesic.

    Optional precomputed distance matrices (all_pairs_distances of the
    composite and of the layer-removed graph) avoid repeated sweeps when
    many pairs of the same village are queried.
    """
    if i == j:
        raise DisconnectedPairError("criticality needs two distinct nodes")
    net._check_layer(layer)
    if base is None or removed is None:
        arcs, _ = _composite(net)
    if base is None:
        base = _distance_matrix(arcs.gather(), net.n)
    if base[i, j] == INFINITE:
        raise DisconnectedPairError(
            f"nodes {i} and {j} are not composite-connected; pair excluded from torque")
    if removed is None:
        removed = _distance_matrix(arcs.gather(layer), net.n)
    return int(removed[i, j] > base[i, j])


def network_torque(net: MultiplexNetwork, layer: int) -> float:
    """Fraction of composite-connected unordered pairs critical for the layer."""
    arcs, levels = _composite(net)
    connected = _connected_pairs(levels)
    critical = _layer_counts(net, layer, arcs, levels)
    if connected == 0:
        raise UndefinedStatisticError("torque undefined: no composite-connected pairs")
    return critical / connected


def torque_all_layers(net: MultiplexNetwork) -> TorqueReport:
    """One torque per registered layer, one composite walk shared by all."""
    arcs, levels = _composite(net)
    connected = _connected_pairs(levels)
    if connected == 0:
        raise UndefinedStatisticError("torque undefined: no composite-connected pairs")
    crit = tuple(_layer_counts(net, layer, arcs, levels)
                 for layer in range(len(net.registry)))
    return TorqueReport(
        layers=net.registry.names,
        torque=tuple(c / connected for c in crit),
        critical_pairs=crit,
        connected_pairs=connected,
    )


def _layer_counts(net: MultiplexNetwork, layer: int, arcs: msbfs.ArcSet,
                  levels: list[np.ndarray]) -> int:
    """Critical pairs for one layer, given the composite's level sets."""
    net._check_layer(layer)
    removed = msbfs.levels(arcs.gather(layer), net.n, depth=len(levels) - 1)
    ordered = sum(msbfs.popcount(b & ~b_prev & ~r)
                  for b_prev, b, r in zip(levels, levels[1:], removed[1:]))
    return ordered // 2
