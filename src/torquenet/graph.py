"""Core data model: directed layer-tagged nominations and derived graphs.

A MultiplexNetwork stores nominations aggregated into a per-dyad index:
for each unordered pair {u, v} (u < v) a mapping layer id -> direction
bitmask, where bit 1 means u nominated v and bit 2 means v nominated u.
Composite and layer-removed graphs are undirected; direction is retained
only for the exposure computations that consume it.

Layer removal is dyad-support removal: the undirected edge {u, v} survives
removal of layer L unless L was the only layer supporting the dyad.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .errors import IngestError, UnknownLayerError
from .layers import LayerRegistry

DIR_FWD = 1  # u -> v for the dyad key (u, v), u < v
DIR_REV = 2  # v -> u


@dataclass(frozen=True)
class Nomination:
    """One directed name-generator response: ego names alter on a layer."""

    ego: int
    alter: int
    layer: int


class SimpleGraph:
    """Undirected unweighted graph on dense node ids 0..n-1.

    Immutable after construction. Adjacency is stored both as sorted
    neighbor lists (for BFS) and as a flat edge array (for bulk ops).
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        uniq = {(u, v) if u < v else (v, u) for u, v in edges if u != v}
        self.edges = tuple(sorted(uniq))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self._adj], dtype=np.int64)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 matrix; fine for the village sizes in scope."""
        a = np.zeros((self.n, self.n), dtype=np.uint8)
        for u, v in self.edges:
            a[u, v] = 1
            a[v, u] = 1
        return a

    def connected_components(self) -> np.ndarray:
        """Component label per node, labels dense in discovery order."""
        labels = np.full(self.n, -1, dtype=np.int64)
        nxt = 0
        for start in range(self.n):
            if labels[start] >= 0:
                continue
            labels[start] = nxt
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if labels[w] < 0:
                        labels[w] = nxt
                        stack.append(w)
            nxt += 1
        return labels


class MultiplexNetwork:
    """Aggregated nomination network for one village.

    dyads: dict keyed by (u, v) with u < v; values map layer id to a
    direction bitmask (DIR_FWD / DIR_REV / both).
    """

    __slots__ = ("n", "registry", "dyads", "nomination_count", "_out_by_layer")

    def __init__(self, n: int, registry: LayerRegistry,
                 dyads: Mapping[tuple[int, int], Mapping[int, int]],
                 nomination_count: int):
        self.n = n
        self.registry = registry
        self.dyads = {k: dict(v) for k, v in sorted(dyads.items())}
        self.nomination_count = nomination_count
        self._out_by_layer = None

    # -- construction ------------------------------------------------

    @staticmethod
    def from_nominations(nominations: Iterable[Nomination], n: int,
                         registry: LayerRegistry) -> "MultiplexNetwork":
        dyads: dict[tuple[int, int], dict[int, int]] = {}
        seen: set[tuple[int, int, int]] = set()
        for row, nom in enumerate(nominations):
            ego, alter, layer = nom.ego, nom.alter, nom.layer
            if not (0 <= ego < n) or not (0 <= alter < n):
                raise IngestError(
                    f"node id out of range in nomination {ego}->{alter}", line=row)
            if ego == alter:
                raise IngestError(f"self-nomination by node {ego}", line=row)
            if not (0 <= layer < len(registry)):
                raise UnknownLayerError(f"layer id {layer} out of range")
            key = (ego, alter, layer)
            if key in seen:
                continue
            seen.add(key)
            if ego < alter:
                dyad, bit = (ego, alter), DIR_FWD
            else:
                dyad, bit = (alter, ego), DIR_REV
            dyads.setdefault(dyad, {})[layer] = dyads.get(dyad, {}).get(layer, 0) | bit
        return MultiplexNetwork(n, registry, dyads, nomination_count=len(seen))

    # -- derived graphs ----------------------------------------------

    def composite(self) -> SimpleGraph:
        """Undirected union over all layers and directions."""
        return SimpleGraph(self.n, self.dyads.keys())

    def composite_minus_layer(self, layer: int) -> SimpleGraph:
        """Composite after dyad-support removal of one layer."""
        self._check_layer(layer)
        edges = [d for d, sup in self.dyads.items()
                 if any(l != layer for l in sup)]
        return SimpleGraph(self.n, edges)

    def layer_subgraph(self, layer: int) -> SimpleGraph:
        """Dyads supported by the given layer (either direction)."""
        self._check_layer(layer)
        return SimpleGraph(self.n, [d for d, sup in self.dyads.items() if layer in sup])

    # -- directed views ----------------------------------------------

    def out_neighbors_by_layer(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """out[layer][ego] = sorted alters that ego nominated on that layer."""
        if self._out_by_layer is None:
            nlay = len(self.registry)
            out: list[list[list[int]]] = [[[] for _ in range(self.n)] for _ in range(nlay)]
            for (u, v), sup in self.dyads.items():
                for layer, mask in sup.items():
                    if mask & DIR_FWD:
                        out[layer][u].append(v)
                    if mask & DIR_REV:
                        out[layer][v].append(u)
            self._out_by_layer = tuple(
                tuple(tuple(sorted(a)) for a in per_layer) for per_layer in out)
        return self._out_by_layer

    def nomination_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ego, alter, layer) int64 arrays, one entry per collapsed nomination."""
        sups = self.dyads.values()
        per_dyad = np.fromiter(map(len, sups), dtype=np.int64, count=len(sups))
        uv = np.fromiter(chain.from_iterable(self.dyads), dtype=np.int64,
                         count=2 * len(sups))
        u, v = np.repeat(uv[0::2], per_dyad), np.repeat(uv[1::2], per_dyad)
        layer = np.fromiter(chain.from_iterable(sups), dtype=np.int64)
        mask = np.fromiter(chain.from_iterable(map(dict.values, sups)), dtype=np.int64)
        fwd = (mask & DIR_FWD) > 0
        rev = (mask & DIR_REV) > 0
        return (np.concatenate([u[fwd], v[rev]]), np.concatenate([v[fwd], u[rev]]),
                np.concatenate([layer[fwd], layer[rev]]))

    def nominations(self) -> list[Nomination]:
        """Recover the collapsed nomination set, deterministically ordered."""
        noms = []
        for (u, v), sup in self.dyads.items():
            for layer, mask in sorted(sup.items()):
                if mask & DIR_FWD:
                    noms.append(Nomination(u, v, layer))
                if mask & DIR_REV:
                    noms.append(Nomination(v, u, layer))
        noms.sort(key=lambda nm: (nm.ego, nm.alter, nm.layer))
        return noms

    # -- counts ------------------------------------------------------

    def dyad_count(self) -> int:
        return len(self.dyads)

    def layer_nomination_counts(self) -> np.ndarray:
        """Directed nomination count per layer (reciprocal dyads count twice)."""
        counts = np.zeros(len(self.registry), dtype=np.int64)
        for sup in self.dyads.values():
            for layer, mask in sup.items():
                counts[layer] += (1 if mask & DIR_FWD else 0) + (1 if mask & DIR_REV else 0)
        return counts

    def layer_dyad_counts(self) -> np.ndarray:
        counts = np.zeros(len(self.registry), dtype=np.int64)
        for sup in self.dyads.values():
            for layer in sup:
                counts[layer] += 1
        return counts

    def _check_layer(self, layer: int) -> None:
        if not (0 <= layer < len(self.registry)):
            raise UnknownLayerError(f"layer id {layer} out of range")


def build_network(nominations: Iterable[Nomination], n: int,
                  registry: LayerRegistry) -> MultiplexNetwork:
    """Aggregate raw nominations into a MultiplexNetwork.

    Duplicate triples collapse; self-nominations and out-of-range ids are
    ingest errors naming the offending row.
    """
    return MultiplexNetwork.from_nominations(nominations, n, registry)
