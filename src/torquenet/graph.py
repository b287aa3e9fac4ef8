"""Core data model: a village's collapsed nominations and derived graphs.

A MultiplexNetwork stores one village's nominations as three int64 arrays
ego, alter and layer: entry i says that ego[i] named alter[i] on layer
layer[i]. Duplicate triples are collapsed and the entries are sorted by
(ego, alter, layer). Every other view is computed from these arrays when
asked for. dyad_layers() forgets direction: it lists the distinct
(u, v, layer) rows with u < v, the layers supporting each undirected dyad.
Composite and layer graphs are undirected; direction matters only to the
exposure counts and the diffusion cascade, which read the arrays.

Layer removal is dyad-support removal: the undirected edge {u, v} survives
removal of layer L unless L was the only layer supporting the dyad.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import IngestError, UnknownLayerError
from .layers import LayerRegistry


class SimpleGraph:
    """Undirected unweighted graph on dense node ids 0..n-1.

    Immutable after construction. Adjacency is stored both as sorted
    neighbor lists (for BFS) and as a sorted edge tuple (for bulk ops).
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

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

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


def _unique_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int,
                 n_layers: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (a, b, c) rows, a and b < n and c < n_layers, sorted."""
    n, n_layers = max(n, 1), max(n_layers, 1)
    ab, c = np.divmod(np.unique((a * n + b) * n_layers + c), n_layers)
    a, b = np.divmod(ab, n)
    return a, b, c


class MultiplexNetwork:
    """Collapsed nomination set of one village; build it with build_network.

    ego, alter and layer are int64 arrays of equal length, one entry per
    distinct directed nomination, sorted by (ego, alter, layer).
    """

    __slots__ = ("n", "registry", "ego", "alter", "layer", "_dyad_layers")

    def __init__(self, n: int, registry: LayerRegistry, ego: np.ndarray,
                 alter: np.ndarray, layer: np.ndarray):
        self.n = n
        self.registry = registry
        self.ego, self.alter, self.layer = ego, alter, layer
        self._dyad_layers = None

    @property
    def nomination_count(self) -> int:
        return len(self.ego)

    def dyad_layers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, layer) arrays: each layer supporting the undirected dyad
        {u, v}, u < v, once, sorted by (u, v, layer).

        Computed on the first call and shared by every later one, so the
        arrays are read-only."""
        if self._dyad_layers is None:
            rows = _unique_rows(np.minimum(self.ego, self.alter),
                                np.maximum(self.ego, self.alter), self.layer,
                                self.n, len(self.registry))
            for a in rows:
                a.flags.writeable = False
            self._dyad_layers = rows
        return self._dyad_layers

    # -- derived graphs ----------------------------------------------

    def composite(self) -> SimpleGraph:
        """Undirected union over all layers and directions."""
        u, v, _ = self.dyad_layers()
        return SimpleGraph(self.n, zip(u.tolist(), v.tolist()))

    def layer_subgraph(self, layer: int) -> SimpleGraph:
        """Dyads supported by the given layer (either direction)."""
        self._check_layer(layer)
        u, v, lay = self.dyad_layers()
        on = lay == layer
        return SimpleGraph(self.n, zip(u[on].tolist(), v[on].tolist()))

    # -- counts ------------------------------------------------------

    def dyad_count(self) -> int:
        u, v, _ = self.dyad_layers()
        return len(np.unique(u * self.n + v))

    def layer_nomination_counts(self) -> np.ndarray:
        """Directed nomination count per layer (reciprocal dyads count twice)."""
        return np.bincount(self.layer, minlength=len(self.registry))

    def layer_dyad_counts(self) -> np.ndarray:
        return np.bincount(self.dyad_layers()[2], minlength=len(self.registry))

    def _check_layer(self, layer: int) -> None:
        if not (0 <= layer < len(self.registry)):
            raise UnknownLayerError(f"layer id {layer} out of range")


def build_network(ego, alter, layer, n: int,
                  registry: LayerRegistry) -> MultiplexNetwork:
    """Collapse raw nominations, given as three equal-length integer
    sequences, into a MultiplexNetwork.

    Duplicate triples collapse. An out-of-range node id or a
    self-nomination is an IngestError and an out-of-range layer id an
    UnknownLayerError; either names the first offending index as its line.
    """
    ego, alter, layer = (np.asarray(a, dtype=np.int64).reshape(-1)
                         for a in (ego, alter, layer))
    if not len(ego) == len(alter) == len(layer):
        raise IngestError("ego, alter and layer arrays differ in length")
    bad_node = (ego < 0) | (ego >= n) | (alter < 0) | (alter >= n)
    bad = bad_node | (ego == alter) | (layer < 0) | (layer >= len(registry))
    if bad.any():
        row = int(np.argmax(bad))
        e, a, lay = int(ego[row]), int(alter[row]), int(layer[row])
        if bad_node[row]:
            raise IngestError(f"node id out of range in nomination {e}->{a}", line=row)
        if e == a:
            raise IngestError(f"self-nomination by node {e}", line=row)
        raise UnknownLayerError(f"layer id {lay} out of range", line=row)
    return MultiplexNetwork(n, registry, *_unique_rows(ego, alter, layer, n,
                                                       len(registry)))
