"""Per-layer and per-graph descriptive statistics.

Prevalence works on directed nomination counts; the graph statistics work
on undirected SimpleGraphs. Edge betweenness is the standard unweighted
kind: each unordered pair contributes weight 1 split equally across its
geodesics, accumulated per source in the usual single-source scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UndefinedStatisticError
from .graph import MultiplexNetwork, SimpleGraph


@dataclass(frozen=True)
class LayerStats:
    """Descriptive summary of one layer within one village."""

    layer: str
    prevalence: float
    clustering: float
    reachability: float
    monoplexity: float
    mean_edge_betweenness: float
    dyads: int
    nominations: int


def prevalence(net: MultiplexNetwork, layer: int) -> float:
    """Share of all directed nominations tagged with the given layer."""
    total = net.nomination_count
    if total == 0:
        raise UndefinedStatisticError("prevalence undefined for an empty network")
    return float(net.layer_nomination_counts()[layer]) / total


def clustering(g: SimpleGraph, *, skip_low_degree: bool = False) -> float:
    """Average local clustering coefficient.

    Nodes of degree < 2 contribute 0 by default; with skip_low_degree they
    are dropped from the average instead.
    """
    if g.n == 0:
        return 0.0
    coeffs = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        d = len(nbrs)
        if d < 2:
            if not skip_low_degree:
                coeffs.append(0.0)
            continue
        links = 0
        for i, a in enumerate(nbrs):
            a_nbrs = set(g.neighbors(a))
            # count each pair of neighbors once
            for b in nbrs[i + 1:]:
                if b in a_nbrs:
                    links += 1
        coeffs.append(2.0 * links / (d * (d - 1)))
    if not coeffs:
        return 0.0
    return float(np.mean(coeffs))


def transitivity(g: SimpleGraph) -> float:
    """Global clustering: 3 * triangles / connected triples (0 if no triples)."""
    triangles = 0
    triples = 0
    for v in range(g.n):
        nbrs = g.neighbors(v)
        d = len(nbrs)
        if d < 2:
            continue
        triples += d * (d - 1) // 2
        for i, a in enumerate(nbrs):
            a_nbrs = set(g.neighbors(a))
            for b in nbrs[i + 1:]:
                if b in a_nbrs:
                    triangles += 1
    if triples == 0:
        return 0.0
    # each triangle is counted once per corner, i.e. 3 times total
    return triangles / triples


def reachability(g: SimpleGraph) -> float:
    """Fraction of unordered node pairs joined by a finite path."""
    if g.n < 2:
        raise UndefinedStatisticError("reachability needs at least two nodes")
    labels = g.connected_components()
    _, sizes = np.unique(labels, return_counts=True)
    same = int(np.sum(sizes * (sizes - 1) // 2))
    return same / (g.n * (g.n - 1) // 2)


def monoplexity(net: MultiplexNetwork, layer: int) -> float:
    """Share of the layer's dyads supported by that layer alone."""
    net._check_layer(layer)
    u, v, lay = net.dyad_layers()
    _, dyad, support = np.unique(u * net.n + v, return_inverse=True,
                                 return_counts=True)
    on = lay == layer
    supported = int(np.count_nonzero(on))
    alone = int(np.count_nonzero(on & (support[dyad] == 1)))
    if supported == 0:
        raise UndefinedStatisticError(
            f"monoplexity undefined: layer {net.registry.name_of(layer)} has no dyads")
    return alone / supported


def edge_betweenness(g: SimpleGraph, *, exact: bool = False) -> dict[tuple[int, int], float]:
    """Unweighted edge betweenness, unordered pairs counted once.

    Per-source accumulation: BFS from each source builds geodesic counts,
    then dependencies flow back down the BFS dag. Each unordered pair is
    reached from both endpoints, so the accumulated totals are halved.
    With exact=True all arithmetic uses Fractions, which makes the result
    independent of accumulation order by construction.
    """
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    scores = {e: zero for e in g.edges}
    for s in range(g.n):
        # single-source shortest-path counts
        dist = [-1] * g.n
        sigma = [zero] * g.n
        dist[s] = 0
        sigma[s] = one
        order = [s]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for w in g.neighbors(u):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    order.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] = sigma[w] + sigma[u]
        # back-propagate pair dependencies along the dag
        delta = [zero] * g.n
        for w in reversed(order[1:]):
            coeff = (one + delta[w]) / sigma[w]
            for u in g.neighbors(w):
                if dist[u] == dist[w] - 1:
                    contrib = sigma[u] * coeff
                    delta[u] = delta[u] + contrib
                    e = (u, w) if u < w else (w, u)
                    scores[e] = scores[e] + contrib
    half = Fraction(1, 2) if exact else 0.5
    return {e: v * half for e, v in scores.items()}


def layer_mean_betweenness(net: MultiplexNetwork, layer: int,
                           scores: dict[tuple[int, int], float] | None = None) -> float:
    """Mean composite-graph edge betweenness over the layer's dyads.

    Pass precomputed composite scores when summarizing many layers of the
    same village; otherwise they are computed here.
    """
    net._check_layer(layer)
    u, v, lay = net.dyad_layers()
    on = lay == layer
    edges = list(zip(u[on].tolist(), v[on].tolist()))
    if not edges:
        raise UndefinedStatisticError(
            f"betweenness undefined: layer {net.registry.name_of(layer)} has no dyads")
    if scores is None:
        scores = edge_betweenness(net.composite())
    return float(np.mean([float(scores[e]) for e in edges]))


def layer_stats(net: MultiplexNetwork, layer: int,
                scores: dict[tuple[int, int], float] | None = None) -> LayerStats:
    """Bundle of all per-layer descriptives; undefined entries become NaN."""
    sub = net.layer_subgraph(layer)
    noms = int(net.layer_nomination_counts()[layer])
    n_dyads = int(net.layer_dyad_counts()[layer])
    try:
        prev = prevalence(net, layer)
    except UndefinedStatisticError:
        prev = float("nan")
    try:
        mono = monoplexity(net, layer)
    except UndefinedStatisticError:
        mono = float("nan")
    try:
        reach = reachability(sub)
    except UndefinedStatisticError:
        reach = float("nan")
    try:
        betw = layer_mean_betweenness(net, layer, scores)
    except UndefinedStatisticError:
        betw = float("nan")
    return LayerStats(
        layer=net.registry.name_of(layer),
        prevalence=prev,
        clustering=clustering(sub),
        reachability=reach,
        monoplexity=mono,
        mean_edge_betweenness=betw,
        dyads=n_dyads,
        nominations=noms,
    )
