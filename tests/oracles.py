"""Independent reference implementations the tests check against.

Everything here is deliberately naive: plain-Python BFS, exhaustive
simple-path enumeration, brute-force triple counting, central finite
differences. Slow but transparently correct on small instances, and
sharing no code with the package under test, except that the bootstrap
oracle refits with the package's dense Newton loop.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

import numpy as np
from scipy.special import expit

from torquenet import contagion
from torquenet.errors import CollinearityError, FitError, SeparationError

INF = float("inf")


# -- undirected shortest paths ---------------------------------------


def undirected_adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distances(n, edges, source):
    """Hop distances from one source over an undirected edge list."""
    adj = undirected_adjacency(n, edges)
    dist = [INF] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def all_pairs_by_bfs(n, edges):
    return [bfs_distances(n, edges, s) for s in range(n)]


# -- torque by full recomputation ------------------------------------


def dyad_support(noms):
    """Unordered dyad -> set of layers carrying at least one nomination."""
    support = {}
    for ego, alter, layer in noms:
        key = (ego, alter) if ego < alter else (alter, ego)
        support.setdefault(key, set()).add(layer)
    return support


def torque_by_recount(n, noms, n_layers):
    """Per-layer (critical pairs, connected pairs) from scratch.

    The composite keeps a dyad as long as any layer supports it; dropping
    a layer keeps the dyad when other support remains.
    """
    support = dyad_support(noms)
    base = all_pairs_by_bfs(n, list(support))
    connected = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if base[i][j] < INF]
    out = []
    for layer in range(n_layers):
        kept = [d for d, sup in support.items() if sup - {layer}]
        dist = all_pairs_by_bfs(n, kept)
        critical = sum(1 for i, j in connected if dist[i][j] > base[i][j])
        out.append((critical, len(connected)))
    return out


# -- clustering and transitivity by triple census --------------------


def clustering_by_census(n, edges, skip_low_degree=False):
    eset = {frozenset(e) for e in edges}
    coeffs = []
    for v in range(n):
        nbrs = [u for u in range(n) if u != v and frozenset((u, v)) in eset]
        if len(nbrs) < 2:
            if not skip_low_degree:
                coeffs.append(0.0)
            continue
        closed = sum(1 for a, b in itertools.combinations(nbrs, 2)
                     if frozenset((a, b)) in eset)
        coeffs.append(closed / (len(nbrs) * (len(nbrs) - 1) / 2))
    return sum(coeffs) / len(coeffs) if coeffs else 0.0


def transitivity_by_census(n, edges):
    eset = {frozenset(e) for e in edges}
    triangles = 0
    cherries = 0
    for a, b, c in itertools.combinations(range(n), 3):
        present = ((frozenset((a, b)) in eset)
                   + (frozenset((b, c)) in eset)
                   + (frozenset((a, c)) in eset))
        if present == 3:
            triangles += 1
            cherries += 3
        elif present == 2:
            cherries += 1
    return 3 * triangles / cherries if cherries else 0.0


def reachability_by_bfs(n, edges):
    reached = 0
    for s in range(n):
        dist = bfs_distances(n, edges, s)
        reached += sum(1 for t in range(s + 1, n) if dist[t] < INF)
    return reached / (n * (n - 1) // 2)


# -- edge betweenness by geodesic enumeration ------------------------


def geodesics(n, edges, s, t):
    """Every shortest s-t path as a vertex tuple."""
    dist = bfs_distances(n, edges, s)
    if dist[t] == INF:
        return []
    adj = undirected_adjacency(n, edges)
    paths = []

    def extend(path):
        u = path[-1]
        if u == t:
            paths.append(tuple(path))
            return
        for w in adj[u]:
            if dist[w] == dist[u] + 1 and dist[w] <= dist[t]:
                extend(path + [w])

    extend([s])
    return paths


def betweenness_by_enumeration(n, edges):
    """Edge betweenness with exact Fractions, each unordered pair once."""
    scores = {(min(u, v), max(u, v)): Fraction(0) for u, v in edges}
    for s in range(n):
        for t in range(s + 1, n):
            paths = geodesics(n, edges, s, t)
            if not paths:
                continue
            share = Fraction(1, len(paths))
            for path in paths:
                for u, v in zip(path, path[1:]):
                    e = (u, v) if u < v else (v, u)
                    scores[e] += share
    return scores


# -- exposure by exhaustive path enumeration -------------------------


def step_successors(noms, direction):
    """succ[u][v] = layers that let the chain step from u to v."""
    succ = {}
    for ego, alter, layer in noms:
        u, v = (ego, alter) if direction == "directed" else (alter, ego)
        succ.setdefault(u, {}).setdefault(v, set()).add(layer)
    return succ


def step_distances(succ, source, n, interior_ok=None):
    """Admissible hop distances from source; interior_ok, when given, lets
    only those nodes (and the source) pass the chain on."""
    dist = [INF] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u != source and interior_ok is not None and not interior_ok[u]:
            continue
        for w in succ.get(u, {}):
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def path_exists(succ, f, j, k, excluded=None, interior_ok=None):
    """Any simple path of exactly k admissible steps from f to j?

    excluded strips one layer from every step; interior_ok, when given,
    must hold for every node strictly between the endpoints.
    """

    def dfs(node, depth, seen):
        if depth == k:
            return node == j
        for nxt, layers in succ.get(node, {}).items():
            if nxt in seen:
                continue
            if excluded is not None and not (layers - {excluded}):
                continue
            if depth + 1 < k and interior_ok is not None and not interior_ok[nxt]:
                continue
            if dfs(nxt, depth + 1, seen | {nxt}):
                return True
        return False

    return dfs(f, 0, {f})


def exposure_by_enumeration(n, noms, treated, validated, layer, k, mode,
                            direction, focals=None, n_follows_mode=False):
    """(xi_layer, xi_rest, k_alters) per focal node, by path enumeration.

    Alter membership needs unrestricted admissible distance exactly k;
    primary mode additionally needs a length-k path with validated
    interiors. Criticality asks whether any length-k path avoids the
    designated layer, with no validity filter in either mode. k_alters
    counts nodes at distance exactly k; with n_follows_mode in primary mode
    the distance is over validated interiors only. focals defaults to
    every node.
    """
    succ = step_successors(noms, direction)
    gated = mode == "primary" and n_follows_mode
    out = []
    for f in range(n) if focals is None else focals:
        dist = step_distances(succ, f, n)
        alter_dist = step_distances(succ, f, n, validated) if gated else dist
        xi_l = xi_rest = alters = 0
        for j in range(n):
            if j == f:
                continue
            if alter_dist[j] == k:
                alters += 1
            member = dist[j] == k and treated[j]
            if member and mode == "primary":
                member = path_exists(succ, f, j, k, interior_ok=validated)
            if not member:
                continue
            if path_exists(succ, f, j, k, excluded=layer):
                xi_rest += 1
            else:
                xi_l += 1
        out.append((xi_l, xi_rest, alters))
    return out


# -- diffusion cascade by scalar draws ------------------------------


def cascade_by_loop(n, noms, n_layers, knows0, probs, rounds, rng):
    """Absorbing independent cascade, one scalar draw per attempt.

    Each round, every node that joined in the previous round (ascending),
    on every layer with p > 0 (ascending), tries to inform each ego that
    nominated it on that layer (ascending) and does not know yet.
    """
    nominators = [[[] for _ in range(n)] for _ in range(n_layers)]
    for ego, alter, layer in sorted(set(noms)):
        nominators[layer][alter].append(ego)
    knows = [bool(x) for x in knows0]
    frontier = [v for v in range(n) if knows[v]]
    for _ in range(rounds):
        if not frontier:
            break
        newly = set()
        for b in frontier:
            for layer in range(n_layers):
                p = probs[layer]
                if p == 0.0:
                    continue
                for a in nominators[layer][b]:
                    if not knows[a] and rng.random() < p:
                        newly.add(a)
        if not newly:
            break
        frontier = sorted(newly)
        for a in frontier:
            knows[a] = True
    return knows


# -- numerics --------------------------------------------------------


def central_difference_gradient(fun, x, rel_h=1e-6):
    """Central finite-difference gradient with per-coordinate steps."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(len(x)):
        h = rel_h * (1.0 + abs(x[j]))
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad


def logit_2x2_table(n00, n01, n10, n11):
    """Closed-form logit for one binary regressor: (slope, slope SE).

    Counts are (x, y) cell sizes; the MLE slope is the log odds ratio and
    its standard error is the square root of the summed reciprocal counts.
    """
    slope = float(np.log((n11 / n10) / (n01 / n00)))
    se = float(np.sqrt(1.0 / n00 + 1.0 / n01 + 1.0 / n10 + 1.0 / n11))
    return slope, se


# -- cluster bootstrap by dense dummy-column refits -------------------


def _dense_reduction_stat(X, X0, beta, active=None, row_weights=None):
    if active is not None:
        X = X[:, active]
        X0 = X0[:, active]
    diff = expit(X @ beta) - expit(X0 @ beta)
    if row_weights is None:
        return float(diff.mean())
    total = row_weights.sum()
    return float((diff * row_weights).sum() / total)


def reduction_by_dense_refit(model, xi_column="xi_layer", n_boot=1000,
                             level=0.95, seed=0):
    """(ci_low, ci_high, n_failed) of the village-cluster bootstrap, each
    replicate refit on the full dummy design: zero case weights for the
    villages not drawn, their dummy columns masked out, and the design
    re-based on the lowest drawn village when the reference is not drawn.

    The refits run the package's dense Newton loop (no groups), which the
    likelihood tests in test_contagion.py pin on their own.
    """
    frame = model.frame
    j = frame.columns.index(xi_column)
    X = frame.X
    X0 = X.copy()
    X0[:, j] = 0.0
    nv = len(frame.villages)
    # fixed-effect column index per village (reference has none)
    fe_col = {v: frame.columns.index(f"village:{frame.villages[v]}")
              for v in range(1, nv)}
    present = np.bincount(frame.village_code, minlength=nv) > 0
    codes = frame.village_code
    y = frame.y
    present_ids = np.flatnonzero(present)

    def one_rep(rep):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        draw = rng.choice(present_ids, size=len(present_ids), replace=True)
        w_village = np.bincount(draw, minlength=nv).astype(float)
        w_row = w_village[codes]
        active = np.ones(len(frame.columns), dtype=bool)
        for v, col in fe_col.items():
            if w_village[v] == 0:
                active[col] = False
        if w_village[0] == 0:
            # reference village absent: the surviving dummies sum to one on
            # every weighted row, so re-base on the lowest drawn village
            new_ref = int(np.flatnonzero(w_village)[0])
            active[fe_col[new_ref]] = False
        yw = y[w_row > 0]
        if not ((yw == 0).any() and (yw == 1).any()):
            return None
        try:
            beta_r, _, _, _, _ = contagion.newton_logit(
                X[:, active], y, weights=w_row, start=model.beta[active],
                columns=tuple(np.array(frame.columns)[active]))
        except (FitError, SeparationError, CollinearityError):
            return None
        return _dense_reduction_stat(X, X0, beta_r, active=active,
                                     row_weights=w_row)

    results = [one_rep(rep) for rep in range(n_boot)]
    stats = np.array([r for r in results if r is not None])
    tail = 100.0 * (1.0 - level) / 2.0
    ci_low, ci_high = np.percentile(stats, [tail, 100.0 - tail])
    return float(ci_low), float(ci_high), n_boot - len(stats)
