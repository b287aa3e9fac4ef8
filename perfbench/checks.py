"""Output checks that do not trust the program.

Every check recomputes its expectation from the input CSVs with code of its
own (union-find, bitset and set-based BFS, numpy logit algebra), or tests a
property the method must have. A failed check raises ``CheckFailed`` naming
the file, the row and what was expected.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os

# Fixed six-decimal output: a printed value is within this of the exact one.
ROUND = 5e-7


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _float(raw):
    return float("nan") if raw == "" else float(raw)


# -- inputs ----------------------------------------------------------


class Inputs:
    """The simulated CSVs, parsed once and shared by every check."""

    def __init__(self, data_dir: str, scenario_path: str):
        self.scenario = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        with open(scenario_path, encoding="utf-8") as fh:
            self.scenario.read_file(fh)
        self.noms: dict[str, set] = {}
        with open(os.path.join(data_dir, "edges.csv"), newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            _require(next(reader) == ["village", "ego", "alter", "layer"],
                     "edges.csv: unexpected header")
            for village, ego, alter, layer in reader:
                self.noms.setdefault(village, set()).add((ego, alter, layer))
        self.layers = sorted({l for s in self.noms.values() for _, _, l in s})
        self.attrs: dict[str, dict[str, dict]] = {}
        self.topics: list[str] = []
        attrs_path = os.path.join(data_dir, "attributes.csv")
        if os.path.exists(attrs_path):
            rows = _read_rows(attrs_path)
            if rows:
                self.topics = sorted(c[len("treated_"):] for c in rows[0]
                                     if c.startswith("treated_"))
            for row in rows:
                self.attrs.setdefault(row["village"], {})[row["node"]] = row
        self._dyads: dict[str, dict] = {}
        self._out: dict[str, dict] = {}

    def villages(self) -> list[str]:
        return sorted(self.attrs or self.noms)

    def nodes(self, village: str) -> list[str]:
        """Node ids in the order the program indexes them (sorted)."""
        return sorted(self.attrs[village])

    def dyads(self, village: str) -> dict[tuple[str, str], set]:
        """Unordered pair -> layers nominating across it in either direction."""
        if village not in self._dyads:
            d: dict[tuple[str, str], set] = {}
            for ego, alter, layer in self.noms.get(village, ()):
                key = (ego, alter) if ego < alter else (alter, ego)
                d.setdefault(key, set()).add(layer)
            self._dyads[village] = d
        return self._dyads[village]

    def out(self, village: str) -> dict[str, dict[str, set]]:
        """ego -> alter -> layers on which ego nominated alter."""
        if village not in self._out:
            o: dict[str, dict[str, set]] = {}
            for ego, alter, layer in self.noms.get(village, ()):
                o.setdefault(ego, {}).setdefault(alter, set()).add(layer)
            self._out[village] = o
        return self._out[village]

    def flag(self, village: str, node: str, column: str) -> bool:
        raw = self.attrs[village][node][column]
        return raw != "" and float(raw) == 1.0


# -- simulate ----------------------------------------------------------


def check_simulate(inp: Inputs) -> None:
    sc = inp.scenario
    count = sc.getint("villages", "count")
    lo = sc.getint("villages", "size_min")
    hi = sc.getint("villages", "size_max")
    fraction = sc.getfloat("intervention", "fraction")
    topics = sorted(t.strip() for t in sc.get("topics", "names").split(","))
    _require(len(inp.attrs) == count,
             f"simulate: {len(inp.attrs)} villages, scenario asks for {count}")
    _require(inp.topics == topics,
             f"simulate: topics {inp.topics}, scenario names {topics}")
    for village, rows in inp.attrs.items():
        n = len(rows)
        _require(lo <= n <= hi, f"simulate: {village} has {n} nodes, not in [{lo}, {hi}]")
        for topic in topics:
            treated = sum(inp.flag(village, node, f"treated_{topic}") for node in rows)
            _require(treated >= fraction * n - 1e-9,
                     f"simulate: {village} treats {treated}/{n} on {topic}, "
                     f"below fraction {fraction}")


# -- torque ------------------------------------------------------------


def _components_pairs(dyads) -> int:
    """Sum of C(size, 2) over the components of the undirected dyad graph."""
    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in dyads:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    sizes: dict[str, int] = {}
    for x in parent:
        r = find(x)
        sizes[r] = sizes.get(r, 0) + 1
    return sum(s * (s - 1) // 2 for s in sizes.values())


def _reach_levels(n, nbrs):
    """levels[d][v]: bitset of the nodes within distance d of v."""
    cur = [1 << v for v in range(n)]
    levels = [cur]
    while True:
        nxt = []
        changed = False
        for v in range(n):
            x = cur[v]
            for u in nbrs[v]:
                x |= cur[u]
            changed |= x != cur[v]
            nxt.append(x)
        if not changed:
            return levels
        levels.append(nxt)
        cur = nxt


def critical_pairs_bfs(dyads, layer) -> int:
    """Pairs whose geodesic strictly lengthens without the layer's sole-support
    dyads, counted by level-synchronous bitset BFS on both graphs."""
    names = sorted({x for d in dyads for x in d})
    index = {x: i for i, x in enumerate(names)}
    n = len(names)
    base = [[] for _ in range(n)]
    removed = [[] for _ in range(n)]
    for (a, b), layers in dyads.items():
        i, j = index[a], index[b]
        base[i].append(j)
        base[j].append(i)
        if layers != {layer}:
            removed[i].append(j)
            removed[j].append(i)
    if base == removed:
        return 0
    bl = _reach_levels(n, base)
    rl = _reach_levels(n, removed)
    crit = 0
    for d in range(1, len(bl)):
        bd, bp, rd = bl[d], bl[d - 1], rl[min(d, len(rl) - 1)]
        for v in range(n):
            crit += (bd[v] & ~bp[v] & ~rd[v]).bit_count()
    return crit // 2


def check_torque(path: str, inp: Inputs, recount: tuple[int, ...] | None) -> dict:
    """Returns {village: {layer: (critical, connected)}} for later checks."""
    rows = _read_rows(path)
    table: dict[str, dict[str, tuple[int, int]]] = {}
    for r in rows:
        t = float(r["torque"])
        crit, conn = int(r["critical_pairs"]), int(r["connected_pairs"])
        where = f"torque {r['village']}/{r['layer']}"
        _require(0.0 <= t <= 1.0, f"{where}: torque {t} outside [0, 1]")
        _require(conn > 0 and abs(t - crit / conn) <= ROUND,
                 f"{where}: torque {t} != {crit}/{conn}")
        table.setdefault(r["village"], {})[r["layer"]] = (crit, conn)
    villages = sorted(inp.noms)
    _require(sorted(table) == villages, "torque: village set differs from edges.csv")
    for pos, village in enumerate(villages):
        dyads = inp.dyads(village)
        got = table[village]
        _require(sorted(got) == inp.layers,
                 f"torque {village}: layers {sorted(got)} != {inp.layers}")
        expect_conn = _components_pairs(dyads)
        for layer, (crit, conn) in got.items():
            where = f"torque {village}/{layer}"
            _require(conn == expect_conn,
                     f"{where}: connected_pairs {conn}, union-find gives {expect_conn}")
            covered = all(ls != {layer} for ls in dyads.values())
            _require(not covered or crit == 0,
                     f"{where}: every dyad has other-layer support but "
                     f"critical_pairs is {crit}")
            if recount is None or pos in recount:
                expect = critical_pairs_bfs(dyads, layer)
                _require(crit == expect,
                         f"{where}: critical_pairs {crit}, BFS recount {expect}")
    return table


# -- metrics -----------------------------------------------------------


def check_metrics(path: str, inp: Inputs) -> None:
    rows = _read_rows(path)
    by_village: dict[str, list] = {}
    for r in rows:
        by_village.setdefault(r["village"], []).append(r)
    _require(sorted(by_village) == sorted(inp.noms),
             "metrics: village set differs from edges.csv")
    for village, vrows in by_village.items():
        _require(sorted(r["layer"] for r in vrows) == inp.layers,
                 f"metrics {village}: layer rows differ from edges.csv")
        total = sum(_float(r["prevalence"]) for r in vrows)
        _require(abs(total - 1.0) <= ROUND * len(vrows),
                 f"metrics {village}: prevalence sums to {total}")
        noms = inp.noms[village]
        dyads = inp.dyads(village)
        for r in vrows:
            layer = r["layer"]
            n_noms = sum(1 for _, _, l in noms if l == layer)
            n_dyads = sum(1 for ls in dyads.values() if layer in ls)
            _require(int(r["nominations"]) == n_noms,
                     f"metrics {village}/{layer}: nominations {r['nominations']}, "
                     f"recount {n_noms}")
            _require(int(r["dyads"]) == n_dyads,
                     f"metrics {village}/{layer}: dyads {r['dyads']}, recount {n_dyads}")


# -- exposure ----------------------------------------------------------


def _bfs_depths(out, focal, kmax, skip_layer=None, validated=None):
    """Shortest admissible (ego -> alter) path lengths from focal, up to kmax.

    skip_layer drops the nominations of one layer; validated, when given,
    lets only validated nodes at depth >= 1 extend a path (path interiors).
    """
    depth = {focal: 0}
    frontier = [focal]
    for d in range(1, kmax + 1):
        nxt = []
        for u in frontier:
            if validated is not None and d > 1 and u not in validated:
                continue
            for v, layers in out.get(u, {}).items():
                if v in depth or layers == {skip_layer}:
                    continue
                depth[v] = d
                nxt.append(v)
        frontier = nxt
    return depth


def recount_exposure(inp: Inputs, village: str, focal: str, topic: str,
                     k: int, primary: bool) -> dict:
    """layer -> (xi_L, xi_notL, N_k) for one focal node, DIRECTED steps."""
    out = inp.out(village)
    nodes = inp.nodes(village)
    treated = {x for x in nodes if inp.flag(village, x, f"treated_{topic}")}
    base = _bfs_depths(out, focal, k)
    at_k = {x for x, d in base.items() if d == k}
    members = at_k & treated
    if primary:
        validated = treated | {x for x in nodes if inp.flag(village, x, f"k_w3_{topic}")}
        pdepth = _bfs_depths(out, focal, k, validated=validated)
        members = {x for x in members if pdepth.get(x) == k}
    result = {}
    for layer in inp.layers:
        excl = _bfs_depths(out, focal, k, skip_layer=layer)
        xi_l = sum(1 for x in members if excl.get(x) != k)
        result[layer] = (xi_l, len(members) - xi_l, len(at_k))
    return result


def check_exposure(path: str, inp: Inputs, topic: str, ks: list[int], mode: str,
                   focal_per_village: int, village_stride: int) -> None:
    table: dict[tuple[str, str, int], dict[str, tuple[int, int, int]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        _require(header == ["village", "node", "layer", "k", "mode", "direction",
                            "xi_L", "xi_notL", "N_k"], f"exposure: header {header}")
        for village, node, layer, k, m, direction, xl, xr, nk in reader:
            xl, xr, nk = int(xl), int(xr), int(nk)
            where = f"exposure {village}/{node}/{layer}/k={k}"
            _require(m == mode and direction == "directed",
                     f"{where}: mode {m}/{direction}")
            _require(min(xl, xr) >= 0 and xl + xr <= nk,
                     f"{where}: xi_L + xi_notL = {xl + xr} > N_k = {nk}")
            table.setdefault((village, node, int(k)), {})[layer] = (xl, xr, nk)
    villages = inp.villages()
    expect_keys = len(ks) * sum(len(inp.attrs[v]) for v in villages)
    _require(len(table) == expect_keys,
             f"exposure: {len(table)} (village, node, k) groups, expected {expect_keys}")
    for key, per_layer in table.items():
        _require(sorted(per_layer) == inp.layers, f"exposure {key}: layer rows")
        _require(len({nk for _, _, nk in per_layer.values()}) == 1,
                 f"exposure {key}: N_k differs between layers")
        if mode == "secondary":
            _require(len({xl + xr for xl, xr, _ in per_layer.values()}) == 1,
                     f"exposure {key}: xi_L + xi_notL differs between layers")
    primary = mode == "primary"
    for village in villages[::village_stride]:
        nodes = inp.nodes(village)
        step = max(1, len(nodes) // focal_per_village)
        for focal in nodes[::step][:focal_per_village]:
            for k in ks:
                got = table[(village, focal, k)]
                expect = recount_exposure(inp, village, focal, topic, k, primary)
                if primary:
                    secondary = recount_exposure(inp, village, focal, topic, k, False)
                    for layer, (xl, xr, _) in got.items():
                        s = secondary[layer]
                        _require(xl + xr <= s[0] + s[1],
                                 f"exposure {village}/{focal}/{layer}/k={k}: PRIMARY "
                                 f"sum {xl + xr} exceeds SECONDARY recount {s[0] + s[1]}")
                for layer, counts in got.items():
                    _require(counts == expect[layer],
                             f"exposure {village}/{focal}/{layer}/k={k}: "
                             f"{counts}, BFS recount {expect[layer]}")


# -- estimation --------------------------------------------------------


def check_fit(out_dir: str):
    """Check fit.json against the dumped design; return (X, y, columns, beta)."""
    import numpy as np

    with open(os.path.join(out_dir, "design.csv"), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader]
    columns = header[3:]
    y = np.array([float(r[2]) for r in rows])
    X = np.array([[float(v) for v in r[3:]] for r in rows])
    with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    terms = {t["term"]: t for t in payload["terms"]}
    _require(sorted(terms) == sorted(columns), "fit: terms differ from design columns")
    _require(payload["n_obs"] == len(y), f"fit: n_obs {payload['n_obs']} != {len(y)} rows")
    beta = np.array([terms[c]["coefficient"] for c in columns])
    eta = X @ beta
    p = 1.0 / (1.0 + np.exp(-eta))
    score = X.T @ (y - p)
    scale = np.abs(X).sum(axis=0)
    worst = int(np.argmax(np.abs(score) / scale))
    _require(np.all(np.abs(score) <= 1e-7 + 1e-9 * scale),
             f"fit: score on {columns[worst]} is {score[worst]:.3g}, not near zero")
    loglik = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    _require(math.isclose(loglik, payload["loglik"], rel_tol=1e-9, abs_tol=1e-7),
             f"fit: loglik {payload['loglik']}, recomputed {loglik}")
    hess = (X * (p * (1.0 - p))[:, None]).T @ X
    se = np.sqrt(np.diag(np.linalg.inv(hess)))
    for c, s in zip(columns, se):
        _require(math.isclose(terms[c]["std_error"], s, rel_tol=1e-6),
                 f"fit: std_error of {c} is {terms[c]['std_error']}, recomputed {s}")
    return X, y, columns, beta


def check_reduce(path: str, fit_result, layer: str) -> None:
    import numpy as np

    rows = _read_rows(path)
    _require(len(rows) == 1 and rows[0]["layer"] == layer,
             f"reduce: expected one row for {layer}")
    r = rows[0]
    low, high = float(r["ci_low"]), float(r["ci_high"])
    n_boot, n_failed = int(r["n_boot"]), int(r["n_failed"])
    _require(low <= high, f"reduce: ci_low {low} > ci_high {high}")
    _require(0 <= n_failed < n_boot, f"reduce: {n_failed} of {n_boot} replicates failed")
    X, _, columns, beta = fit_result
    X0 = X.copy()
    X0[:, columns.index("xi_layer")] = 0.0
    expect = float(np.mean(1.0 / (1.0 + np.exp(-(X @ beta)))
                           - 1.0 / (1.0 + np.exp(-(X0 @ beta)))))
    _require(abs(float(r["reduction"]) - expect) <= ROUND + 1e-9,
             f"reduce: reduction {r['reduction']}, recomputed {expect:.9f}")


def check_screen(path: str, topics: list[str], alpha: float = 0.05) -> None:
    rows = _read_rows(path)
    _require(sorted({r["topic"] for r in rows}) == topics, "screen: topic set")
    passes: dict[str, list[bool]] = {}
    for r in rows:
        where = f"screen {r['topic']}/k={r['k']}"
        c, s, z, p = (float(r[f]) for f in ("coefficient", "std_error", "z", "p_value"))
        _require(s > 0, f"{where}: std_error {s}")
        # c and s each carry up to ROUND of print rounding
        z_tol = ROUND * (1.0 + abs(z)) / (s - ROUND) + ROUND
        _require(abs(z - c / s) <= z_tol, f"{where}: z {z}, coefficient/std_error {c / s}")
        p_expect = math.erfc(abs(z) / math.sqrt(2.0))
        _require(abs(p - p_expect) <= 2 * ROUND,
                 f"{where}: p_value {p}, erfc(|z|/sqrt 2) {p_expect}")
        passes.setdefault(r["topic"], []).append(p < alpha)
        _require(r["topic_passes"] in ("0", "1"), f"{where}: topic_passes")
    for r in rows:
        _require(int(r["topic_passes"]) == int(all(passes[r["topic"]])),
                 f"screen {r['topic']}: topic_passes disagrees with the p-values")


def check_experiment(path: str, torque_table: dict, inp: Inputs) -> None:
    rows = _read_rows(path)
    _require(rows, "experiment: no rows")
    villages = sorted(torque_table)
    for r in rows:
        layer, topic = r["layer"], r["topic"]
        fractions = [torque_table[v][layer][0] / torque_table[v][layer][1]
                     if layer in torque_table[v] else 0.0 for v in villages]
        expect = sum(fractions) / len(fractions)
        _require(abs(float(r["mean_torque"]) - expect) <= ROUND + 1e-12,
                 f"experiment {topic}/{layer}: mean_torque {r['mean_torque']}, "
                 f"mean of torque output {expect:.9f}")
        prob = inp.scenario.getfloat(f"diffusion:{topic}", layer, fallback=0.0)
        _require(r["transmitting"] == str(int(prob > 0)),
                 f"experiment {topic}/{layer}: transmitting flag {r['transmitting']}")


def check_same_files(dir_a: str, dir_b: str, names) -> None:
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as a, \
                open(os.path.join(dir_b, name), "rb") as b:
            _require(a.read() == b.read(), f"{name} differs between {dir_a} and {dir_b}")


# -- dispatch ----------------------------------------------------------


def check_outputs(workload, inp: Inputs, out_dirs: dict[str, str]) -> None:
    """Check the simulated inputs and every command output in out_dirs."""
    from workloads import option

    check_simulate(inp)
    torque_table = fit_result = None
    for cmd in workload.commands:
        if cmd.name not in out_dirs:
            continue
        out = out_dirs[cmd.name]
        path = os.path.join(out, f"{cmd.subcommand}.csv")
        kind = cmd.subcommand
        if kind == "torque":
            torque_table = check_torque(path, inp, workload.torque_recount)
        elif kind == "metrics":
            check_metrics(path, inp)
        elif kind == "exposure":
            ks = [int(k) for k in option(cmd.argv, "--k").split(",")]
            check_exposure(path, inp, option(cmd.argv, "--topic"), ks,
                           option(cmd.argv, "--mode", "secondary"),
                           workload.exposure_focal, workload.exposure_village_stride)
        elif kind == "fit":
            fit_result, fit_argv = check_fit(out), cmd.argv
        elif kind == "reduce":
            same = ("--topic", "--layer", "--k", "--mode", "--direction")
            _require(fit_result is not None
                     and all(option(fit_argv, f) == option(cmd.argv, f) for f in same),
                     "reduce: no fit of the same model to check against")
            check_reduce(path, fit_result, option(cmd.argv, "--layer"))
        elif kind == "screen":
            check_screen(path, inp.topics)
        elif kind == "experiment":
            _require(torque_table is not None, "experiment: no torque output to check against")
            check_experiment(path, torque_table, inp)
