"""Command-line surface.

Every subcommand writes its table to <out-dir>/<name>.<format> atomically
and prints the same bytes to stdout. Ordering is fully determined by the
input (villages, then layer registry order, then node id), so seeded runs
are byte-identical regardless of thread count.

Exit status: 0 success, 1 data/runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter

import numpy as np

from . import io as tio
from .contagion import build_frame, contagion_screen, counterfactual_reduction, fit_frame
from .errors import DataError, TorquenetError
from .layers import LayerRegistry
from .metrics import edge_betweenness, layer_stats
from .pathways import (EXPOSURE_FIELDS, Direction, Mode, PathwayAnalyzer,
                       PathwayConfig, exposure_table, k_alter_counts,
                       total_exposure)
from .simulate import ExperimentConfig, build_villages, end_to_end_experiment
from .torque import torque_all_layers

THREADS_ENV = "TORQUENET_THREADS"


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--edges", help="nomination CSV (village,ego,alter,layer)")
    common.add_argument("--attrs", help="attribute CSV with per-topic columns")
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument("--seed", type=int, default=0, help="root random seed")
    common.add_argument("--threads", type=int, default=None,
                        help=f"worker threads (default ${THREADS_ENV} or 1)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    common.add_argument("--layers", default=None,
                        help="comma-separated layer registry override")

    parser = argparse.ArgumentParser(
        prog="torquenet",
        description="Multiplex nomination-network analytics: layer torque, "
                    "critical-pathway exposure, and counterfactual contagion "
                    "estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", parents=[common],
                       help="per-village, per-layer structural statistics")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("torque", parents=[common],
                       help="per-village, per-layer network torque")
    p.set_defaults(func=cmd_torque)

    p = sub.add_parser("correlates", parents=[common],
                       help="torque against prevalence, monoplexity, betweenness")
    p.set_defaults(func=cmd_correlates)

    p = sub.add_parser("exposure", parents=[common],
                       help="per-node critical-pathway exposure counts")
    p.add_argument("--topic", required=True)
    p.add_argument("--k", default="2", help="comma-separated hop counts from 2,3,4")
    p.add_argument("--mode", choices=("primary", "secondary"), default="secondary")
    p.add_argument("--direction", choices=("directed", "reversed"), default="directed")
    p.add_argument("--n-follows-mode", action="store_true",
                   help="apply the validity filter to the k-degree alter count too")
    p.set_defaults(func=cmd_exposure)

    p = sub.add_parser("screen", parents=[common],
                       help="per-topic significance of pooled exposure at each k")
    p.add_argument("--topics", default=None, help="comma list; default: all in attrs")
    p.add_argument("--k", default="2,3,4")
    p.add_argument("--direction", choices=("directed", "reversed"), default="directed")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("fit", parents=[common],
                       help="fit the adoption model for one layer and k")
    p.add_argument("--topic", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", choices=("primary", "secondary"), default="secondary")
    p.add_argument("--direction", choices=("directed", "reversed"), default="directed")
    p.add_argument("--dump-design", default=None,
                   help="also write the regression design matrix to this CSV path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reduce", parents=[common],
                       help="counterfactual reduction per layer with bootstrap CI")
    p.add_argument("--topic", required=True)
    p.add_argument("--layer", default=None, help="one layer; default: all")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", choices=("primary", "secondary"), default="secondary")
    p.add_argument("--direction", choices=("directed", "reversed"), default="directed")
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic dataset from a scenario file")
    p.add_argument("--config", default=None, help="INI scenario file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", parents=[common],
                       help="full synthetic pipeline: generate, diffuse, estimate")
    p.add_argument("--config", default=None, help="INI scenario file")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is None:
        args.threads = _default_threads()
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        return args.func(args)
    except TorquenetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# -- shared helpers --------------------------------------------------


def _registry(args) -> LayerRegistry | None:
    if args.layers is None:
        return None
    names = tuple(x.strip() for x in args.layers.split(",") if x.strip())
    return LayerRegistry(names)


def _need(args, *fields) -> None:
    for f in fields:
        if getattr(args, f) is None:
            raise DataError(f"--{f} is required for this command")


def _write(args, filename: str, text: str) -> None:
    tio.atomic_write_text(os.path.join(args.out_dir, filename), text)
    sys.stdout.write(text)


def _csv_table(header, rows, fractions=(), flags=()) -> str:
    """Rows are dicts keyed by the header names. Fraction cells get
    fmt_fraction and flag cells 0/1; every other cell (int or str) goes to
    csv.writer as it is."""
    convert = {**dict.fromkeys(fractions, tio.fmt_fraction),
               **dict.fromkeys(flags, lambda flag: str(int(flag)))}
    cells = map(itemgetter(*header), rows)
    if convert:
        fns = [convert.get(name) for name in header]
        cells = ([v if fn is None else fn(v) for fn, v in zip(fns, row)]
                 for row in cells)
    return tio.render_csv(header, cells)


def _emit(args, name: str, header, rows, *, fractions=(), flags=(),
          rows_key: str = "rows", **extras) -> int:
    """Write one command's table, rows being dicts keyed by the header
    names: as CSV, or as JSON {"command": name, **extras, rows_key: rows}."""
    if args.format == "csv":
        text = _csv_table(header, rows, fractions, flags)
    else:
        text = tio.render_json({"command": name, **extras, rows_key: rows})
    _write(args, f"{name}.{args.format}", text)
    return 0


def _map_villages(fn, keys, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, keys))
    return [fn(key) for key in keys]


def _parse_ks(raw: str) -> list[int]:
    try:
        ks = [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise DataError(f"bad --k value {raw!r}") from None
    if not ks or any(k not in (2, 3, 4) for k in ks):
        raise DataError("--k values must come from 2,3,4")
    return ks


# -- structural commands ---------------------------------------------


def cmd_metrics(args) -> int:
    _need(args, "edges")
    data = tio.load_edges(args.edges, registry=_registry(args))

    def one(village):
        net = data.networks[village]
        scores = edge_betweenness(net.composite())
        return [layer_stats(net, l, scores) for l in range(len(net.registry))]

    keys = sorted(data.networks)
    fractions = ("prevalence", "clustering", "reachability", "monoplexity",
                 "mean_edge_betweenness")
    header = ["village", "layer", *fractions, "dyads", "nominations"]
    rows = [{"village": village, "layer": st.layer,
             "prevalence": st.prevalence, "clustering": st.clustering,
             "reachability": st.reachability, "monoplexity": st.monoplexity,
             "mean_edge_betweenness": st.mean_edge_betweenness,
             "dyads": st.dyads, "nominations": st.nominations}
            for village, stats in zip(keys, _map_villages(one, keys, args.threads))
            for st in stats]
    return _emit(args, "metrics", header, rows, fractions=fractions)


def cmd_torque(args) -> int:
    _need(args, "edges")
    data = tio.load_edges(args.edges, registry=_registry(args))
    keys = sorted(data.networks)
    reports = _map_villages(lambda v: torque_all_layers(data.networks[v]),
                            keys, args.threads)
    header = ["village", "layer", "torque", "critical_pairs", "connected_pairs"]
    rows = [{"village": village, "layer": layer, "torque": t,
             "critical_pairs": c, "connected_pairs": rep.connected_pairs}
            for village, rep in zip(keys, reports)
            for layer, t, c in zip(rep.layers, rep.torque, rep.critical_pairs)]
    return _emit(args, "torque", header, rows, fractions=("torque",))


def cmd_correlates(args) -> int:
    _need(args, "edges")
    data = tio.load_edges(args.edges, registry=_registry(args))
    keys = sorted(data.networks)

    def one(village):
        net = data.networks[village]
        scores = edge_betweenness(net.composite())
        rep = torque_all_layers(net)
        return [layer_stats(net, l, scores) for l in range(len(net.registry))], rep

    fractions = ("prevalence", "monoplexity", "mean_edge_betweenness", "torque")
    header = ["village", "layer", *fractions]
    rows = [{"village": village, "layer": st.layer,
             "prevalence": st.prevalence, "monoplexity": st.monoplexity,
             "mean_edge_betweenness": st.mean_edge_betweenness, "torque": t}
            for village, (stats, rep) in zip(keys, _map_villages(one, keys, args.threads))
            for st, t in zip(stats, rep.torque)]
    return _emit(args, "correlates", header, rows, fractions=fractions)


# -- exposure and estimation commands --------------------------------


def cmd_exposure(args) -> int:
    _need(args, "edges", "attrs")
    data, panels = tio.load_dataset(args.edges, args.attrs, registry=_registry(args))
    ks = _parse_ks(args.k)
    mode = Mode(args.mode)
    direction = Direction(args.direction)
    keys = sorted(data.networks)
    registry = data.registry
    cfgs = [PathwayConfig(layer=l, k=k, mode=mode, direction=direction)
            for l in range(len(registry)) for k in ks]

    def one(village):
        return exposure_table(data.networks[village], panels[village], cfgs,
                              args.topic, n_follows_mode=args.n_follows_mode)

    rows = []
    for village, tables in zip(keys, _map_villages(one, keys, args.threads)):
        names = data.node_ids[village]
        for cfg, rec in tables:
            lname = registry.name_of(cfg.layer)
            rows.extend(
                {"village": village, "node": name, "layer": lname, "k": cfg.k,
                 "mode": mode.value, "direction": direction.value,
                 "xi_L": xi_l, "xi_notL": xi_r, "N_k": n_k}
                for name, xi_l, xi_r, n_k in zip(
                    names, rec.xi_layer.tolist(), rec.xi_rest.tolist(),
                    rec.k_alters.tolist()))
    return _emit(args, "exposure", tio.EXPOSURE_HEADER, rows, topic=args.topic)


def cmd_screen(args) -> int:
    _need(args, "edges", "attrs")
    data, panels = tio.load_dataset(args.edges, args.attrs, registry=_registry(args))
    ks = _parse_ks(args.k)
    direction = Direction(args.direction)
    if args.topics:
        topics = [t.strip() for t in args.topics.split(",") if t.strip()]
    else:
        topics = sorted({t for p in panels.values() for t in p.topics})
    if not topics:
        raise DataError("no topics found in the attribute file")
    keys = sorted(data.networks)

    def one(village):
        # SECONDARY depths ignore the validity mask, so one analyzer serves
        # every topic
        net = data.networks[village]
        analyzer = PathwayAnalyzer(net, kmax=max(ks))
        nk = {k: k_alter_counts(net, k, direction, analyzer=analyzer) for k in ks}
        expo = {(topic, k): total_exposure(net, panels[village], k, topic,
                                           direction, analyzer=analyzer)
                for topic in topics for k in ks}
        return expo, nk

    expo_by_tk = {(t, k): {} for t in topics for k in ks}
    n_by_k = {k: {} for k in ks}
    for village, (expo, nk) in zip(keys, _map_villages(one, keys, args.threads)):
        for tk, arr in expo.items():
            expo_by_tk[tk][village] = arr
        for k, arr in nk.items():
            n_by_k[k][village] = arr
    result = contagion_screen(panels, expo_by_tk, n_by_k, topics, ks, args.alpha)
    fractions = ("coefficient", "std_error", "z", "p_value")
    header = ["topic", "k", *fractions, "n_obs", "topic_passes"]
    rows = [{"topic": r.topic, "k": r.k, "coefficient": r.coefficient,
             "std_error": r.std_error, "z": r.z, "p_value": r.p_value,
             "n_obs": r.n_obs, "topic_passes": result.passes(r.topic)}
            for r in result.rows]
    return _emit(args, "screen", header, rows, fractions=fractions,
                 flags=("topic_passes",), alpha=args.alpha)


def _exposure_columns(args, data, panels, layer_ids) -> list[dict]:
    """build_frame exposure columns for each layer id, from one
    exposure_table call per village over all the layers."""
    cfgs = [PathwayConfig(layer=l, k=args.k, mode=Mode(args.mode),
                          direction=Direction(args.direction)) for l in layer_ids]
    keys = sorted(data.networks)
    tables = _map_villages(
        lambda v: exposure_table(data.networks[v], panels[v], cfgs, args.topic),
        keys, args.threads)
    return [{name: {v: t[i][1][name] for v, t in zip(keys, tables)}
             for name in EXPOSURE_FIELDS} for i in range(len(cfgs))]


def cmd_fit(args) -> int:
    _need(args, "edges", "attrs")
    data, panels = tio.load_dataset(args.edges, args.attrs, registry=_registry(args))
    cols, = _exposure_columns(args, data, panels, [data.registry.id_of(args.layer)])
    frame = build_frame(panels, args.topic, cols)
    model = fit_frame(frame, args.topic)
    if args.dump_design:
        design_rows = []
        for (village, node), y, xrow in zip(frame.rows, frame.y, frame.X):
            design_rows.append([village, panels[village].nodes[node],
                                tio.fmt_value(y)]
                               + [tio.fmt_value(v) for v in xrow])
        tio.atomic_write_text(args.dump_design, tio.render_csv(
            ["village", "node", "y"] + list(frame.columns), design_rows))
    fractions = ("coefficient", "std_error", "z", "p_value")
    terms = []
    for j, name in enumerate(frame.columns):
        z, p = model.wald(name)
        terms.append({"term": name, "coefficient": float(model.beta[j]),
                      "std_error": float(model.se[j]), "z": z, "p_value": p})
    return _emit(args, "fit", ["term", *fractions], terms, fractions=fractions,
                 rows_key="terms", topic=args.topic, layer=args.layer, k=args.k,
                 mode=args.mode, direction=args.direction, loglik=model.loglik,
                 null_loglik=model.null_loglik, iterations=model.iterations,
                 grad_max=model.grad_max, n_obs=frame.n, n_dropped=frame.n_dropped)


def cmd_reduce(args) -> int:
    _need(args, "edges", "attrs")
    data, panels = tio.load_dataset(args.edges, args.attrs, registry=_registry(args))
    if args.layer is not None:
        layer_ids = [data.registry.id_of(args.layer)]
    else:
        layer_ids = list(range(len(data.registry)))
    rows = []
    for layer_id, cols in zip(layer_ids,
                              _exposure_columns(args, data, panels, layer_ids)):
        lname = data.registry.name_of(layer_id)
        frame = build_frame(panels, args.topic, cols)
        model = fit_frame(frame, args.topic)
        est = counterfactual_reduction(model, lname, args.k, n_boot=args.boot,
                                       level=args.level, seed=args.seed,
                                       threads=args.threads)
        rows.append({"topic": args.topic, "layer": lname, "k": args.k,
                     "reduction": est.reduction, "ci_low": est.ci_low,
                     "ci_high": est.ci_high, "level": est.level,
                     "n_boot": est.n_boot, "n_failed": est.n_failed})
    fractions = ("reduction", "ci_low", "ci_high", "level")
    header = ["topic", "layer", "k", *fractions, "n_boot", "n_failed"]
    return _emit(args, "reduce", header, rows, fractions=fractions)


# -- simulator commands ----------------------------------------------


def _scenario(args) -> ExperimentConfig:
    if args.config:
        return tio.parse_scenario(args.config)
    return ExperimentConfig()


def cmd_simulate(args) -> int:
    config = _scenario(args)
    nets, panels = build_villages(config, args.seed, args.threads)
    node_ids = {v: panels[v].nodes for v in panels}
    tio.write_edges_csv(os.path.join(args.out_dir, "edges.csv"), nets, node_ids)
    tio.write_attributes_csv(os.path.join(args.out_dir, "attributes.csv"), panels)
    header = ["village", "n", "households", "topic", "treated", "knowledgeable_w3"]
    rows = [{"village": village, "n": panel.n,
             "households": len(np.unique(panel.household)), "topic": topic,
             "treated": int(panel.intervened(topic).sum()),
             "knowledgeable_w3": int(np.nansum(panel.k_w3[topic]))}
            for village, panel in sorted(panels.items())
            for topic in panel.topics]
    return _emit(args, "simulate", header, rows, seed=args.seed)


def cmd_experiment(args) -> int:
    config = _scenario(args)
    result = end_to_end_experiment(config, seed=args.seed, threads=args.threads)
    fractions = ("mean_torque", "reduction", "ci_low", "ci_high")
    header = ["topic", "layer", "mean_torque", "transmitting", "reduction",
              "ci_low", "ci_high", "n_failed"]
    rows = [{"topic": o.topic, "layer": o.layer, "mean_torque": o.mean_torque,
             "transmitting": o.transmitting, "reduction": o.reduction,
             "ci_low": o.ci_low, "ci_high": o.ci_high, "n_failed": o.n_failed}
            for o in result.outcomes]
    slopes = [{"topic": t, "slope": s, "p_value": p}
              for t, (s, p) in sorted(result.slopes.items())]
    code = _emit(args, "experiment", header, rows, fractions=fractions,
                 flags=("transmitting",), seed=args.seed,
                 n_villages=result.n_villages, slopes=slopes)
    if args.format == "csv":
        _write(args, "experiment_slopes.csv", _csv_table(
            ["topic", "slope", "p_value"], slopes, fractions=("slope", "p_value")))
    return code


if __name__ == "__main__":
    sys.exit(main())
