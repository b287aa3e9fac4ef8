"""Traced in-process replay of a workload's commands.

Each command runs again in this process through ``torquenet.cli.main``, the
entry point of ``python -m torquenet.cli``, with the same arguments plus
``--threads 1``. Before the first command the library functions the CLI
reaches (HOOKS) are wrapped in place: a function is replaced in every
torquenet module that binds it, a method on its class. A wrapped call runs
inside a span that records wall time (perf_counter), CPU time
(process_time) and peak RSS, keyed by village and network layer where its
arguments name them. A call made while a span of the same name is open adds
no span of its own. So the spans time the program's own code wherever it
runs: the kernels inside ``end_to_end_experiment`` and the Newton fit of
every bootstrap replicate count as well.

A command's total is the wall time of its ``cli.main`` span. The replay is
single-threaded even where the CLI runs with --threads 2, so that a
command's spans add up within its total. A hook whose target the program no
longer has is skipped and named in the run record; its metric then reads 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

# The canonical layer registry; per-layer metric names stay fixed even where
# a workload's scenario drops layers.
LAYERS = ("parent", "sibling", "partner", "patron", "personal_private",
          "free_time", "closest_friend", "borrow_money", "lend_money",
          "health_advice_give", "health_advice_get")

# per-layer metric -> unit; a metric named "<span>_s" sums that span's wall
# time, "<span>.<layer>_s" that span's wall time on one network layer
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "simulate.build_villages_s": "s",
    "simulate.experiment_s": "s",
    "io.write_dataset_s": "s",
    "io.load_dataset_s": "s",
    "io.render_s": "s",
    "io.output_bytes": "count",
    "graph.derived_graphs_s": "s",
    "torque.all_layers_s": "s",
    **{f"torque.layer.{l}_s": "s" for l in LAYERS},
    "torque.pair_evaluations": "count",
    "metrics.edge_betweenness_s": "s",
    "metrics.layer_stats_s": "s",
    "pathways.analyzer_init_s": "s",
    "pathways.depths_s": "s",
    "pathways.exposure_table_s": "s",
    **{f"pathways.layer.{l}_s": "s" for l in LAYERS},
    "pathways.records": "count",
    "contagion.build_frame_s": "s",
    "contagion.check_collinearity_s": "s",
    "contagion.newton_logit_s": "s",
    "contagion.newton_iterations": "count",
    "contagion.design_cells": "count",
    "contagion.bootstrap_s": "s",
    "contagion.bootstrap_reps": "count",
    "contagion.bootstrap_failed_reps": "count",
    "contagion.screen_s": "s",
}


class Tracer:
    """Nested spans with wall time, CPU time and peak RSS; plus counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.command: str | None = None
        # id(network) -> village, for the networks of the current command
        self.villages: dict[int, str] = {}
        self._stack: list[int] = []
        self._open: set[str] = set()

    @contextlib.contextmanager
    def span(self, name: str, village: str | None = None, layer: str | None = None):
        rec = {"name": name, "command": self.command, "village": village,
               "layer": layer, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        self._open.add(name)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            rec["wall_s"] = time.perf_counter() - wall0
            rec["cpu_s"] = time.process_time() - cpu0
            rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self._open.discard(name)
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def register(self, networks) -> None:
        self.villages.update({id(net): village for village, net in networks.items()})

    def village(self, net) -> str | None:
        return self.villages.get(id(net))

    def wrap(self, fn, hook: "Hook"):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook.span in self._open:
                result = fn(*args, **kwargs)
            else:
                village, layer = hook.key(self, args, kwargs) if hook.key else (None, None)
                with self.span(hook.span, village, layer):
                    result = fn(*args, **kwargs)
            if hook.after:
                hook.after(self, args, kwargs, result)
            return result
        return wrapper

    def command_totals(self) -> dict[str, float]:
        """Wall time of each command's top-level spans, summed."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["parent"] is None:
                out[s["command"]] = out.get(s["command"], 0.0) + s["wall_s"]
        return out

    def metrics(self) -> dict[str, float]:
        walls: dict[str, float] = {}
        for s in self.spans:
            keys = [f"{s['name']}_s"]
            if s["layer"] is not None:
                keys.append(f"{s['name']}.{s['layer']}_s")
            for k in keys:
                walls[k] = walls.get(k, 0.0) + s["wall_s"]
        # a layer's own exposure work: its layer-excluded depth matrix
        for l in LAYERS:
            walls[f"pathways.layer.{l}_s"] = walls.get(f"pathways.depths.{l}_s", 0.0)
        walls.update(self.counts)
        return {name: walls.get(name, 0) for name in PER_LAYER}


# -- hooks -------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    target: str  # "module:function" or "module:Class.method"
    span: str
    # (tracer, args, kwargs) -> (village, layer name)
    key: Callable | None = None
    # (tracer, args, kwargs, result) -> None; runs for every call
    after: Callable | None = None


def _net(tr, args, kwargs):
    """First argument (or self) is a MultiplexNetwork."""
    return tr.village(args[0]), None


def _net_layer(tr, args, kwargs):
    """(net, layer id, ...), for functions and MultiplexNetwork methods."""
    net = args[0]
    return tr.village(net), net.registry.name_of(args[1])


def _analyzer_init(tr, args, kwargs):
    return tr.village(args[1] if len(args) > 1 else kwargs["net"]), None


def _analyzer_depths(tr, args, kwargs):
    analyzer = args[0]
    layer = args[2] if len(args) > 2 else kwargs.get("excluded_layer")
    return (tr.village(analyzer.net),
            None if layer is None else analyzer.net.registry.name_of(layer))


def _reduction_layer(tr, args, kwargs):
    return None, args[1] if len(args) > 1 else kwargs["layer"]


def _count_bytes(tr, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tr.count("io.output_bytes", len(text.encode("utf-8")))


def _count_pairs(tr, args, kwargs, result):
    n = args[0].n
    tr.count("torque.pair_evaluations", n * (n - 1) // 2)


def _count_records(tr, args, kwargs, result):
    tr.count("pathways.records", sum(len(records) for _, records in result))


def _count_newton(tr, args, kwargs, result):
    tr.count("contagion.newton_iterations", result[3])
    tr.count("contagion.design_cells", args[0].size)


def _count_bootstrap(tr, args, kwargs, result):
    tr.count("contagion.bootstrap_reps", result.n_boot)
    tr.count("contagion.bootstrap_failed_reps", result.n_failed)


HOOKS = (
    Hook("torquenet.io:parse_scenario", "io.parse_scenario"),
    Hook("torquenet.io:load_dataset", "io.load_dataset",
         after=lambda tr, a, k, r: tr.register(r[0].networks)),
    Hook("torquenet.io:load_edges", "io.load_dataset",
         after=lambda tr, a, k, r: tr.register(r.networks)),
    Hook("torquenet.io:write_edges_csv", "io.write_dataset"),
    Hook("torquenet.io:write_attributes_csv", "io.write_dataset"),
    Hook("torquenet.cli:_emit", "io.render"),
    Hook("torquenet.io:exposure_rows", "io.render"),
    Hook("torquenet.io:render_csv", "io.render"),
    Hook("torquenet.io:render_json", "io.render"),
    Hook("torquenet.io:atomic_write_text", "io.render", after=_count_bytes),
    Hook("torquenet.simulate:build_villages", "simulate.build_villages",
         after=lambda tr, a, k, r: tr.register(r[0])),
    Hook("torquenet.simulate:end_to_end_experiment", "simulate.experiment"),
    Hook("torquenet.graph:MultiplexNetwork.composite", "graph.derived_graphs", _net),
    Hook("torquenet.graph:MultiplexNetwork.composite_minus_layer", "graph.derived_graphs",
         _net_layer),
    Hook("torquenet.torque:torque_all_layers", "torque.all_layers", _net),
    Hook("torquenet.torque:_layer_counts", "torque.layer", _net_layer, _count_pairs),
    Hook("torquenet.metrics:edge_betweenness", "metrics.edge_betweenness"),
    Hook("torquenet.metrics:layer_stats", "metrics.layer_stats", _net_layer),
    Hook("torquenet.pathways:PathwayAnalyzer.__init__", "pathways.analyzer_init",
         _analyzer_init),
    Hook("torquenet.pathways:PathwayAnalyzer.depths", "pathways.depths", _analyzer_depths),
    Hook("torquenet.pathways:exposure_table", "pathways.exposure_table", _net,
         _count_records),
    Hook("torquenet.pathways:total_exposure", "pathways.total_exposure", _net),
    Hook("torquenet.pathways:k_alter_counts", "pathways.k_alter_counts", _net),
    Hook("torquenet.contagion:build_frame", "contagion.build_frame"),
    Hook("torquenet.contagion:fit_frame", "contagion.fit_frame"),
    Hook("torquenet.contagion:check_collinearity", "contagion.check_collinearity"),
    Hook("torquenet.contagion:newton_logit", "contagion.newton_logit",
         after=_count_newton),
    Hook("torquenet.contagion:counterfactual_reduction", "contagion.bootstrap",
         _reduction_layer, _count_bootstrap),
    Hook("torquenet.contagion:contagion_screen", "contagion.screen"),
)


def install(tr: Tracer):
    """Wrap every hook's target in place; (undo list, targets not found)."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "torquenet" or name.startswith("torquenet."))]
    undo, missing = [], []
    for hook in HOOKS:
        module_name, _, path = hook.target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(hook.target)
            continue
        wrapper = tr.wrap(original, hook)
        for place in [owner] if classes else modules:
            for name, value in list(vars(place).items()):
                if value is original:
                    setattr(place, name, wrapper)
                    undo.append((place, name, original))
    return undo, missing


def uninstall(undo) -> None:
    for place, name, original in reversed(undo):
        setattr(place, name, original)


@dataclass
class ReplayResult:
    commands: dict[str, float]
    returncodes: dict[str, int]
    spans: list[dict]
    metrics: dict[str, dict]
    missing_hooks: list[str]


def import_seconds(module: str, env: dict) -> float:
    """Wall time of a fresh interpreter that imports module and exits, timed
    from outside: start-up and teardown are part of every CLI call."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
    return time.perf_counter() - start


def replay_workload(calls, env: dict) -> ReplayResult:
    """Run each (name, argv) of calls through torquenet.cli.main, traced.

    env is the environment the CLI commands get: its PYTHONPATH and BLAS
    settings apply to this process before numpy is first imported.
    """
    import_stats_s = statistics.median(import_seconds("scipy.stats", env) for _ in range(3))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in env:
            os.environ[var] = env[var]
    sys.path[:0] = [p for p in env["PYTHONPATH"].split(os.pathsep) if p not in sys.path]
    from torquenet import cli

    tr = Tracer()
    undo, missing = install(tr)
    codes = {}
    # one import sample before each command, so that the samples see the
    # machine at the same speed as the commands do
    imports = []
    try:
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            for name, argv in calls:
                imports.append(import_seconds("torquenet.cli", env))
                tr.command = name
                tr.villages = {}
                with contextlib.redirect_stdout(devnull), tr.span("cli.main"):
                    try:
                        codes[name] = cli.main(list(argv) + ["--threads", "1"])
                    except SystemExit as exc:  # argparse usage errors
                        codes[name] = exc.code if isinstance(exc.code, int) else 1
                    except Exception:  # what would end a CLI process with 1
                        traceback.print_exc()
                        codes[name] = 1
    finally:
        uninstall(undo)
    values = tr.metrics()
    values["cli.import_s"] = statistics.median(imports)
    values["cli.import_scipy_stats_s"] = import_stats_s
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return ReplayResult(commands=tr.command_totals(), returncodes=codes, spans=tr.spans,
                        metrics=metrics, missing_hooks=missing)
