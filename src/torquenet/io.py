"""CSV/JSON serialization and scenario configuration.

File contracts:

  edges CSV       header exactly: village,ego,alter,layer
  attributes CSV  header prefix exactly: village,node,household,sociability,
                  age,gender,education,income,self_health - followed by
                  treated_<topic>,k_w1_<topic>,k_w3_<topic> triples
  exposure CSV    village,node,layer,k,mode,direction,xi_L,xi_notL,N_k

Empty cells are missing values. All writers are atomic (write to a
temporary file in the target directory, then rename) and deterministic:
rows are sorted by village, then layer or node; fractions use fixed
6-decimal formatting; JSON payloads carry schema_version, sorted keys,
and floats rounded to 12 decimals.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, IngestError, UnknownLayerError
from .graph import MultiplexNetwork, build_network
from .layers import LayerRegistry
from .panel import COVARIATE_NAMES, VillagePanel
from .pathways import Direction, Mode
from .simulate import (SCENARIO_FORGET, ChainLayerSpec, DiffusionConfig,
                       ExperimentConfig, FriendLayerSpec, VillageGenConfig)

SCHEMA_VERSION = 1

EDGE_HEADER = ["village", "ego", "alter", "layer"]
ATTR_BASE_HEADER = ["village", "node", "household"] + list(COVARIATE_NAMES)
EXPOSURE_HEADER = ["village", "node", "layer", "k", "mode", "direction",
                   "xi_L", "xi_notL", "N_k"]


# -- loading ---------------------------------------------------------


@dataclass(frozen=True)
class IngestReport:
    rows_read: int
    duplicates_collapsed: int
    villages: tuple[str, ...]


@dataclass(frozen=True)
class EdgeData:
    """Per-village networks plus the external-id mapping used to build them."""

    networks: dict[str, MultiplexNetwork]
    node_ids: dict[str, tuple[str, ...]]
    registry: LayerRegistry
    report: IngestReport


def _non_utf8_line(path: str) -> int | None:
    """Line of the first byte of path that is not UTF-8, if any."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


def _read_csv_rows(path: str, expected_header: list[str] | None = None):
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if expected_header is not None and header != expected_header:
                raise IngestError(
                    f"{path}: bad header {','.join(header)!r}; "
                    f"expected {','.join(expected_header)!r}")
            rows = [(lineno, row) for lineno, row in enumerate(reader, start=2)]
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected a header row") from None
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text ({exc.reason})",
                              line=_non_utf8_line(path)) from None
        except csv.Error as exc:
            raise IngestError(f"{path}: {exc}", line=reader.line_num) from None
    return header, rows


def load_edges(path: str, registry: LayerRegistry | None = None,
               node_universe: Mapping[str, Sequence[str]] | None = None) -> EdgeData:
    """Read a long-format nomination file into per-village networks.

    Without an explicit registry, layer names are taken from the file
    (sorted). node_universe optionally fixes each village's node set (so
    attribute-only isolates get network slots); otherwise nodes are the
    ids appearing in the file, sorted.
    """
    _, rows = _read_csv_rows(path, EDGE_HEADER)
    raw: dict[str, list[tuple[int, str, str, str]]] = {}
    layer_lines: dict[str, int] = {}  # layer name -> first line naming it
    for lineno, row in rows:
        if len(row) != 4:
            raise IngestError(f"expected 4 fields, got {len(row)}", line=lineno)
        village, ego, alter, layer = row
        if not village or not ego or not alter or not layer:
            raise IngestError("empty field", line=lineno)
        if ego == alter:
            raise IngestError(f"self-nomination by {ego!r}", line=lineno)
        raw.setdefault(village, []).append((lineno, ego, alter, layer))
        layer_lines.setdefault(layer, lineno)
    if registry is None:
        registry = LayerRegistry(tuple(sorted(layer_lines)))
    else:
        unknown = set(layer_lines) - set(registry.names)
        if unknown:
            raise UnknownLayerError(
                f"unknown layers in {path}: {', '.join(sorted(unknown))}",
                line=min(layer_lines[name] for name in unknown))
    layer_ids = {name: registry.id_of(name) for name in layer_lines}
    if node_universe is not None:
        missing = set(raw) - set(node_universe)
        if missing:
            raise DataError(
                f"edge villages missing from attributes: {sorted(missing)}")
    networks: dict[str, MultiplexNetwork] = {}
    node_ids: dict[str, tuple[str, ...]] = {}
    villages = sorted(raw) if node_universe is None else sorted(node_universe)
    duplicates = 0
    for village in villages:
        vrows = raw.get(village, [])
        if node_universe is None:
            names = sorted({r[1] for r in vrows} | {r[2] for r in vrows})
        else:
            names = list(node_universe[village])
        index = {name: i for i, name in enumerate(names)}
        try:
            ego = np.fromiter((index[r[1]] for r in vrows), np.int64, len(vrows))
            alter = np.fromiter((index[r[2]] for r in vrows), np.int64, len(vrows))
        except KeyError:
            lineno, missing_node = next((r[0], name) for r in vrows
                                        for name in r[1:3] if name not in index)
            raise DataError(
                f"line {lineno}: node {missing_node!r} has no attribute row "
                f"in village {village!r}") from None
        layer = np.fromiter((layer_ids[r[3]] for r in vrows), np.int64, len(vrows))
        net = build_network(ego, alter, layer, len(names), registry)
        duplicates += len(vrows) - net.nomination_count
        networks[village] = net
        node_ids[village] = tuple(names)
    return EdgeData(
        networks=networks, node_ids=node_ids, registry=registry,
        report=IngestReport(rows_read=len(rows), duplicates_collapsed=duplicates,
                            villages=tuple(villages)),
    )


def _parse_cell(raw: str, column: str, lineno: int) -> float:
    if raw == "":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise IngestError(f"bad numeric value {raw!r} in {column}", line=lineno) from None


def load_attributes(path: str) -> dict[str, VillagePanel]:
    """Read per-node attributes; topics are inferred from the header."""
    header, rows = _read_csv_rows(path)
    if header[:len(ATTR_BASE_HEADER)] != ATTR_BASE_HEADER:
        raise IngestError(
            f"{path}: header must start with {','.join(ATTR_BASE_HEADER)!r}")
    extra = header[len(ATTR_BASE_HEADER):]
    topics: dict[str, dict[str, int]] = {}
    for pos, col in enumerate(extra, start=len(ATTR_BASE_HEADER)):
        for prefix in ("treated_", "k_w1_", "k_w3_"):
            if col.startswith(prefix):
                topics.setdefault(col[len(prefix):], {})[prefix[:-1]] = pos
                break
        else:
            raise DataError(f"{path}: unknown column {col!r}")
    for topic, cols in topics.items():
        lacking = {"treated", "k_w1", "k_w3"} - set(cols)
        if lacking:
            raise DataError(
                f"{path}: topic {topic!r} missing columns: {sorted(lacking)}")
    by_village: dict[str, list[tuple[int, list[str]]]] = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise IngestError(f"expected {len(header)} fields, got {len(row)}",
                              line=lineno)
        if not row[0] or not row[1]:
            raise IngestError("empty village or node id", line=lineno)
        by_village.setdefault(row[0], []).append((lineno, row))
    panels: dict[str, VillagePanel] = {}
    topic_names = tuple(sorted(topics))
    for village in sorted(by_village):
        vrows = sorted(by_village[village], key=lambda r: r[1][1])
        seen = set()
        for lineno, row in vrows:
            if row[1] in seen:
                raise IngestError(f"duplicate node id {row[1]!r}", line=lineno)
            seen.add(row[1])
        n = len(vrows)
        cols: dict[str, np.ndarray] = {
            name: np.full(n, np.nan) for name in ATTR_BASE_HEADER[2:]}
        tcols = {t: {f: np.full(n, np.nan) for f in ("treated", "k_w1", "k_w3")}
                 for t in topic_names}
        nodes = []
        for i, (lineno, row) in enumerate(vrows):
            nodes.append(row[1])
            for j, name in enumerate(ATTR_BASE_HEADER[2:], start=2):
                cols[name][i] = _parse_cell(row[j], name, lineno)
            if not math.isfinite(cols["household"][i]):
                raise IngestError("missing household id", line=lineno)
            inc = cols["income"][i]
            if math.isfinite(inc) and inc not in (1.0, 2.0, 3.0, 4.0):
                raise DataError(f"line {lineno}: income {inc:g} outside 1..4")
            for topic in topic_names:
                for fname, pos in topics[topic].items():
                    tcols[topic][fname][i] = _parse_cell(row[pos], header[pos], lineno)
                if not math.isfinite(tcols[topic]["treated"][i]):
                    raise IngestError(f"missing treated flag for topic {topic!r}",
                                      line=lineno)
        panels[village] = VillagePanel(
            village=village,
            nodes=tuple(nodes),
            household=cols["household"].astype(np.int64),
            sociability=cols["sociability"],
            age=cols["age"],
            gender=cols["gender"],
            education=cols["education"],
            income=cols["income"],
            self_health=cols["self_health"],
            topics=topic_names,
            treated={t: tcols[t]["treated"].astype(np.int8) for t in topic_names},
            k_w1={t: tcols[t]["k_w1"] for t in topic_names},
            k_w3={t: tcols[t]["k_w3"] for t in topic_names},
        )
    return panels


def load_dataset(edges_path: str, attrs_path: str,
                 registry: LayerRegistry | None = None,
                 ) -> tuple[EdgeData, dict[str, VillagePanel]]:
    """Load edges and attributes with a shared node universe per village."""
    panels = load_attributes(attrs_path)
    universe = {v: p.nodes for v, p in panels.items()}
    edges = load_edges(edges_path, registry=registry, node_universe=universe)
    return edges, panels


# -- formatting and atomic writing -----------------------------------


def fmt_fraction(x: float) -> str:
    """Fixed 6-decimal formatting for fractions and other reals."""
    if x != x:
        return ""
    return f"{x:.6f}"


def fmt_value(x) -> str:
    """Minimal lossless cell formatting: ints exact, floats via repr."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return ""
    if xf == int(xf) and abs(xf) < 1e15:
        return str(int(xf))
    return repr(xf)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    import io as _io

    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        return round(obj, 12)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def render_json(payload: dict) -> str:
    body = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(_round_floats(body), sort_keys=True, indent=2) + "\n"


# -- dataset writers -------------------------------------------------


def write_edges_csv(path: str, networks: Mapping[str, MultiplexNetwork],
                    node_ids: Mapping[str, Sequence[str]]) -> None:
    rows = []
    for village in sorted(networks):
        net = networks[village]
        names = node_ids[village]
        layer_names = net.registry.names
        rows += ([village, names[e], names[a], layer_names[lay]] for e, a, lay
                 in zip(net.ego.tolist(), net.alter.tolist(), net.layer.tolist()))
    atomic_write_text(path, render_csv(EDGE_HEADER, rows))


def write_attributes_csv(path: str, panels: Mapping[str, VillagePanel]) -> None:
    topics: tuple[str, ...] = ()
    for panel in panels.values():
        for t in panel.topics:
            if t not in topics:
                topics += (t,)
    topics = tuple(sorted(topics))
    header = ATTR_BASE_HEADER + [
        f"{prefix}_{t}" for t in topics for prefix in ("treated", "k_w1", "k_w3")]
    rows = []
    for village in sorted(panels):
        panel = panels[village]
        for i, node in enumerate(panel.nodes):
            row = [village, node, fmt_value(panel.household[i])]
            row += [fmt_value(getattr(panel, name)[i]) for name in COVARIATE_NAMES]
            for t in topics:
                if t in panel.topics:
                    row += [
                        fmt_value(panel.treated[t][i]),
                        fmt_value(panel.k_w1[t][i]),
                        fmt_value(panel.k_w3[t][i]),
                    ]
                else:
                    row += ["", "", ""]
            rows.append(row)
    atomic_write_text(path, render_csv(header, rows))


# -- scenario configuration ------------------------------------------


def _cfg_floats(raw: str, n: int, where: str) -> list[float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != n:
        raise ConfigError(f"{where}: expected {n} comma-separated values")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{where}: bad number in {raw!r}") from None


def parse_scenario(path: str) -> ExperimentConfig:
    """Read an INI scenario file into an ExperimentConfig.

    Sections: [villages], [layers], [intervention], [topics],
    [diffusion], [diffusion:<topic>], [estimation]. Unknown keys fail.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"bad scenario file {path}: {exc}") from exc

    def section(name: str) -> dict[str, str]:
        return dict(cp[name]) if cp.has_section(name) else {}

    def pop_typed(sec: dict, key: str, cast, default):
        if key not in sec:
            return default
        raw = sec.pop(key)
        try:
            if cast is bool:
                low = raw.strip().lower()
                if low in ("1", "true", "yes", "on"):
                    return True
                if low in ("0", "false", "no", "off"):
                    return False
                raise ValueError(raw)
            return cast(raw)
        except ValueError:
            raise ConfigError(f"bad value {raw!r} for {key}") from None

    known_sections = {"villages", "layers", "intervention", "topics",
                      "diffusion", "estimation"}
    for name in cp.sections():
        if name not in known_sections and not name.startswith("diffusion:"):
            raise ConfigError(f"unknown scenario section [{name}]")

    vil = section("villages")
    n_villages = pop_typed(vil, "count", int, 30)
    size_min = pop_typed(vil, "size_min", int, 50)
    size_max = pop_typed(vil, "size_max", int, 90)
    household_mean = pop_typed(vil, "household_mean", float, 2.5)
    household_sd = pop_typed(vil, "household_sd", float, 1.4)
    if vil:
        raise ConfigError(f"unknown keys in [villages]: {sorted(vil)}")

    lay = section("layers")
    friend = dict(VillageGenConfig().friend_layers)
    chain = dict(VillageGenConfig().chain_layers)
    for key in list(lay):
        if key.startswith("friend_"):
            name = key[len("friend_"):]
            deg, rew = _cfg_floats(lay.pop(key), 2, f"[layers] {key}")
            friend[name] = FriendLayerSpec(int(deg), rew)
        elif key.startswith("chain_"):
            name = key[len("chain_"):]
            part, noms = _cfg_floats(lay.pop(key), 2, f"[layers] {key}")
            chain[name] = ChainLayerSpec(part, int(noms))
        elif key == "drop":
            for name in lay.pop(key).split(","):
                name = name.strip()
                friend.pop(name, None)
                chain.pop(name, None)
    if lay:
        raise ConfigError(f"unknown keys in [layers]: {sorted(lay)}")
    gen = VillageGenConfig(household_mean=household_mean, household_sd=household_sd,
                           friend_layers=friend, chain_layers=chain)

    inter = section("intervention")
    fraction = pop_typed(inter, "fraction", float, 0.2)
    strategy = pop_typed(inter, "strategy", str, "random")
    if inter:
        raise ConfigError(f"unknown keys in [intervention]: {sorted(inter)}")

    top = section("topics")
    names_raw = pop_typed(top, "names", str, "topic")
    topics = tuple(t.strip() for t in names_raw.split(",") if t.strip())
    if top:
        raise ConfigError(f"unknown keys in [topics]: {sorted(top)}")

    ddefaults = section("diffusion")
    d_rounds = pop_typed(ddefaults, "rounds", int, 6)
    d_base = pop_typed(ddefaults, "baseline_rate", float, 0.2)
    d_uptake = pop_typed(ddefaults, "uptake", float, 0.95)
    d_forget = pop_typed(ddefaults, "forget", float, SCENARIO_FORGET)
    if ddefaults:
        raise ConfigError(f"unknown keys in [diffusion]: {sorted(ddefaults)}")
    diffusion = {}
    for topic in topics:
        sec = section(f"diffusion:{topic}")
        rounds = pop_typed(sec, "rounds", int, d_rounds)
        base = pop_typed(sec, "baseline_rate", float, d_base)
        uptake = pop_typed(sec, "uptake", float, d_uptake)
        forget = pop_typed(sec, "forget", float, d_forget)
        probs = {}
        for key in list(sec):
            probs[key] = pop_typed(sec, key, float, 0.0)
        diffusion[topic] = DiffusionConfig(
            layer_probs=probs, rounds=rounds, baseline_rate=base,
            uptake=uptake, forget=forget)
    for name in cp.sections():
        if name.startswith("diffusion:") and name[len("diffusion:"):] not in topics:
            raise ConfigError(f"[{name}] has no matching topic")

    est = section("estimation")
    k = pop_typed(est, "k", int, 2)
    try:
        mode = Mode(pop_typed(est, "mode", str, "secondary"))
        direction = Direction(pop_typed(est, "direction", str, "directed"))
    except ValueError as exc:
        raise ConfigError(f"bad estimation setting: {exc}") from None
    boot = pop_typed(est, "bootstrap", int, 1000)
    level = pop_typed(est, "level", float, 0.95)
    if est:
        raise ConfigError(f"unknown keys in [estimation]: {sorted(est)}")

    return ExperimentConfig(
        n_villages=n_villages, village_size=(size_min, size_max), gen=gen,
        topics=topics, diffusion=diffusion, fraction=fraction, strategy=strategy,
        k=k, mode=mode, direction=direction, bootstrap_reps=boot, ci_level=level,
    )
