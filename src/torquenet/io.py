"""CSV/JSON serialization and scenario configuration.

File contracts:

  edges CSV       header exactly: village,ego,alter,layer
  attributes CSV  header prefix exactly: village,node,household,sociability,
                  age,gender,education,income,self_health - followed by
                  treated_<topic>,k_w1_<topic>,k_w3_<topic> triples
  exposure CSV    village,node,layer,k,mode,direction,xi_L,xi_notL,N_k

Empty cells are missing values; numeric text that float() rejects or
that is not finite ("nan", "inf", "1e400") is an IngestError. Ids, village
and layer names are exact strings. The loaders read a file column by
column: each column is dictionary-encoded (distinct cells plus an int64
code per record), every check runs on the code arrays, and the first
offending record decides the error, as a row-by-row reading would.

All writers are atomic (write to a temporary file in the target
directory, then rename) and deterministic: rows are sorted by village,
then layer or node; fractions use fixed 6-decimal formatting, other
numbers fmt_value's minimal lossless text (fmt_column formats a whole
column at once); JSON payloads carry schema_version, sorted keys, and
floats rounded to 12 decimals.
"""

from __future__ import annotations

import configparser
import csv
import itertools
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


class _CodeTable(dict):
    """Distinct cell -> code; a new cell gets the next code on lookup."""

    def __missing__(self, cell: str) -> int:
        self[cell] = code = len(self)
        return code


# records decoded per step: few enough that a step's row lists are freed
# before they fill the cyclic collector's youngest generation (700 objects)
_CHUNK = 256


def _read_columns(path: str, expected_header: list[str] | None = None):
    """Read a CSV file into (header, columns, ragged).

    Each column is dictionary-encoded as (codes, table): table maps each
    distinct cell to its code, in order of first appearance, and codes (an
    int64 array) holds the code of every record's cell. So a repeated id
    is one string, and no object per record survives the read. The
    columns cover the records before the first one whose field count
    differs from the header's. ragged is the error that record raises, or
    None. It is returned, not raised, so that the caller can check the
    records before it first: the earliest offending record decides the
    error. Records are numbered as lines from 2 (the header is line 1).
    """
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
            width = len(header)
            codes: list[list[int]] = [[] for _ in header]
            tables = [_CodeTable() for _ in header]
            ragged = None
            lineno = 2  # of the first record of the chunk
            while chunk := list(itertools.islice(reader, _CHUNK)):
                if any(len(row) != width for row in chunk):
                    k = next(k for k, row in enumerate(chunk) if len(row) != width)
                    ragged = IngestError(f"expected {width} fields, got {len(chunk[k])}",
                                         line=lineno + k)
                    del chunk[k:]
                for col, table, cells in zip(codes, tables, zip(*chunk)):
                    col.extend(map(table.__getitem__, cells))
                if ragged is not None:
                    for _ in reader:  # a read error further on comes first
                        pass
                    break
                lineno += len(chunk)
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected a header row") from None
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text ({exc.reason})",
                              line=_non_utf8_line(path)) from None
        except csv.Error as exc:
            raise IngestError(f"{path}: {exc}", line=reader.line_num) from None
    columns = [(np.array(col, dtype=np.int64), table)
               for col, table in zip(codes, tables)]
    return header, columns, ragged


def _empty_cells(columns) -> np.ndarray:
    """Per record: is any of these dictionary-encoded cells empty?"""
    empty = np.zeros(len(columns[0][0]), dtype=bool)
    for codes, table in columns:
        if "" in table:
            empty |= codes == table[""]
    return empty


def _sort_rank(names: list[str]) -> np.ndarray:
    """Position of each of these distinct strings in sorted() order."""
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


def load_edges(path: str, registry: LayerRegistry | None = None,
               node_universe: Mapping[str, Sequence[str]] | None = None) -> EdgeData:
    """Read a long-format nomination file into per-village networks.

    Without an explicit registry, layer names are taken from the file
    (sorted). node_universe optionally fixes each village's node set (so
    attribute-only isolates get network slots); otherwise nodes are the
    ids appearing in the file, sorted.
    """
    _, columns, ragged = _read_columns(path, EDGE_HEADER)
    (village, villages_seen), (ego, ids), (alter, alter_ids), (layer, layers_seen) = columns
    n_rows = len(village)
    # ego and alter ids share one code space; the strings are exact keys,
    # so ids that differ only in trailing NULs stay apart
    alter = np.array([ids.setdefault(name, len(ids)) for name in alter_ids],
                     dtype=np.int64)[alter]
    id_names = list(ids)
    empty = _empty_cells(columns)
    bad = empty | (ego == alter)
    if bad.any():
        row = int(np.argmax(bad))
        if empty[row]:
            raise IngestError("empty field", line=row + 2)
        raise IngestError(f"self-nomination by {id_names[ego[row]]!r}", line=row + 2)
    if ragged is not None:
        raise ragged
    layer_names = list(layers_seen)  # in order of first appearance
    if registry is None:
        registry = LayerRegistry(tuple(sorted(layer_names)))
    else:
        unknown = [name for name in layer_names if name not in registry]
        if unknown:
            first_row = int(np.argmax(layer == layers_seen[unknown[0]]))
            raise UnknownLayerError(
                f"unknown layers in {path}: {', '.join(sorted(unknown))}",
                line=first_row + 2)
    layer = np.array([registry.id_of(name) for name in layer_names],
                     dtype=np.int64)[layer]
    if node_universe is not None:
        missing = set(villages_seen) - set(node_universe)
        if missing:
            raise DataError(
                f"edge villages missing from attributes: {sorted(missing)}")
    # the rows of village code c are order[starts[c]:starts[c + 1]], in file order
    order = np.argsort(village, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(
        village, minlength=len(villages_seen)))))
    local = np.empty(len(ids), dtype=np.int64)  # id code -> node index
    networks: dict[str, MultiplexNetwork] = {}
    node_ids: dict[str, tuple[str, ...]] = {}
    villages = sorted(villages_seen) if node_universe is None else sorted(node_universe)
    duplicates = 0
    for name in villages:
        code = villages_seen.get(name)
        rows = order[starts[code]:starts[code + 1]] if code is not None else order[:0]
        vego, valter = ego[rows], alter[rows]
        present = np.unique(np.concatenate((vego, valter))).tolist()
        if node_universe is None:
            present.sort(key=id_names.__getitem__)
            names = [id_names[c] for c in present]
            local[present] = np.arange(len(present))
        else:
            names = list(node_universe[name])
            index = {node: i for i, node in enumerate(names)}
            local[present] = [index.get(id_names[c], -1) for c in present]
        vego, valter = local[vego], local[valter]
        unmatched = (vego < 0) | (valter < 0)
        if unmatched.any():
            i = int(np.argmax(unmatched))
            node = ego[rows[i]] if vego[i] < 0 else alter[rows[i]]
            raise DataError(
                f"line {rows[i] + 2}: node {id_names[node]!r} has no attribute row "
                f"in village {name!r}")
        net = build_network(vego, valter, layer[rows], len(names), registry)
        duplicates += len(rows) - net.nomination_count
        networks[name] = net
        node_ids[name] = tuple(names)
    return EdgeData(
        networks=networks, node_ids=node_ids, registry=registry,
        report=IngestReport(rows_read=n_rows, duplicates_collapsed=duplicates,
                            villages=tuple(villages)),
    )


def _parse_cell(raw: str, column: str, lineno: int) -> float:
    """float(raw), NaN for an empty cell; any other text that does not
    parse to a finite number is an IngestError."""
    if raw == "":
        return math.nan
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise IngestError(f"bad numeric value {raw!r} in {column}", line=lineno)
    return value


def _parse_column(codes: np.ndarray, table: dict[str, int]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(values, bad) of a dictionary-encoded column: _parse_cell of each
    cell, with NaN and a True in bad where it raises. Each distinct cell
    is parsed once."""
    values = np.empty(len(table))
    bad = np.zeros(len(table), dtype=bool)
    for i, raw in enumerate(table):
        try:
            values[i] = _parse_cell(raw, "", 0)
        except IngestError:
            values[i], bad[i] = math.nan, True
    return values[codes], bad[codes]


def _check_attribute_row(header: list[str], cells: list[str],
                         topics: dict[str, dict[str, int]], lineno: int) -> None:
    """Raise the error of the first check that one attribute row fails."""
    values = {name: _parse_cell(cells[pos], name, lineno)
              for pos, name in enumerate(ATTR_BASE_HEADER[2:], start=2)}
    if math.isnan(values["household"]):
        raise IngestError("missing household id", line=lineno)
    inc = values["income"]
    if not math.isnan(inc) and inc not in (1.0, 2.0, 3.0, 4.0):
        raise DataError(f"line {lineno}: income {inc:g} outside 1..4")
    for topic in sorted(topics):
        parsed = {fname: _parse_cell(cells[pos], header[pos], lineno)
                  for fname, pos in topics[topic].items()}
        if math.isnan(parsed["treated"]):
            raise IngestError(f"missing treated flag for topic {topic!r}", line=lineno)


def load_attributes(path: str) -> dict[str, VillagePanel]:
    """Read per-node attributes; topics are inferred from the header."""
    header, columns, ragged = _read_columns(path)
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
    no_id = _empty_cells(columns[:2])
    if no_id.any():
        raise IngestError("empty village or node id", line=int(np.argmax(no_id)) + 2)
    if ragged is not None:
        raise ragged
    (village, village_table), (node, node_table) = columns[:2]
    village_names, node_names = list(village_table), list(node_table)
    # rows by village, then node id; the stable sort keeps file order among
    # repeated ids
    order = np.lexsort((_sort_rank(node_names)[node], _sort_rank(village_names)[village]))
    village, node = village[order], node[order]
    duplicate = np.zeros(len(order), dtype=bool)
    duplicate[1:] = (village[1:] == village[:-1]) & (node[1:] == node[:-1])
    # every column a row is checked on, by header position; a column that a
    # later one of the same name shadows is neither checked nor read
    used = list(range(2, len(ATTR_BASE_HEADER))) + sorted(
        pos for cols in topics.values() for pos in cols.values())
    values: dict[int, np.ndarray] = {}
    failing = np.zeros(len(order), dtype=bool)
    for pos in used:
        values[pos], bad = _parse_column(columns[pos][0][order], columns[pos][1])
        failing |= bad
    base = {name: values[pos] for pos, name in enumerate(ATTR_BASE_HEADER) if pos >= 2}
    failing |= np.isnan(base["household"])
    failing |= np.isfinite(base["income"]) & ~np.isin(base["income"], (1.0, 2.0, 3.0, 4.0))
    for cols in topics.values():
        failing |= np.isnan(values[cols["treated"]])
    topic_names = tuple(sorted(topics))
    panels: dict[str, VillagePanel] = {}
    starts = np.flatnonzero(np.diff(village, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(order)]):
        if duplicate[lo:hi].any():
            j = lo + int(np.argmax(duplicate[lo:hi]))
            raise IngestError(f"duplicate node id {node_names[node[j]]!r}",
                              line=int(order[j]) + 2)
        if failing[lo:hi].any():
            i = int(order[lo + np.argmax(failing[lo:hi])])
            cells = [list(table)[codes[i]] for codes, table in columns]
            _check_attribute_row(header, cells, topics, i + 2)
        vname = village_names[village[lo]]
        panels[vname] = VillagePanel(
            village=vname,
            nodes=tuple(node_names[c] for c in node[lo:hi].tolist()),
            household=base["household"][lo:hi].astype(np.int64),
            **{name: base[name][lo:hi] for name in COVARIATE_NAMES},
            topics=topic_names,
            treated={t: values[topics[t]["treated"]][lo:hi].astype(np.int8)
                     for t in topic_names},
            k_w1={t: values[topics[t]["k_w1"]][lo:hi] for t in topic_names},
            k_w3={t: values[topics[t]["k_w3"]][lo:hi] for t in topic_names},
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
    """Minimal lossless cell formatting: ints exact, floats via repr.

    NaN and None are empty cells; an infinite value is a DataError, since
    the file contracts have no text for it."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return ""
    if math.isinf(xf):
        raise DataError(f"cannot write the non-finite value {xf!r}")
    if xf == int(xf) and abs(xf) < 1e15:
        return str(int(xf))
    return repr(xf)


def fmt_column(values) -> list[str]:
    """[fmt_value(x) for x in values] for a numeric array or sequence.

    Each distinct value is formatted once, so the cells of one value share
    one string: integral values below 1e15 in magnitude as ints, NaN as an
    empty cell, any other value through repr."""
    distinct, inverse = np.unique(np.asarray(values, dtype=np.float64).reshape(-1),
                                  return_inverse=True)
    cells = np.array([fmt_value(x) for x in distinct.tolist()], dtype=object)
    return cells[inverse].tolist()


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
        columns = [[village] * panel.n, panel.nodes, fmt_column(panel.household)]
        columns += [fmt_column(getattr(panel, name)) for name in COVARIATE_NAMES]
        for t in topics:
            if t in panel.topics:
                columns += [fmt_column(panel.treated[t]), fmt_column(panel.k_w1[t]),
                            fmt_column(panel.k_w3[t])]
            else:
                columns += [[""] * panel.n] * 3
        rows += zip(*columns)
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
