"""Property tests: ingest either loads the distinct rows or fails typed, and
the column-wise loaders agree with the row-wise ones in tests/oracles.py."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from torquenet import IngestError, LayerRegistry, TorquenetError
from torquenet import io as tio

# small pools make duplicate rows and shared ids likely; "a\x00" differs
# from "a" only by a trailing NUL
IDS = st.one_of(
    st.sampled_from(["a", "b", "c", "é", "名前", "a,b", 'say "hi"', "two\nlines",
                     "cr\rlf", " pad ", "", "a\x00"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=4),
)
VILLAGES = st.sampled_from(["v1", "v2", "村", "v,3", ""])
LAYERS = st.sampled_from(["kin", "friend", "ZZ", "advice\ngiven", ""])
REGISTRY = LayerRegistry(("kin", "friend", "advice\ngiven"))


def _cell(text: str, force_quotes: bool) -> str:
    if force_quotes or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _file_text(draw, header, rows):
    quoted = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(_cell(c, False) for c in header)]
    lines += [",".join(_cell(c, quoted) for c in row) for row in rows]
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _ragged(draw, rows, pool):
    """Occasionally drop a cell of a row or add one."""
    for row in rows:
        width = len(row)
        cut = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
        del row[cut:]
        row += [draw(pool)] * (cut - len(row))


@st.composite
def edge_tables(draw):
    """(rows, file text): a header plus rows. Messy tables may hold empty
    cells, self-nominations and ragged rows; the others hold none."""
    messy = draw(st.booleans())
    row_st = st.tuples(VILLAGES, IDS, IDS, LAYERS)
    if not messy:
        row_st = row_st.filter(lambda r: all(r) and r[1] != r[2])
    rows = draw(st.lists(row_st, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    rows = [list(r) for r in draw(st.permutations(rows))]
    if messy:
        for row in rows:  # self-nominations, to race the other errors
            if draw(st.integers(0, 4)) == 0:
                row[2] = row[1]
        _ragged(draw, rows, IDS)
    return rows, _file_text(draw, tio.EDGE_HEADER, rows)


def _write(tmp: str, name: str, text: str) -> str:
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(table=edge_tables(), pinned=st.booleans())
def test_load_edges_loads_distinct_rows_or_fails_typed(table, pinned):
    rows, text = table
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "edges.csv", text)
        try:
            data = tio.load_edges(path, registry=REGISTRY if pinned else None)
        except TorquenetError:
            return
    # a load succeeded, so every row was a valid nomination
    assert all(len(r) == 4 and all(r) and r[1] != r[2] for r in rows)
    distinct = {tuple(r) for r in rows}
    got = set()
    for village, net in data.networks.items():
        names = data.node_ids[village]
        got |= {(village, names[e], names[a], data.registry.name_of(lay))
                for e, a, lay in zip(net.ego.tolist(), net.alter.tolist(),
                                     net.layer.tolist())}
    assert got == distinct
    assert data.report.rows_read == len(rows)
    assert data.report.duplicates_collapsed == len(rows) - len(distinct)


# -- the column-wise loaders against the row-wise oracles ------------


def _outcome(load, *args, **kwargs):
    """What a loader gives: its result, or (error type, message, line)."""
    try:
        return load(*args, **kwargs)
    except TorquenetError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _same_edges(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, tio.EdgeData)
    assert got.registry == want.registry
    assert got.report == want.report
    assert got.node_ids == want.node_ids
    assert list(got.networks) == list(want.networks)
    for village, net in want.networks.items():
        mine = got.networks[village]
        assert mine.n == net.n and mine.registry == net.registry
        for name in ("ego", "alter", "layer"):
            assert np.array_equal(getattr(mine, name), getattr(net, name))


def _draw_universe(draw, rows):
    """A node universe for the villages of rows: mostly their exact ids,
    sometimes missing a village or an id, or holding extra ones."""
    by_village: dict[str, set] = {}
    for row in rows:
        by_village.setdefault(row[0], set()).update(row[1:3])
    universe = {}
    for village in sorted(by_village):
        if draw(st.integers(0, 9)) == 0:
            continue
        names = draw(st.permutations(sorted(by_village[village])))
        cut = draw(st.sampled_from([len(names)] * 3 + [max(len(names) - 1, 0)]))
        universe[village] = list(names[:cut]) + draw(st.lists(IDS, max_size=2))
    if draw(st.booleans()):
        universe[draw(VILLAGES)] = draw(st.lists(IDS, max_size=3))
    return universe


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(table=edge_tables(), pinned=st.booleans(), with_universe=st.booleans(),
       data=st.data())
def test_load_edges_matches_row_wise_oracle(table, pinned, with_universe, data):
    rows, text = table
    kwargs = {"registry": REGISTRY if pinned else None,
              "node_universe": _draw_universe(data.draw, rows) if with_universe else None}
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "edges.csv", text)
        want = _outcome(oracles.load_edges_by_rows, path, **kwargs)
        got = _outcome(tio.load_edges, path, **kwargs)
    _same_edges(got, want)


def test_ids_differing_by_trailing_nuls_stay_apart(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("village,ego,alter,layer\nv1,a,a\x00,kin\nv1,b,a,kin\n",
                    encoding="utf-8")
    data = tio.load_edges(str(path))
    assert data.node_ids["v1"] == ("a", "a\x00", "b")
    assert data.networks["v1"].nomination_count == 2
    universe = {"v1": ("b", "a\x00", "a")}
    data = tio.load_edges(str(path), node_universe=universe)
    assert data.node_ids["v1"] == universe["v1"]
    with pytest.raises(TorquenetError, match=r"node 'a\\x00' has no attribute row"):
        tio.load_edges(str(path), node_universe={"v1": ("a", "b")})


# attribute tables: one or two topics, a shadowed column, and cells that
# pass or fail each check (non-finite text is covered apart, below)
ATTR_HEADERS = st.sampled_from([
    [],
    ["treated_s", "k_w1_s", "k_w3_s"],
    ["k_w3_s", "treated_r", "treated_s", "k_w1_r", "k_w1_s", "k_w3_r"],
    ["treated_s", "k_w1_s", "k_w3_s", "treated_s"],
])
NUMBERS = st.sampled_from(["", "0", "1", "2", "3", "4", "7", "1.5", "-0", " 2",
                           "1_0", "x", "1e3"])
NODES = st.sampled_from(["a", "b", "a\x00", "é", "", "c,d"])


@st.composite
def attribute_tables(draw):
    header = tio.ATTR_BASE_HEADER + draw(ATTR_HEADERS)
    clean = draw(st.booleans())
    numbers = st.sampled_from(["0", "1", "2", "3", "4", "1.5", ""]) if clean else NUMBERS
    row_st = st.tuples(st.sampled_from(["v1", "v2", "村"]) if clean else VILLAGES,
                       NODES.filter(bool) if clean else NODES,
                       *[numbers] * (len(header) - 2))
    rows = [list(r) for r in draw(st.lists(row_st, max_size=10))]
    if clean:
        for row in rows:  # household present, flags mostly valid
            row[2] = "1"
            row[7] = draw(st.sampled_from(["1", "4", ""]))
            for pos, name in enumerate(header):
                if name.startswith("treated_"):
                    row[pos] = draw(st.sampled_from(["0", "1", "0", "1", ""]))
                elif name.startswith("k_w"):
                    row[pos] = draw(st.sampled_from(["0", "1", ""]))
    else:
        _ragged(draw, rows, numbers)
    return _file_text(draw, header, rows)


def _same_panels(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got) == list(want)
    for village, panel in want.items():
        mine = got[village]
        assert (mine.village, mine.nodes, mine.topics) == \
            (panel.village, panel.nodes, panel.topics)
        arrays = [(getattr(mine, f), getattr(panel, f))
                  for f in ("household",) + tio.COVARIATE_NAMES]
        arrays += [(getattr(mine, f)[t], getattr(panel, f)[t])
                   for f in ("treated", "k_w1", "k_w3") for t in panel.topics]
        for a, b in arrays:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=attribute_tables())
def test_load_attributes_matches_row_wise_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "attributes.csv", text)
        want = _outcome(oracles.load_attributes_by_rows, path)
        got = _outcome(tio.load_attributes, path)
    _same_panels(got, want)


@pytest.mark.parametrize("column,cell", [
    ("age", "nan"), ("age", "inf"), ("sociability", "-Infinity"), ("age", "1e400"),
    ("household", "inf"), ("income", "NaN"), ("treated_s", "inf"), ("k_w3_s", "nan"),
])
def test_non_finite_numeric_text_is_rejected(tmp_path, column, cell):
    header = tio.ATTR_BASE_HEADER + ["treated_s", "k_w1_s", "k_w3_s"]
    good = ["v", "a", "0", "1", "30", "0", "8", "2", "3", "1", "0", ""]
    bad = ["v", "b"] + good[2:]
    bad[header.index(column)] = cell
    path = tmp_path / "attributes.csv"
    path.write_text("\n".join(",".join(r) for r in (header, good, bad)) + "\n")
    with pytest.raises(IngestError, match=f"bad numeric value '{cell}' in {column}") as err:
        tio.load_attributes(str(path))
    assert err.value.line == 3
