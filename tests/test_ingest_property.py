"""Property test: edge ingest either loads the distinct rows or fails typed."""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torquenet import LayerRegistry, TorquenetError
from torquenet import io as tio

# small pools make duplicate rows and shared ids likely
IDS = st.one_of(
    st.sampled_from(["a", "b", "c", "é", "名前", "a,b", 'say "hi"', "two\nlines",
                     "cr\rlf", " pad ", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=4),
)
VILLAGES = st.sampled_from(["v1", "v2", "村", "v,3", ""])
LAYERS = st.sampled_from(["kin", "friend", "ZZ", "advice\ngiven", ""])
REGISTRY = LayerRegistry(("kin", "friend", "advice\ngiven"))


def _cell(text: str, force_quotes: bool) -> str:
    if force_quotes or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
    for row in rows if messy else ():
        # occasionally drop or add a cell
        cut = draw(st.sampled_from([4, 4, 4, 4, 3, 5]))
        del row[cut:]
        row += [draw(IDS)] * (cut - len(row))
    quoted = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["village,ego,alter,layer"]
    lines += [",".join(_cell(c, quoted) for c in row) for row in rows]
    return rows, newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(table=edge_tables(), pinned=st.booleans())
def test_load_edges_loads_distinct_rows_or_fails_typed(table, pinned):
    rows, text = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
