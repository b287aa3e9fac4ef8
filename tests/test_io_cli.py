"""File ingestion, formatting, scenario parsing, and the command line."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from torquenet import (ChainLayerSpec, ConfigError, DataError,
                       DiffusionConfig, Direction, ExperimentConfig,
                       FriendLayerSpec, IngestError, LayerRegistry, Mode,
                       UnknownLayerError, VillageGenConfig, build_villages)
import torquenet
from torquenet import io as tio
from torquenet.cli import THREADS_ENV, main

from helpers import triples_of
from test_acceptance import STABLE_SCENARIO


# -- fixtures --------------------------------------------------------


EDGES_SMALL = """village,ego,alter,layer
v1,a,b,trust
v1,b,c,advice
v1,c,a,trust
v2,x,y,advice
"""

ATTRS_SMALL = """village,node,household,sociability,age,gender,education,income,self_health,treated_story,k_w1_story,k_w3_story
v1,a,0,1.5,30,0,8,2,3,1,1,1
v1,b,0,2.0,55,1,4,2,4,0,0,1
v1,c,1,0.5,41,0,12,3,2,0,0,0
v2,x,0,1.0,28,1,9,1,5,1,0,1
v2,y,1,3.0,60,0,2,4,1,0,1,
"""


@pytest.fixture()
def small_files(tmp_path):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text(EDGES_SMALL)
    attrs.write_text(ATTRS_SMALL)
    return str(edges), str(attrs)


def _sim_config():
    return ExperimentConfig(
        n_villages=6, village_size=(25, 35),
        gen=VillageGenConfig(
            friend_layers={"closest_friend": FriendLayerSpec(2, 0.3)},
            chain_layers={"borrow_money": ChainLayerSpec(0.55, 1)}),
        topics=("story",),
        diffusion={"story": DiffusionConfig(
            layer_probs={"closest_friend": 0.6}, forget=0.1)},
        fraction=0.3, bootstrap_reps=0)


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    """A simulated six-village dataset written to disk once per module."""
    root = tmp_path_factory.mktemp("simdata")
    nets, panels = build_villages(_sim_config(), seed=11)
    edges = root / "edges.csv"
    attrs = root / "attributes.csv"
    tio.write_edges_csv(str(edges), nets, {v: panels[v].nodes for v in panels})
    tio.write_attributes_csv(str(attrs), panels)
    return str(edges), str(attrs), nets, panels


# -- loading ---------------------------------------------------------


def test_load_edges_infers_sorted_registry(small_files):
    edges, _ = small_files
    data = tio.load_edges(edges)
    assert data.registry.names == ("advice", "trust")
    assert sorted(data.networks) == ["v1", "v2"]
    assert data.networks["v1"].n == 3
    assert data.node_ids["v1"] == ("a", "b", "c")
    assert data.report.rows_read == 4
    assert data.report.duplicates_collapsed == 0
    assert data.report.villages == ("v1", "v2")


def test_load_edges_counts_duplicates(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("village,ego,alter,layer\nv,a,b,l\nv,a,b,l\nv,b,a,l\n")
    data = tio.load_edges(path)
    assert data.report.duplicates_collapsed == 1
    assert data.networks["v"].nomination_count == 2


def test_load_edges_error_lines(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("village,ego,alter\nv,a,b\n")
    with pytest.raises(IngestError, match="bad header"):
        tio.load_edges(bad_header)

    short_row = tmp_path / "s.csv"
    short_row.write_text("village,ego,alter,layer\nv,a,b,l\nv,a,b\n")
    with pytest.raises(IngestError, match="line 3"):
        tio.load_edges(short_row)

    selfnom = tmp_path / "self.csv"
    selfnom.write_text("village,ego,alter,layer\nv,a,a,l\n")
    with pytest.raises(IngestError, match="line 2"):
        tio.load_edges(selfnom)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IngestError, match="empty file"):
        tio.load_edges(empty)

    missing = tmp_path / "nope.csv"
    with pytest.raises(IngestError, match="cannot read"):
        tio.load_edges(missing)


def test_load_edges_registry_mismatch(small_files):
    edges, _ = small_files
    with pytest.raises(UnknownLayerError, match="advice"):
        tio.load_edges(edges, registry=LayerRegistry(("trust",)))
    # a superset registry pins ordering
    data = tio.load_edges(edges, registry=LayerRegistry(("trust", "advice", "z")))
    assert data.registry.names == ("trust", "advice", "z")


def test_load_edges_unknown_layer_names_first_line(small_files):
    edges, _ = small_files
    # "advice" first appears on line 3 (the header is line 1)
    with pytest.raises(UnknownLayerError, match="line 3: unknown layers") as err:
        tio.load_edges(edges, registry=LayerRegistry(("trust",)))
    assert err.value.line == 3


def test_non_utf8_input_is_an_ingest_error(tmp_path, small_files, capsys):
    _, attrs = small_files
    edges = tmp_path / "e.csv"
    edges.write_bytes(b"village,ego,alter,layer\nv1,a,b,\xff\n")
    with pytest.raises(IngestError, match="e.csv: not UTF-8") as err:
        tio.load_edges(str(edges))
    assert err.value.line == 2
    bad_attrs = tmp_path / "a.csv"
    lines = ATTRS_SMALL.encode().split(b"\n")
    lines[3] = lines[3].replace(b"v1,c", b"v1,\xe9c")
    bad_attrs.write_bytes(b"\n".join(lines))
    with pytest.raises(IngestError, match="a.csv: not UTF-8") as err:
        tio.load_attributes(str(bad_attrs))
    assert err.value.line == 4
    code, out, err_text = _run(capsys, ["torque", "--edges", str(edges),
                                        "--out-dir", str(tmp_path)])
    assert code == 1 and out == "" and "not UTF-8" in err_text


def test_oversized_cell_is_an_ingest_error(tmp_path):
    # the csv module refuses cells over its field size limit (128 KiB)
    edges = tmp_path / "big.csv"
    edges.write_text("village,ego,alter,layer\nv,a,b,l\nv,a," + "b" * 200_000 + ",l\n")
    with pytest.raises(IngestError, match="big.csv: field larger") as err:
        tio.load_edges(str(edges))
    assert err.value.line == 3


def test_load_attributes_infers_topics(small_files):
    _, attrs = small_files
    panels = tio.load_attributes(attrs)
    assert sorted(panels) == ["v1", "v2"]
    p = panels["v1"]
    assert p.topics == ("story",)
    assert p.nodes == ("a", "b", "c")
    assert list(p.household) == [0, 0, 1]
    assert list(p.treated["story"]) == [1, 0, 0]
    assert math.isnan(panels["v2"].k_w3["story"][1])


def test_load_attributes_error_paths(tmp_path):
    head = ",".join(tio.ATTR_BASE_HEADER)

    unknown = tmp_path / "u.csv"
    unknown.write_text(head + ",favorite_color\nv,a,0,1,30,0,8,2,3,red\n")
    with pytest.raises(DataError, match="favorite_color"):
        tio.load_attributes(unknown)

    partial = tmp_path / "p.csv"
    partial.write_text(head + ",treated_story\nv,a,0,1,30,0,8,2,3,1\n")
    with pytest.raises(DataError, match="missing columns"):
        tio.load_attributes(partial)

    income = tmp_path / "i.csv"
    income.write_text(head + "\nv,a,0,1,30,0,8,7,3\n")
    with pytest.raises(DataError, match="income"):
        tio.load_attributes(income)

    nohh = tmp_path / "hh.csv"
    nohh.write_text(head + "\nv,a,,1,30,0,8,2,3\n")
    with pytest.raises(IngestError, match="household"):
        tio.load_attributes(nohh)

    no_treat = tmp_path / "t.csv"
    no_treat.write_text(
        head + ",treated_s,k_w1_s,k_w3_s\nv,a,0,1,30,0,8,2,3,,0,0\n")
    with pytest.raises(IngestError, match="treated"):
        tio.load_attributes(no_treat)

    dup = tmp_path / "d.csv"
    dup.write_text(head + "\nv,a,0,1,30,0,8,2,3\nv,a,1,1,30,0,8,2,3\n")
    with pytest.raises(IngestError, match="duplicate node"):
        tio.load_attributes(dup)

    badnum = tmp_path / "n.csv"
    badnum.write_text(head + "\nv,a,0,1,thirty,0,8,2,3\n")
    with pytest.raises(IngestError, match="age"):
        tio.load_attributes(badnum)


def test_load_dataset_shares_node_universe(small_files):
    edges, attrs = small_files
    data, panels = tio.load_dataset(edges, attrs)
    for village, panel in panels.items():
        assert data.networks[village].n == panel.n
        assert data.node_ids[village] == panel.nodes


def test_load_dataset_rejects_unmatched_nodes(tmp_path, small_files):
    _, attrs = small_files
    edges = tmp_path / "stranger.csv"
    edges.write_text("village,ego,alter,layer\nv1,a,ghost,trust\n")
    with pytest.raises(DataError, match="ghost"):
        tio.load_dataset(str(edges), attrs)

    orphan = tmp_path / "orphan.csv"
    orphan.write_text("village,ego,alter,layer\nv9,a,b,trust\n")
    with pytest.raises(DataError, match="v9"):
        tio.load_dataset(str(orphan), attrs)


def test_simulated_dataset_round_trips(sim_files):
    edges, attrs, nets, panels = sim_files
    # passing the registry pins canonical layer order; inference would sort
    registry = next(iter(nets.values())).registry
    data, loaded = tio.load_dataset(edges, attrs, registry=registry)
    assert set(data.networks) == set(nets)
    for village, net in nets.items():
        back = data.networks[village]
        assert back.registry.names == net.registry.names
        assert triples_of(back) == triples_of(net)
    for village, panel in panels.items():
        got = loaded[village]
        assert got.nodes == panel.nodes
        assert np.array_equal(got.household, panel.household)
        for name in ("sociability", "age", "education", "income"):
            assert np.allclose(getattr(got, name), getattr(panel, name))
        assert np.array_equal(got.treated["story"], panel.treated["story"])
        assert np.allclose(got.k_w3["story"],
                           np.asarray(panel.k_w3["story"], dtype=float),
                           equal_nan=True)


# -- formatting ------------------------------------------------------


def test_fraction_and_value_formatting():
    assert tio.fmt_fraction(2 / 3) == "0.666667"
    assert tio.fmt_fraction(0.5) == "0.500000"
    assert tio.fmt_fraction(float("nan")) == ""
    assert tio.fmt_value(3) == "3"
    assert tio.fmt_value(3.0) == "3"
    assert tio.fmt_value(np.float64(2.5)) == "2.5"
    assert tio.fmt_value(0.1) == repr(0.1)
    assert tio.fmt_value(None) == ""
    assert tio.fmt_value(float("nan")) == ""
    assert tio.fmt_value(np.bool_(True)) == "1"
    assert tio.fmt_value("kept") == "kept"


def test_atomic_write_replaces_and_leaves_no_debris(tmp_path):
    target = tmp_path / "out" / "x.txt"
    tio.atomic_write_text(str(target), "one\n")
    tio.atomic_write_text(str(target), "two\n")
    assert target.read_text() == "two\n"
    assert [p.name for p in target.parent.iterdir()] == ["x.txt"]


def test_render_csv_and_json():
    text = tio.render_csv(["a", "b"], [["1", "x"], ["2", "y"]])
    assert text == "a,b\n1,x\n2,y\n"
    payload = {"z": float("nan"), "a": 1 / 3, "n": np.int64(4),
               "f": np.float64(0.25), "t": np.bool_(False)}
    out = tio.render_json(payload)
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["z"] is None
    assert doc["a"] == round(1 / 3, 12)
    assert doc["n"] == 4 and doc["f"] == 0.25 and doc["t"] is False
    # keys are sorted for byte stability
    assert out.index('"a"') < out.index('"n"') < out.index('"z"')


# -- scenario files --------------------------------------------------


SCENARIO_FULL = """
[villages]
count = 4
size_min = 20
size_max = 26
household_mean = 2.2
household_sd = 1.0

[layers]
drop = personal_private, free_time, patron, lend_money, health_advice_give, health_advice_get
friend_closest_friend = 2, 0.25
chain_borrow_money = 0.5, 1

[intervention]
fraction = 0.35
strategy = torque

[topics]
names = story, rumor

[diffusion]
rounds = 5
baseline_rate = 0.15
forget = 0.05

[diffusion:story]
closest_friend = 0.7

[estimation]
k = 3
mode = primary
direction = reversed
bootstrap = 0
level = 0.99
"""


def test_parse_scenario_full(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(SCENARIO_FULL)
    cfg = tio.parse_scenario(str(path))
    assert cfg.n_villages == 4
    assert cfg.village_size == (20, 26)
    assert cfg.gen.household_mean == 2.2
    assert set(cfg.gen.friend_layers) == {"closest_friend"}
    assert cfg.gen.friend_layers["closest_friend"] == FriendLayerSpec(2, 0.25)
    assert set(cfg.gen.chain_layers) == {"borrow_money"}
    assert cfg.fraction == 0.35
    assert cfg.strategy == "torque"
    assert cfg.topics == ("story", "rumor")
    assert cfg.diffusion["story"].layer_probs == {"closest_friend": 0.7}
    assert cfg.diffusion["story"].forget == 0.05
    assert cfg.diffusion["rumor"].layer_probs == {}
    assert cfg.diffusion["rumor"].rounds == 5
    assert cfg.k == 3
    assert cfg.mode is Mode.PRIMARY
    assert cfg.direction is Direction.REVERSED
    assert cfg.bootstrap_reps == 0
    assert cfg.ci_level == 0.99


@pytest.mark.parametrize("body,fragment", [
    ("[magic]\nx = 1\n", "unknown scenario section"),
    ("[villages]\ncount = soon\n", "bad value"),
    ("[villages]\nflavor = mild\n", "unknown keys"),
    ("[layers]\nfriend_closest_friend = 1\n", "expected 2"),
    ("[diffusion:ghost]\nx = 0.5\n", "no matching topic"),
    ("[estimation]\nmode = psychic\n", "bad estimation setting"),
    ("[diffusion]\nforget = 1.5\n", "forget"),
])
def test_parse_scenario_rejects(tmp_path, body, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(ConfigError, match=fragment):
        tio.parse_scenario(str(path))


def test_parse_scenario_default_forget(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[topics]\nnames = story\n")
    assert tio.parse_scenario(str(path)).diffusion["story"].forget == 0.05


def test_parse_scenario_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        tio.parse_scenario("/definitely/not/here.ini")


# -- command line ----------------------------------------------------


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_metrics_and_torque(sim_files, tmp_path, capsys):
    edges, attrs, _, _ = sim_files
    code, out, err = _run(capsys, [
        "metrics", "--edges", edges, "--out-dir", str(tmp_path)])
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith("village,layer,prevalence")
    assert (tmp_path / "metrics.csv").read_text() == out

    code, out, _ = _run(capsys, [
        "torque", "--edges", edges, "--out-dir", str(tmp_path)])
    assert code == 0
    assert out.splitlines()[0] == "village,layer,torque,critical_pairs,connected_pairs"
    # five configured layers per village, six villages
    assert len(out.splitlines()) == 1 + 5 * 6

    code, out, _ = _run(capsys, [
        "correlates", "--edges", edges, "--out-dir", str(tmp_path)])
    assert code == 0
    assert out.splitlines()[0].endswith(",torque")


def test_cli_exposure_and_screen(sim_files, tmp_path, capsys):
    edges, attrs, nets, _ = sim_files
    code, out, _ = _run(capsys, [
        "exposure", "--edges", edges, "--attrs", attrs, "--topic", "story",
        "--k", "2,3", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(tio.EXPOSURE_HEADER)
    n_total = sum(net.n for net in nets.values())
    assert len(lines) == 1 + n_total * 5 * 2

    code, out, _ = _run(capsys, [
        "screen", "--edges", edges, "--attrs", attrs,
        "--out-dir", str(tmp_path)])
    assert code == 0
    assert out.splitlines()[0].startswith("topic,k,coefficient")
    assert len(out.splitlines()) == 1 + 3


def test_cli_fit_and_design_dump(sim_files, tmp_path, capsys):
    edges, attrs, _, panels = sim_files
    dump = tmp_path / "design.csv"
    code, out, _ = _run(capsys, [
        "fit", "--edges", edges, "--attrs", attrs, "--topic", "story",
        "--layer", "closest_friend", "--out-dir", str(tmp_path),
        "--dump-design", str(dump)])
    assert code == 0
    terms = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert terms[:4] == ["intercept", "k_w1", "xi_layer", "xi_rest"]
    assert sum(t.startswith("village:") for t in terms) == len(panels) - 1
    design_header = dump.read_text().splitlines()[0]
    assert design_header.startswith("village,node,y,intercept,k_w1")


def test_cli_reduce_single_layer(sim_files, tmp_path, capsys):
    edges, attrs, _, _ = sim_files
    code, out, _ = _run(capsys, [
        "reduce", "--edges", edges, "--attrs", attrs, "--topic", "story",
        "--layer", "closest_friend", "--seed", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("topic,layer,k,reduction,ci_low")
    fields = lines[1].split(",")
    assert fields[1] == "closest_friend"
    assert int(fields[7]) == 1000
    assert int(fields[8]) < 1000


def test_cli_simulate_then_analyze(tmp_path, capsys):
    ini = tmp_path / "scenario.ini"
    ini.write_text(SCENARIO_FULL.replace("strategy = torque",
                                         "strategy = random"))
    out_dir = tmp_path / "data"
    code, out, _ = _run(capsys, [
        "simulate", "--config", str(ini), "--seed", "2",
        "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "edges.csv").exists()
    assert (out_dir / "attributes.csv").exists()
    assert out.splitlines()[0].startswith("village,n,households")
    # the generated files immediately feed the analysis commands
    code, out, _ = _run(capsys, [
        "torque", "--edges", str(out_dir / "edges.csv"),
        "--out-dir", str(out_dir)])
    assert code == 0


def test_cli_experiment_with_scenario(tmp_path, capsys):
    ini = tmp_path / "scenario.ini"
    ini.write_text(SCENARIO_FULL
                   .replace("count = 4", "count = 5")
                   .replace("strategy = torque", "strategy = random")
                   .replace("k = 3", "k = 2")
                   .replace("mode = primary", "mode = secondary")
                   .replace("direction = reversed", "direction = directed")
                   .replace("names = story, rumor", "names = story"))
    code, out, _ = _run(capsys, [
        "experiment", "--config", str(ini), "--seed", "4",
        "--out-dir", str(tmp_path)])
    assert code == 0
    body = (tmp_path / "experiment.csv").read_text()
    assert body.splitlines()[0].startswith("topic,layer,mean_torque")
    slopes = (tmp_path / "experiment_slopes.csv").read_text()
    assert slopes.splitlines()[0] == "topic,slope,p_value"
    assert any(line.startswith("story,") for line in slopes.splitlines()[1:])


def test_cli_json_format(sim_files, tmp_path, capsys):
    edges, _, _, _ = sim_files
    code, out, _ = _run(capsys, [
        "torque", "--edges", edges, "--format", "json",
        "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "torque.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "torque"
    assert doc["rows"]


def test_cli_deterministic_across_runs_and_threads(sim_files, tmp_path,
                                                   capsys, monkeypatch):
    edges, attrs, _, _ = sim_files
    outs = {}
    for tag, extra in (("a", ["--threads", "1"]), ("b", ["--threads", "1"]),
                       ("c", ["--threads", "3"])):
        d = tmp_path / tag
        code, _, _ = _run(capsys, [
            "exposure", "--edges", edges, "--attrs", attrs, "--topic", "story",
            "--seed", "7", "--out-dir", str(d)] + extra)
        assert code == 0
        outs[tag] = (d / "exposure.csv").read_bytes()
    assert outs["a"] == outs["b"] == outs["c"]

    monkeypatch.setenv(THREADS_ENV, "2")
    d = tmp_path / "env"
    code, _, _ = _run(capsys, [
        "exposure", "--edges", edges, "--attrs", attrs, "--topic", "story",
        "--seed", "7", "--out-dir", str(d)])
    assert code == 0
    assert (d / "exposure.csv").read_bytes() == outs["a"]


def test_cli_layer_override(sim_files, tmp_path, capsys):
    edges, _, _, _ = sim_files
    code, _, err = _run(capsys, [
        "torque", "--edges", edges, "--layers", "parent,sibling",
        "--out-dir", str(tmp_path)])
    assert code == 1
    assert err.startswith("error:")


def test_cli_error_exit_codes(sim_files, tmp_path, capsys):
    edges, attrs, _, _ = sim_files
    # missing required input file flag
    code, _, err = _run(capsys, ["metrics", "--out-dir", str(tmp_path)])
    assert code == 1 and "edges" in err
    # unreadable path
    code, _, err = _run(capsys, [
        "torque", "--edges", "/no/such/file.csv", "--out-dir", str(tmp_path)])
    assert code == 1 and err.startswith("error:")
    # domain error from the estimator layer
    code, _, err = _run(capsys, [
        "fit", "--edges", edges, "--attrs", attrs, "--topic", "nope",
        "--layer", "closest_friend", "--out-dir", str(tmp_path)])
    assert code == 1 and "nope" in err
    # bad k values
    code, _, err = _run(capsys, [
        "exposure", "--edges", edges, "--attrs", attrs, "--topic", "story",
        "--k", "9", "--out-dir", str(tmp_path)])
    assert code == 1 and "--k" in err
    # argparse-level misuse
    with pytest.raises(SystemExit) as exc:
        main(["exposure", "--edges", edges])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["conjure"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_import_leaves_out_scipy_stats():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(torquenet.__file__)))
    # neither is needed: Wald p values use scipy.special, and distances
    # come from the package's own bitset BFS
    probe = ("import sys, torquenet.cli; "
             "print([m for m in ('scipy.stats', 'scipy.sparse') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _json_cell(value):
    """A JSON value as the CSV table writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return tio.fmt_fraction(value)
    return str(value)


def _assert_tables_agree(csv_text, json_rows):
    header, *rows = csv.reader(io.StringIO(csv_text))
    assert rows and len(rows) == len(json_rows)
    for row, obj in zip(rows, json_rows):
        assert sorted(obj) == sorted(header)
        assert row == [_json_cell(obj[name]) for name in header]


def test_cli_csv_and_json_agree(tmp_path, capsys):
    ini = tmp_path / "scenario.ini"
    ini.write_text(STABLE_SCENARIO)
    sim = tmp_path / "sim"
    data = ["--edges", str(sim / "edges.csv"), "--attrs", str(sim / "attributes.csv")]
    commands = [
        ("simulate", ["--config", str(ini), "--seed", "5"]),
        ("metrics", data[:2]),
        ("torque", data[:2]),
        ("correlates", data[:2]),
        ("exposure", data + ["--topic", "story", "--k", "2,3"]),
        ("screen", data),
        ("fit", data + ["--topic", "story", "--layer", "closest_friend"]),
        ("reduce", data + ["--topic", "story", "--layer", "closest_friend",
                           "--seed", "3"]),
        ("experiment", ["--config", str(ini), "--seed", "4"]),
    ]
    for name, argv in commands:
        docs = {}
        for fmt in ("csv", "json"):
            out_dir = sim if name == "simulate" else tmp_path / fmt
            code, out, _ = _run(capsys, [name, *argv, "--format", fmt,
                                         "--out-dir", str(out_dir)])
            assert code == 0, name
            docs[fmt] = (out_dir / f"{name}.{fmt}").read_text()
        doc = json.loads(docs["json"])
        assert doc["command"] == name
        _assert_tables_agree(docs["csv"], doc["terms" if name == "fit" else "rows"])
    slopes = (tmp_path / "csv" / "experiment_slopes.csv").read_text()
    _assert_tables_agree(slopes, doc["slopes"])
