"""Exposure counting against exhaustive path enumeration."""

import numpy as np
import pytest

import oracles
from helpers import (boundary_instances, network_from_triples, quick_panel,
                     random_triples)
from torquenet import (ConfigError, DataError, Direction, Mode,
                       PathwayAnalyzer, PathwayConfig, admissible_step,
                       exposure, exposure_table, k_alter_counts,
                       total_exposure)


def _panel_with_flags(n, treated_ids, validated_ids, topic="t"):
    treated = np.zeros(n, dtype=np.int8)
    treated[list(treated_ids)] = 1
    # non-treated validated nodes get accurate late-wave knowledge
    k3 = np.zeros(n)
    k3[list(validated_ids)] = 1.0
    k1 = np.zeros(n)
    return quick_panel(n, treated=treated, k1=k1, k3=k3, topic=topic)


def test_config_validation():
    with pytest.raises(ConfigError):
        PathwayConfig(layer=0, k=5)
    cfg = PathwayConfig(layer=0, k=2, mode="primary", direction="reversed")
    assert cfg.mode is Mode.PRIMARY
    assert cfg.direction is Direction.REVERSED


def test_admissible_step_direction_and_exclusion():
    net = network_from_triples([(0, 1, 0), (2, 1, 1)], 3, 2)
    assert admissible_step(net, 0, 1, Direction.DIRECTED)
    assert not admissible_step(net, 1, 0, Direction.DIRECTED)
    assert admissible_step(net, 1, 0, Direction.REVERSED)
    assert not admissible_step(net, 0, 1, Direction.REVERSED)
    # nomination 2 -> 1 read from the alter side
    assert admissible_step(net, 1, 2, Direction.REVERSED)
    assert not admissible_step(net, 0, 1, Direction.DIRECTED, excluded_layer=0)
    assert not admissible_step(net, 0, 0, Direction.DIRECTED)


def test_chain_example_counts():
    # 0 -> 1 -> 2 with the middle step only on layer 0, plus a detour
    # 0 -> 3 -> 2 that avoids layer 0 entirely
    triples = [(0, 1, 0), (1, 2, 0), (0, 3, 1), (3, 2, 1)]
    net = network_from_triples(triples, 4, 2)
    panel = _panel_with_flags(4, treated_ids=[2], validated_ids=[])
    rec = exposure(net, panel, 0, PathwayConfig(layer=0, k=2), "t")
    # the detour keeps node 2 reachable in two steps without layer 0
    assert (rec.xi_layer, rec.xi_rest, rec.k_alters) == (0, 1, 1)
    no_detour = network_from_triples(triples[:2], 4, 2)
    rec = exposure(no_detour, panel, 0, PathwayConfig(layer=0, k=2), "t")
    assert (rec.xi_layer, rec.xi_rest, rec.k_alters) == (1, 0, 1)


def test_primary_needs_validated_interior_not_endpoints():
    triples = [(0, 1, 0), (1, 2, 0)]
    net = network_from_triples(triples, 3, 1)
    cfg = PathwayConfig(layer=0, k=2, mode=Mode.PRIMARY)
    blocked = _panel_with_flags(3, treated_ids=[2], validated_ids=[])
    rec = exposure(net, blocked, 0, cfg, "t")
    assert (rec.xi_layer, rec.xi_rest) == (0, 0)
    opened = _panel_with_flags(3, treated_ids=[2], validated_ids=[1])
    rec = exposure(net, opened, 0, cfg, "t")
    # interior node 1 validated; endpoints 0 and 2 never need to be
    assert (rec.xi_layer, rec.xi_rest) == (1, 0)
    # the alter count stays validity-free by default
    assert rec.k_alters == 1


def test_criticality_check_ignores_validity():
    # two length-2 routes to the treated node: one through layer 0 with a
    # validated interior, one avoiding layer 0 with an unvalidated one
    triples = [(0, 1, 0), (1, 2, 0), (0, 3, 1), (3, 2, 1)]
    net = network_from_triples(triples, 4, 2)
    panel = _panel_with_flags(4, treated_ids=[2], validated_ids=[1])
    cfg = PathwayConfig(layer=0, k=2, mode=Mode.PRIMARY)
    rec = exposure(net, panel, 0, cfg, "t")
    # membership passes through the validated route; the unvalidated
    # detour still counts as surviving layer-0 removal
    assert (rec.xi_layer, rec.xi_rest) == (0, 1)


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        n_layers = int(rng.integers(1, 4))
        triples = random_triples(rng, n, n_layers, density=0.25)
        net = network_from_triples(triples, n, n_layers)
        treated = rng.random(n) < 0.4
        validated = rng.random(n) < 0.5
        panel = _panel_with_flags(
            n, np.flatnonzero(treated),
            [i for i in np.flatnonzero(validated) if not treated[i]])
        analyzer = PathwayAnalyzer(net, validated=panel.validated("t"))
        layer = int(rng.integers(n_layers))
        k = int(rng.choice((2, 3, 4)))
        for direction in Direction:
            for mode in Mode:
                cfg = PathwayConfig(layer, k, mode, direction)
                (_, records), = exposure_table(net, panel, cfg, "t",
                                               analyzer=analyzer)
                want = oracles.exposure_by_enumeration(
                    n, triples, panel.intervened("t"), panel.validated("t"),
                    layer, k, mode.value, direction.value)
                got = [(r.xi_layer, r.xi_rest, r.k_alters) for r in records]
                assert got == want


def test_primary_never_exceeds_secondary():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        triples = random_triples(rng, n, 2, density=0.3)
        net = network_from_triples(triples, n, 2)
        treated = np.flatnonzero(rng.random(n) < 0.5)
        validated = np.flatnonzero(rng.random(n) < 0.4)
        panel = _panel_with_flags(n, treated,
                                  [v for v in validated if v not in treated])
        analyzer = PathwayAnalyzer(net, validated=panel.validated("t"))
        for k in (2, 3, 4):
            for direction in Direction:
                pri = PathwayConfig(0, k, Mode.PRIMARY, direction)
                sec = PathwayConfig(0, k, Mode.SECONDARY, direction)
                (_, rp), = exposure_table(net, panel, pri, "t", analyzer=analyzer)
                (_, rs), = exposure_table(net, panel, sec, "t", analyzer=analyzer)
                for a, b in zip(rp, rs):
                    assert a.xi_layer <= b.xi_layer
                    assert a.xi_rest <= b.xi_rest
                    assert a.k_alters <= b.k_alters
                    assert a.xi_layer + a.xi_rest <= a.k_alters


def test_shared_analyzer_and_batch_consistency():
    rng = np.random.default_rng(33)
    triples = random_triples(rng, 7, 2, density=0.3)
    net = network_from_triples(triples, 7, 2)
    panel = _panel_with_flags(7, [1, 4], [2, 3])
    cfgs = [PathwayConfig(l, k) for l in (0, 1) for k in (2, 3)]
    analyzer = PathwayAnalyzer(net, validated=panel.validated("t"))
    tables = exposure_table(net, panel, cfgs, "t", analyzer=analyzer)
    assert [cfg for cfg, _ in tables] == cfgs
    for cfg, records in tables:
        assert len(records) == net.n
        for i, rec in enumerate(records):
            assert exposure(net, panel, i, cfg, "t") == rec


def test_total_exposure_equals_layer_split_sum():
    rng = np.random.default_rng(34)
    triples = random_triples(rng, 8, 2, density=0.3)
    net = network_from_triples(triples, 8, 2)
    panel = _panel_with_flags(8, [0, 3, 5], [2])
    analyzer = PathwayAnalyzer(net, validated=panel.validated("t"))
    for k in (2, 3, 4):
        total = total_exposure(net, panel, k, "t", analyzer=analyzer)
        for layer in (0, 1):
            cfg = PathwayConfig(layer, k)
            (_, records), = exposure_table(net, panel, cfg, "t",
                                           analyzer=analyzer)
            split = [r.xi_layer + r.xi_rest for r in records]
            assert split == list(total)
        counts = k_alter_counts(net, k, analyzer=analyzer)
        (_, records), = exposure_table(net, panel, PathwayConfig(0, k), "t",
                                       analyzer=analyzer)
        assert [r.k_alters for r in records] == list(counts)


def test_n_follows_mode_restricts_alter_count():
    triples = [(0, 1, 0), (1, 2, 0)]
    net = network_from_triples(triples, 3, 1)
    panel = _panel_with_flags(3, treated_ids=[2], validated_ids=[])
    cfg = PathwayConfig(0, 2, Mode.PRIMARY)
    plain = exposure(net, panel, 0, cfg, "t")
    assert plain.k_alters == 1
    gated = exposure(net, panel, 0, cfg, "t", n_follows_mode=True)
    assert gated.k_alters == 0


def test_input_validation():
    net = network_from_triples([(0, 1, 0)], 2, 1)
    panel = _panel_with_flags(3, [0], [])
    with pytest.raises(DataError):
        exposure_table(net, panel, PathwayConfig(0, 2), "t")
    small = _panel_with_flags(2, [0], [])
    with pytest.raises(DataError):
        exposure(net, small, 5, PathwayConfig(0, 2), "t")
    with pytest.raises(DataError):
        exposure_table(net, small, PathwayConfig(0, 2), "missing")


def test_word_boundary_sizes_match_enumeration():
    # n around multiples of 64 puts focal nodes in the last, partly filled
    # word; enumeration runs for a sample of focal nodes that includes the
    # last one
    rng = np.random.default_rng(35)
    n_layers = 2
    for n, triples in boundary_instances(rng, n_layers):
        net = network_from_triples(triples, n, n_layers)
        treated = rng.random(n) < 0.4
        validated = rng.random(n) < 0.6
        panel = _panel_with_flags(
            n, np.flatnonzero(treated),
            [i for i in np.flatnonzero(validated) if not treated[i]])
        analyzer = PathwayAnalyzer(net, validated=panel.validated("t"))
        focals = sorted({*rng.choice(n, size=min(n, 8), replace=False).tolist(), n - 1})
        layer = int(rng.integers(n_layers))
        for k in (2, 3, 4):
            for direction in Direction:
                for mode, follows in ((Mode.SECONDARY, False), (Mode.PRIMARY, False),
                                      (Mode.PRIMARY, True)):
                    cfg = PathwayConfig(layer, k, mode, direction)
                    (_, records), = exposure_table(net, panel, cfg, "t",
                                                   n_follows_mode=follows,
                                                   analyzer=analyzer)
                    want = oracles.exposure_by_enumeration(
                        n, triples, panel.intervened("t"), panel.validated("t"),
                        layer, k, mode.value, direction.value, focals=focals,
                        n_follows_mode=follows)
                    got = [(r.xi_layer, r.xi_rest, r.k_alters) for r in records[focals]]
                    assert got == want, (n, cfg, follows)
