"""Layer criticality and torque against naive recomputation."""

import math

import numpy as np
import pytest

import oracles
from helpers import boundary_instances, network_from_triples, random_triples
from torquenet import (INFINITE, DisconnectedPairError, SimpleGraph,
                       UndefinedStatisticError, all_pairs_distances,
                       criticality, network_torque, torque_all_layers)


def test_all_pairs_distances_matches_bfs():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        triples = random_triples(rng, n, 1, density=0.15)
        edges = sorted({(min(e, a), max(e, a)) for e, a, _ in triples})
        got = all_pairs_distances(SimpleGraph(n, edges))
        want = oracles.all_pairs_by_bfs(n, edges)
        for i in range(n):
            for j in range(n):
                if want[i][j] == oracles.INF:
                    assert got[i, j] == INFINITE
                else:
                    assert got[i, j] == want[i][j]


def test_two_layer_fixture_values():
    net = network_from_triples(
        [(0, 1, 0), (1, 2, 0), (0, 1, 1), (2, 3, 1)], 4, 2)
    report = torque_all_layers(net)
    assert report.connected_pairs == 6
    assert report.critical_pairs == (4, 3)
    assert report.torque == (4 / 6, 3 / 6)
    assert report.as_dict() == {"L0": 4 / 6, "L1": 3 / 6}
    assert network_torque(net, 0) == 4 / 6
    assert network_torque(net, 1) == 3 / 6


def test_single_layer_removal_disconnects_everything():
    net = network_from_triples([(0, 1, 0)], 2, 1)
    assert network_torque(net, 0) == 1.0


def test_redundant_layer_has_zero_torque():
    # same dyads carried twice: dropping either layer changes nothing
    triples = [(0, 1, 0), (1, 2, 0), (0, 1, 1), (1, 2, 1)]
    net = network_from_triples(triples, 3, 2)
    report = torque_all_layers(net)
    assert report.torque == (0.0, 0.0)


def test_criticality_flags_and_errors():
    net = network_from_triples(
        [(0, 1, 0), (1, 2, 0), (0, 1, 1), (2, 3, 1)], 4, 2)
    assert criticality(net, 0, 1, 2) == 1
    assert criticality(net, 0, 0, 1) == 0
    with pytest.raises(DisconnectedPairError):
        criticality(net, 0, 1, 1)
    lonely = network_from_triples([(0, 1, 0)], 3, 1)
    with pytest.raises(DisconnectedPairError):
        criticality(lonely, 0, 0, 2)


def test_torque_undefined_without_connected_pairs():
    net = network_from_triples([], 3, 1)
    with pytest.raises(UndefinedStatisticError):
        torque_all_layers(net)
    with pytest.raises(UndefinedStatisticError):
        network_torque(net, 0)


def test_matches_recount_on_random_instances():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(150):
        n = int(rng.integers(2, 13))
        n_layers = int(rng.integers(1, 5))
        triples = random_triples(rng, n, n_layers)
        want = oracles.torque_by_recount(n, triples, n_layers)
        net = network_from_triples(triples, n, n_layers)
        if want[0][1] == 0:
            with pytest.raises(UndefinedStatisticError):
                torque_all_layers(net)
            continue
        report = torque_all_layers(net)
        assert report.connected_pairs == want[0][1]
        for layer in range(n_layers):
            crit, conn = want[layer]
            assert report.critical_pairs[layer] == crit
            assert math.isclose(report.torque[layer], crit / conn)
        checked += 1
    assert checked > 100


def test_subset_layer_has_zero_torque():
    # every dyad of layer 0 also carried by layer 1, so dropping layer 0
    # leaves all distances alone
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        big = random_triples(rng, n, 1, density=0.3)
        if not big:
            continue
        keep = rng.random(len(big)) < 0.5
        sub = [(e, a, 1) for (e, a, _), kept in zip(big, keep) if kept]
        extra_layer = [(e, a, 2) for e, a, _ in
                       random_triples(rng, n, 1, density=0.1)]
        relabeled = [(e, a, 1) for e, a, _ in big]
        triples = relabeled + [(e, a, 0) for e, a, _ in sub] + extra_layer
        net = network_from_triples(triples, n, 3)
        report = torque_all_layers(net)
        assert report.torque[0] == 0.0
        assert report.critical_pairs[0] == 0


def test_word_boundary_sizes_match_recount():
    # n around multiples of 64 puts sources in the last, partly filled word
    rng = np.random.default_rng(24)
    n_layers = 3
    for n, triples in boundary_instances(rng, n_layers):
        net = network_from_triples(triples, n, n_layers)
        support = oracles.dyad_support(triples)
        base = oracles.all_pairs_by_bfs(n, list(support))
        want_dist = np.array([[INFINITE if d == oracles.INF else d for d in row]
                              for row in base], dtype=np.uint16).reshape(n, n)
        np.testing.assert_array_equal(all_pairs_distances(net.composite()), want_dist)
        want = oracles.torque_by_recount(n, triples, n_layers)
        if want[0][1] == 0:
            with pytest.raises(UndefinedStatisticError):
                torque_all_layers(net)
            with pytest.raises(UndefinedStatisticError):
                network_torque(net, 0)
            continue
        report = torque_all_layers(net)
        assert report.connected_pairs == want[0][1]
        assert report.critical_pairs == tuple(crit for crit, _ in want)
        connected = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if base[i][j] < oracles.INF]
        sample = rng.choice(len(connected), size=min(15, len(connected)), replace=False)
        for layer in range(n_layers):
            crit, conn = want[layer]
            assert network_torque(net, layer) == crit / conn
            removed = oracles.all_pairs_by_bfs(
                n, [d for d, sup in support.items() if sup - {layer}])
            for s in sample:
                i, j = connected[s]
                assert criticality(net, layer, i, j) == int(removed[i][j] > base[i][j])
