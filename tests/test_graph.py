"""Collapsed nomination arrays, layer removal, and composite projection."""

import numpy as np
import pytest

import oracles
from helpers import (generic_registry, network_from_triples, random_triples,
                     triples_of)
from torquenet import (IngestError, LayerRegistry, SimpleGraph,
                       UnknownLayerError, build_network, criticality)


def test_simple_graph_normalizes_edges():
    g = SimpleGraph(4, [(1, 0), (0, 1), (2, 3), (3, 3)])
    assert g.edges == ((0, 1), (2, 3))
    assert [g.neighbors(u) for u in range(4)] == [(1,), (0,), (3,), (2,)]


def test_connected_components_labels():
    g = SimpleGraph(5, [(0, 1), (1, 2), (3, 4)])
    labels = g.connected_components()
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4]
    assert labels[0] != labels[3]


def test_direction_kept_per_nomination():
    net = network_from_triples([(2, 1, 0), (0, 1, 0)], 3, 1)
    # nominations keep their direction; dyad_layers forgets it (u < v)
    assert triples_of(net) == [(0, 1, 0), (2, 1, 0)]
    assert [a.tolist() for a in net.dyad_layers()] == [[0, 1], [1, 2], [0, 0]]
    both = network_from_triples([(1, 0, 0), (0, 1, 0)], 2, 1)
    assert triples_of(both) == [(0, 1, 0), (1, 0, 0)]
    assert [a.tolist() for a in both.dyad_layers()] == [[0], [1], [0]]


def test_duplicate_nominations_collapse():
    net = network_from_triples([(0, 1, 0), (0, 1, 0), (0, 1, 0)], 2, 1)
    assert net.nomination_count == 1
    assert net.dyad_count() == 1
    assert triples_of(net) == [(0, 1, 0)]


def test_self_nomination_rejected_with_row_number():
    # in-memory rows are indexed from zero
    with pytest.raises(IngestError, match="line 1") as err:
        build_network([0, 2, 1], [1, 2, 0], [0, 0, 0], 3, generic_registry(1))
    assert err.value.line == 1


def test_out_of_range_node_rejected():
    with pytest.raises(IngestError) as err:
        build_network([0, 1, 0], [1, 0, 5], [0, 0, 0], 3, generic_registry(1))
    assert err.value.line == 2
    with pytest.raises(IngestError, match="line 0"):
        build_network([-1], [0], [0], 3, generic_registry(1))


def test_unknown_layer_rejected():
    with pytest.raises(UnknownLayerError) as err:
        build_network([0, 0], [1, 2], [1, 7], 3, generic_registry(2))
    assert err.value.line == 1
    # the first offending row decides the error, whatever its kind
    with pytest.raises(UnknownLayerError):
        build_network([0, 1], [1, 1], [-1, 0], 3, generic_registry(2))
    with pytest.raises(IngestError):
        build_network([0, 1], [1, 1], [0, 7], 3, generic_registry(2))


def test_nomination_arrays_must_align():
    with pytest.raises(IngestError):
        build_network([0, 1], [1], [0, 0], 3, generic_registry(1))


def test_layer_removal_respects_remaining_support():
    # dyad 0-1 is doubly supported, 1-2 only by layer 0, 2-3 only by layer 1
    net = network_from_triples(
        [(0, 1, 0), (1, 2, 0), (0, 1, 1), (2, 3, 1)], 4, 2)
    assert net.composite().edges == ((0, 1), (1, 2), (2, 3))
    # removing a layer cuts only the dyads it alone supports
    assert [criticality(net, 0, i, j) for i, j in net.composite().edges] == [0, 1, 0]
    assert [criticality(net, 1, i, j) for i, j in net.composite().edges] == [0, 0, 1]


def test_layer_subgraph_keeps_only_that_layer():
    net = network_from_triples(
        [(0, 1, 0), (1, 2, 0), (0, 1, 1), (2, 3, 1)], 4, 2)
    assert net.layer_subgraph(0).edges == ((0, 1), (1, 2))
    assert net.layer_subgraph(1).edges == ((0, 1), (2, 3))


def test_nominations_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        n_layers = int(rng.integers(1, 4))
        triples = random_triples(rng, n, n_layers)
        # shuffled and doubled input collapses to the sorted distinct set
        doubled = triples + triples[::2]
        order = rng.permutation(len(doubled))
        net = network_from_triples([doubled[i] for i in order], n, n_layers)
        assert triples_of(net) == sorted(set(triples))
        assert net.nomination_count == len(set(triples))
        assert all(a.dtype == np.int64 for a in (net.ego, net.alter, net.layer))


def test_dyad_layers_match_support_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        n_layers = int(rng.integers(1, 5))
        triples = random_triples(rng, n, n_layers)
        net = network_from_triples(triples, n, n_layers)
        support = oracles.dyad_support(triples)
        want = sorted((u, v, layer) for (u, v), sup in support.items() for layer in sup)
        assert list(zip(*(a.tolist() for a in net.dyad_layers()))) == want
        assert net.dyad_count() == len(support)
        assert list(net.layer_dyad_counts()) == [
            sum(layer in sup for sup in support.values()) for layer in range(n_layers)]
        assert list(net.layer_nomination_counts()) == [
            sum(t[2] == layer for t in triples) for layer in range(n_layers)]


def test_dyad_layers_computed_once_and_read_only():
    net = network_from_triples([(0, 1, 0), (1, 0, 1), (2, 1, 0)], 3, 2)
    first, second = net.dyad_layers(), net.dyad_layers()
    assert all(a is b for a, b in zip(first, second))
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 2
    assert [a.tolist() for a in second] == [[0, 0, 1], [1, 1, 2], [0, 1, 0]]


def test_layer_counts():
    net = network_from_triples(
        [(0, 1, 0), (1, 0, 0), (1, 2, 0), (0, 1, 1)], 3, 2)
    assert list(net.layer_nomination_counts()) == [3, 1]
    assert list(net.layer_dyad_counts()) == [2, 1]


def test_composite_matches_dyad_support_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        n_layers = int(rng.integers(1, 5))
        triples = random_triples(rng, n, n_layers)
        net = network_from_triples(triples, n, n_layers)
        support = oracles.dyad_support(triples)
        assert set(net.composite().edges) == set(support)
        for layer in range(n_layers):
            carried = {d for d, sup in support.items() if layer in sup}
            assert set(net.layer_subgraph(layer).edges) == carried


def test_empty_registry_allowed():
    reg = LayerRegistry(())
    assert len(reg) == 0
    net = build_network([], [], [], 3, reg)
    assert net.composite().edges == ()
    assert net.nomination_count == net.dyad_count() == 0
    assert list(net.layer_nomination_counts()) == list(net.layer_dyad_counts()) == []
