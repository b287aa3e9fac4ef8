"""Synthetic village generation, cascade diffusion, and the full loop."""

import math

import numpy as np
import pytest

from torquenet import (ChainLayerSpec, ConfigError, DiffusionConfig,
                       ExperimentConfig, FriendLayerSpec, PathwayConfig,
                       VillageGenConfig, assign_intervention, build_frame,
                       build_villages, counterfactual_reduction, draw_treated,
                       end_to_end_experiment, exposure_table, fit_frame,
                       generate_village, simulate_diffusion,
                       torque_guided_treated)
import oracles
from helpers import triples_of
from torquenet.layers import KIN_LAYER_NAMES
from torquenet.simulate import _cascade, _rng


def _small_cfg():
    return VillageGenConfig(
        friend_layers={"closest_friend": FriendLayerSpec(2, 0.2)},
        chain_layers={"borrow_money": ChainLayerSpec(0.5, 1)},
    )


def test_registry_follows_canonical_order():
    reg = _small_cfg().registry()
    assert reg.names == ("parent", "sibling", "partner", "closest_friend",
                        "borrow_money")
    with pytest.raises(ConfigError):
        VillageGenConfig(friend_layers={"mystery": FriendLayerSpec()}).registry()


def test_generation_is_reproducible():
    cfg = _small_cfg()
    net1, panel1 = generate_village(cfg, seed=4, n=50)
    net2, panel2 = generate_village(cfg, seed=4, n=50)
    assert triples_of(net1) == triples_of(net2)
    assert np.array_equal(panel1.household, panel2.household)
    assert np.array_equal(panel1.age, panel2.age)
    net3, _ = generate_village(cfg, seed=5, n=50)
    assert triples_of(net1) != triples_of(net3)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError):
        generate_village(_small_cfg(), seed=-1, n=30)


def test_household_kin_structure():
    cfg = VillageGenConfig(friend_layers={}, chain_layers={})
    net, panel = generate_village(cfg, seed=8, n=60)
    reg = net.registry
    assert reg.names == KIN_LAYER_NAMES
    households = panel.household
    by_layer = {name: set() for name in reg.names}
    for ego, alter, layer in triples_of(net):
        by_layer[reg.name_of(layer)].add((ego, alter))
        # kin never crosses household boundaries
        assert households[ego] == households[alter]
    for ego, alter in by_layer["partner"]:
        assert (alter, ego) in by_layer["partner"]
    for ego, alter in by_layer["sibling"]:
        assert (alter, ego) in by_layer["sibling"]
    # children nominate exactly two parents
    children = {}
    for ego, alter in by_layer["parent"]:
        children.setdefault(ego, set()).add(alter)
    for ego, parents in children.items():
        assert len(parents) == 2
        assert all((p, q) in by_layer["partner"]
                   for p in parents for q in parents if p != q)


def test_closest_friend_avoids_kin():
    cfg = VillageGenConfig(
        friend_layers={"closest_friend": FriendLayerSpec(3, 0.3),
                       "free_time": FriendLayerSpec(3, 0.3)},
        chain_layers={})
    net, panel = generate_village(cfg, seed=9, n=80)
    reg = net.registry
    cf = reg.id_of("closest_friend")
    ft = reg.id_of("free_time")
    # closest-friend nominations never land inside a household
    for ego, alter, layer in triples_of(net):
        if layer == cf:
            assert panel.household[ego] != panel.household[alter]
    # the restriction is specific to closest_friend, so at this volume the
    # unrestricted twin layer should hit at least one within-household pair
    same_hh = sum(1 for ego, alter, layer in triples_of(net)
                  if layer == ft and panel.household[ego] == panel.household[alter])
    assert same_hh > 0


def test_friend_chain_volume():
    cfg = _small_cfg()
    net, _ = generate_village(cfg, seed=10, n=100)
    counts = net.layer_nomination_counts()
    reg = net.registry
    cf = counts[reg.id_of("closest_friend")]
    bm = counts[reg.id_of("borrow_money")]
    # out-degree 2 per ego, minus occasional redraw losses
    assert 150 <= cf <= 200
    # half the egos participate with one nomination each
    assert 25 <= bm <= 75


def test_sociability_counts_dyad_layer_incidences():
    net, panel = generate_village(_small_cfg(), seed=11, n=40)
    want = np.zeros(40)
    for (u, v), sup in oracles.dyad_support(triples_of(net)).items():
        want[u] += len(sup)
        want[v] += len(sup)
    assert np.array_equal(panel.sociability, want)


def test_draw_treated_whole_households():
    rng = _rng(3, 9)
    household = np.repeat(np.arange(12), 4)
    treated = draw_treated(household, 0.25, rng)
    assert treated.sum() >= 12
    for hh in np.unique(household):
        members = treated[household == hh]
        assert members.all() or not members.any()
    assert not draw_treated(household, 0.0, rng).any()
    assert draw_treated(household, 1.0, rng).all()
    with pytest.raises(ConfigError):
        draw_treated(household, 1.5, rng)


def test_torque_guided_targets_high_torque_households():
    net, panel = generate_village(_small_cfg(), seed=12, n=60)
    treated = torque_guided_treated(net, panel.household, 0.2, _rng(12, 9))
    assert treated.sum() >= 12
    for hh in np.unique(panel.household):
        members = treated[panel.household == hh]
        assert members.all() or not members.any()


def test_cascade_follows_reverse_nominations():
    from helpers import network_from_triples

    net = network_from_triples([(0, 1, 0)], 2, 1)
    probs = np.array([1.0])
    # the alter informs whoever nominated it, never the other way
    out = _cascade(net, np.array([False, True]), probs, 5, _rng(0, 7))
    assert list(out) == [True, True]
    out = _cascade(net, np.array([True, False]), probs, 5, _rng(0, 7))
    assert list(out) == [True, False]


def test_cascade_probability_extremes():
    from helpers import network_from_triples

    chain = [(i, i + 1, 0) for i in range(5)]
    net = network_from_triples(chain, 6, 1)
    seed_last = np.zeros(6, dtype=bool)
    seed_last[5] = True
    sure = _cascade(net, seed_last, np.array([1.0]), 5, _rng(1, 7))
    assert sure.all()
    still = _cascade(net, seed_last, np.array([0.0]), 5, _rng(1, 7))
    assert list(still) == list(seed_last)
    # rounds cap limits the reach
    short = _cascade(net, seed_last, np.array([1.0]), 2, _rng(1, 7))
    assert list(short) == [False, False, False, True, True, True]


def test_cascade_matches_scalar_loop():
    from helpers import network_from_triples, random_triples

    rng = np.random.default_rng(21)
    for case in range(40):
        n = int(rng.integers(2, 30))
        n_layers = int(rng.integers(1, 5))
        triples = random_triples(rng, n, n_layers, density=float(rng.uniform(0.02, 0.3)))
        # one ego naming the same alter on several layers, listed twice
        if n > 2:
            triples += [(0, 1, layer) for layer in range(n_layers)] * 2
        net = network_from_triples(triples, n, n_layers)
        probs = rng.choice([0.0, 0.3, 0.7, 1.0], size=n_layers)
        if case % 4 == 0:
            probs[0] = 0.0
        knows0 = rng.random(n) < 0.15
        for rounds in (0, 1, 2, 6):
            seed = int(rng.integers(1 << 30))
            got = _cascade(net, knows0, probs, rounds, np.random.default_rng(seed))
            want_rng = np.random.default_rng(seed)
            want = oracles.cascade_by_loop(n, triples, n_layers, knows0, probs,
                                           rounds, want_rng)
            assert got.tolist() == want
            # the same draws in the same order: the streams end in step
            ahead = np.random.default_rng(seed)
            _cascade(net, knows0, probs, rounds, ahead)
            assert ahead.random() == want_rng.random()


def test_simulate_diffusion_fills_waves():
    cfg = _small_cfg()
    net, panel = generate_village(cfg, seed=13, n=50)
    panel = assign_intervention(panel, 0.3, seed=13)
    assert math.isnan(float(np.asarray(panel.k_w1["topic"])[0]))
    dcfg = DiffusionConfig(layer_probs={"closest_friend": 0.6},
                           baseline_rate=0.1)
    done = simulate_diffusion(net, panel, dcfg, "topic", seed=13)
    k1 = np.asarray(done.k_w1["topic"])
    k3 = np.asarray(done.k_w3["topic"])
    assert np.isfinite(k1).all() and np.isfinite(k3).all()
    # knowledge is absorbing without forgetting
    assert (k3[k1 == 1] == 1).all()
    again = simulate_diffusion(net, panel, dcfg, "topic", seed=13)
    assert np.array_equal(k3, np.asarray(again.k_w3["topic"]))


def test_forgetting_only_touches_the_knowledgeable():
    cfg = _small_cfg()
    net, panel = generate_village(cfg, seed=14, n=80)
    panel = assign_intervention(panel, 0.4, seed=14)
    base = simulate_diffusion(
        net, panel, DiffusionConfig(layer_probs={"closest_friend": 0.8}),
        "topic", seed=14)
    faded = simulate_diffusion(
        net, panel,
        DiffusionConfig(layer_probs={"closest_friend": 0.8}, forget=0.5),
        "topic", seed=14)
    k3_base = np.asarray(base.k_w3["topic"])
    k3_faded = np.asarray(faded.k_w3["topic"])
    assert (k3_faded <= k3_base).all()
    assert k3_faded.sum() < k3_base.sum()


def test_unknown_diffusion_layer_rejected():
    net, panel = generate_village(_small_cfg(), seed=15, n=30)
    panel = assign_intervention(panel, 0.2, seed=15)
    with pytest.raises(ConfigError):
        simulate_diffusion(net, panel,
                           DiffusionConfig(layer_probs={"rumor_mill": 0.5}),
                           "topic", seed=15)
    with pytest.raises(ConfigError):
        DiffusionConfig(layer_probs={"closest_friend": 1.5})


def test_build_villages_thread_invariant():
    config = ExperimentConfig(
        n_villages=6, village_size=(20, 30), gen=_small_cfg(),
        diffusion={"topic": DiffusionConfig(
            layer_probs={"closest_friend": 0.5})},
        bootstrap_reps=0)
    nets1, panels1 = build_villages(config, seed=5, threads=1)
    nets4, panels4 = build_villages(config, seed=5, threads=4)
    assert sorted(nets1) == sorted(nets4)
    for key in nets1:
        assert triples_of(nets1[key]) == triples_of(nets4[key])
        assert np.array_equal(np.asarray(panels1[key].k_w3["topic"]),
                              np.asarray(panels4[key].k_w3["topic"]))


def test_end_to_end_experiment_shape():
    config = ExperimentConfig(
        n_villages=5, village_size=(25, 35), gen=_small_cfg(),
        diffusion={"topic": DiffusionConfig(
            layer_probs={"closest_friend": 0.5}, forget=0.05)},
        fraction=0.3, bootstrap_reps=0)
    result = end_to_end_experiment(config, seed=6)
    layers = [o.layer for o in result.outcomes]
    assert layers == ["parent", "sibling", "partner", "closest_friend",
                      "borrow_money"]
    flags = {o.layer: o.transmitting for o in result.outcomes}
    assert flags["closest_friend"]
    assert not flags["borrow_money"]
    for o in result.outcomes:
        assert math.isfinite(o.reduction)
        assert math.isnan(o.ci_low) and math.isnan(o.ci_high)
        assert o.n_failed == 0
        assert o.mean_torque >= 0.0
    assert "topic" in result.slopes
    assert result.for_topic("topic") == list(result.outcomes)


def test_experiment_reports_failed_bootstrap_replicates():
    config = ExperimentConfig(
        n_villages=5, village_size=(25, 35), gen=_small_cfg(),
        diffusion={"topic": DiffusionConfig(
            layer_probs={"closest_friend": 0.5}, forget=0.05)},
        fraction=0.3, bootstrap_reps=1000)
    result = end_to_end_experiment(config, seed=6)
    # the same fit and bootstrap for closest_friend, assembled by hand
    nets, panels = build_villages(config, seed=6)
    layer = _small_cfg().registry().id_of("closest_friend")
    cols = {name: {} for name in ("xi_layer", "xi_rest", "k_alters", "treated")}
    for key in panels:
        (_, rec), = exposure_table(nets[key], panels[key],
                                   PathwayConfig(layer, 2), "topic")
        for name in ("xi_layer", "xi_rest", "k_alters"):
            cols[name][key] = rec[name]
        cols["treated"][key] = panels[key].treated["topic"]
    model = fit_frame(build_frame(panels, "topic", cols), "topic")
    est = counterfactual_reduction(model, "closest_friend", 2, seed=6)
    assert est.n_failed > 0
    out, = [o for o in result.outcomes if o.layer == "closest_friend"]
    assert (out.n_failed, out.ci_low, out.ci_high) == \
        (est.n_failed, est.ci_low, est.ci_high)
    assert all(0 <= o.n_failed < 1000 for o in result.outcomes)


def test_default_scenario_is_estimable():
    # absorbing knowledge without forgetting makes every wave-1 knower a
    # wave-3 knower, which separates k_w1; a topic without its own
    # DiffusionConfig therefore gets the scenario files' forgetting
    assert ExperimentConfig().diffusion["topic"].forget == 0.05
    assert DiffusionConfig().forget == 0.0
    for seed in (0, 1, 4):
        result = end_to_end_experiment(ExperimentConfig(bootstrap_reps=0), seed=seed)
        assert all(math.isfinite(o.reduction) for o in result.outcomes)


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_villages=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(village_size=(2, 10))
    with pytest.raises(ConfigError):
        ExperimentConfig(strategy="viral")
