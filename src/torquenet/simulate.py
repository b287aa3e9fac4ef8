"""Synthetic villages with ground-truth diffusion for end-to-end validation.

The generator builds a household-structured population: kin layers come
from household blocks (children nominate parents, sibling cliques, mutual
partner nominations), friendship layers from a shared ring lattice with
random rewiring (small-world), and support/advice layers from sequential
preferential chains. Closest-friend nominations never land on a kin dyad.

Diffusion is an independent cascade: in each synchronous round, every node
that just became knowledgeable tries once to inform each ego that
nominated it, with a per-layer probability. Knowledge is absorbing.
Ground truth (which layers transmit) is known by construction, so the
whole exposure-plus-estimation pipeline can be validated against it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.special import stdtr

from .contagion import (build_frame, counterfactual_reduction, fit_frame,
                        reduction_point)
from .errors import ConfigError, DataError
from .graph import MultiplexNetwork, build_network
from .layers import CANONICAL_LAYER_NAMES, KIN_LAYER_NAMES, LayerRegistry
from .panel import VillagePanel
from .pathways import (EXPOSURE_FIELDS, Direction, Mode, PathwayAnalyzer,
                       PathwayConfig, exposure_table)
from .torque import torque_all_layers

# Seed-stream tags: every random draw comes from a generator keyed by
# (seed, stream, village index, substream), so results do not depend on
# scheduling or thread count.
_S_SIZE = 0
_S_GEN = 1
_S_TREAT = 2
_S_BASELINE = 3
_S_DIFFUSE = 4


def _rng(seed: int, stream: int, index: int = 0, sub: int = 0) -> np.random.Generator:
    if seed < 0:
        raise ConfigError("seeds must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence((seed, stream, index, sub)))


@dataclass(frozen=True)
class FriendLayerSpec:
    """Ring-lattice nominations: out_degree nearest neighbors, rewired."""

    out_degree: int = 3
    rewire: float = 0.15


@dataclass(frozen=True)
class ChainLayerSpec:
    """Sequential preferential nominations (hub-forming)."""

    participation: float = 0.6
    nominations: int = 1


@dataclass(frozen=True)
class VillageGenConfig:
    """Generator parameters; layers absent from the specs are not emitted."""

    household_mean: float = 2.5
    household_sd: float = 1.4
    friend_layers: Mapping[str, FriendLayerSpec] = field(default_factory=lambda: {
        "personal_private": FriendLayerSpec(3, 0.10),
        "free_time": FriendLayerSpec(3, 0.10),
        "closest_friend": FriendLayerSpec(2, 0.30),
    })
    chain_layers: Mapping[str, ChainLayerSpec] = field(default_factory=lambda: {
        "patron": ChainLayerSpec(0.35, 1),
        "borrow_money": ChainLayerSpec(0.55, 1),
        "lend_money": ChainLayerSpec(0.55, 1),
        "health_advice_give": ChainLayerSpec(0.70, 1),
        "health_advice_get": ChainLayerSpec(0.70, 1),
    })

    def registry(self) -> LayerRegistry:
        """Canonical-order registry restricted to the configured layers."""
        wanted = set(KIN_LAYER_NAMES) | set(self.friend_layers) | set(self.chain_layers)
        unknown = wanted - set(CANONICAL_LAYER_NAMES)
        if unknown:
            raise ConfigError(f"unrecognized generator layers: {sorted(unknown)}")
        return LayerRegistry(tuple(
            name for name in CANONICAL_LAYER_NAMES if name in wanted))


def _draw_household_sizes(n: int, mean: float, sd: float,
                          rng: np.random.Generator) -> list[int]:
    sizes: list[int] = []
    total = 0
    while total < n:
        s = max(1, int(round(rng.normal(mean, sd))))
        s = min(s, n - total)
        sizes.append(s)
        total += s
    return sizes


def _generate_village_rng(cfg: VillageGenConfig, rng: np.random.Generator, *,
                          n: int, name: str) -> tuple[MultiplexNetwork, VillagePanel]:
    if n < 3:
        raise ConfigError("villages need at least 3 individuals")
    for lname, spec in cfg.friend_layers.items():
        if spec.out_degree >= n:
            raise ConfigError(
                f"friend layer {lname}: out_degree {spec.out_degree} >= village size {n}")
    registry = cfg.registry()
    sizes = _draw_household_sizes(n, cfg.household_mean, cfg.household_sd, rng)

    household = np.zeros(n, dtype=np.int64)
    is_adult = np.zeros(n, dtype=bool)
    kin_pairs: set[tuple[int, int]] = set()
    egos: list[int] = []
    alters: list[int] = []
    layers: list[int] = []

    def nominate(ego: int, alter: int, layer_name: str) -> None:
        egos.append(ego)
        alters.append(alter)
        layers.append(registry.id_of(layer_name))

    # -- kin layers from household blocks -----------------------------
    start = 0
    for hh, size in enumerate(sizes):
        members = list(range(start, start + size))
        start += size
        household[members] = hh
        if size == 1:
            is_adult[members[0]] = True
            continue
        a, b = members[0], members[1]
        is_adult[a] = is_adult[b] = True
        children = members[2:]
        if "partner" in registry:
            nominate(a, b, "partner")
            nominate(b, a, "partner")
        if "parent" in registry:
            for c in children:
                nominate(c, a, "parent")
                nominate(c, b, "parent")
        if "sibling" in registry:
            for i, c in enumerate(children):
                for d in children[i + 1:]:
                    nominate(c, d, "sibling")
                    nominate(d, c, "sibling")
        for x in members:
            for y in members:
                if x < y:
                    kin_pairs.add((x, y))

    # -- friendship layers on a shared social ring --------------------
    ring = rng.permutation(n)
    pos = np.empty(n, dtype=np.int64)
    pos[ring] = np.arange(n)
    for lname in registry:
        spec = cfg.friend_layers.get(lname)
        if spec is None:
            continue
        exclude_kin = lname == "closest_friend"
        for ego in range(n):
            p = pos[ego]
            for step in range(1, spec.out_degree + 1):
                off = (step + 1) // 2 * (1 if step % 2 else -1)
                alter = int(ring[(p + off) % n])
                if rng.random() < spec.rewire:
                    alter = int(rng.integers(n - 1))
                    alter = alter if alter < ego else alter + 1
                if alter == ego:
                    continue
                if exclude_kin:
                    tries = 0
                    while (min(ego, alter), max(ego, alter)) in kin_pairs and tries < 20:
                        alter = int(rng.integers(n - 1))
                        alter = alter if alter < ego else alter + 1
                        tries += 1
                    if (min(ego, alter), max(ego, alter)) in kin_pairs:
                        continue
                nominate(ego, alter, lname)

    # -- support / advice chains with preferential attachment ---------
    for lname in registry:
        spec = cfg.chain_layers.get(lname)
        if spec is None:
            continue
        indeg = np.ones(n)
        for ego in rng.permutation(n):
            if rng.random() >= spec.participation:
                continue
            for _ in range(spec.nominations):
                weights = indeg.copy()
                weights[ego] = 0.0
                weights /= weights.sum()
                alter = int(rng.choice(n, p=weights))
                nominate(int(ego), alter, lname)
                indeg[alter] += 1.0

    net = build_network(egos, alters, layers, n, registry)

    # -- covariates ---------------------------------------------------
    u, v, _ = net.dyad_layers()
    incidences = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    age = np.where(is_adult,
                   np.clip(rng.normal(38, 9, n), 18, 85),
                   np.clip(rng.normal(13, 4, n), 2, 17)).round(1)
    hh_income = rng.integers(1, 5, size=len(sizes))
    panel = VillagePanel(
        village=name,
        nodes=tuple(f"{name}_{i:04d}" for i in range(n)),
        household=household,
        sociability=incidences.astype(float),
        age=age,
        gender=rng.integers(0, 2, n).astype(float),
        education=np.clip(rng.poisson(6, n), 0, 18).astype(float),
        income=hh_income[household].astype(float),
        self_health=rng.integers(1, 6, n).astype(float),
    )
    return net, panel


def generate_village(cfg: VillageGenConfig, seed: int, *, n: int,
                     name: str = "v000") -> tuple[MultiplexNetwork, VillagePanel]:
    """One reproducible synthetic village of exactly n individuals."""
    return _generate_village_rng(cfg, _rng(seed, _S_GEN, 0), n=n, name=name)


# -- intervention ----------------------------------------------------


def _treat_households(household: np.ndarray, fraction: float,
                      household_order: Callable[[], np.ndarray]) -> np.ndarray:
    """Whole households in household_order() until the treated individual
    share meets or exceeds the target fraction. household_order is called
    (and so draws from its generator) only when someone is to be treated."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("intervention fraction must be in [0, 1]")
    n = len(household)
    treated = np.zeros(n, dtype=bool)
    if fraction == 0.0 or n == 0:
        return treated
    target = fraction * n
    count = 0
    for hh in household_order():
        if count >= target - 1e-9:
            break
        members = household == hh
        treated[members] = True
        count += int(members.sum())
    return treated


def draw_treated(household: np.ndarray, fraction: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Whole households uniformly without replacement until the treated
    individual share meets or exceeds the target fraction."""
    return _treat_households(household, fraction,
                             lambda: rng.permutation(np.unique(household)))


def torque_guided_treated(net: MultiplexNetwork, household: np.ndarray,
                          fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Optional targeting strategy: prefer households incident to the
    highest-torque layer's single-support dyads; random tiebreak."""

    def order() -> np.ndarray:
        report = torque_all_layers(net)
        top_layer = int(np.argmax(report.torque))
        u, v, lay = net.dyad_layers()
        _, dyad, support = np.unique(u * net.n + v, return_inverse=True,
                                     return_counts=True)
        alone = (lay == top_layer) & (support[dyad] == 1)
        incident = (np.bincount(u[alone], minlength=len(household))
                    + np.bincount(v[alone], minlength=len(household)))
        hh_ids = np.unique(household)
        hh_score = np.array([incident[household == hh].sum() for hh in hh_ids])
        jitter = rng.random(len(hh_ids))
        return hh_ids[np.lexsort((jitter, -hh_score))]

    return _treat_households(household, fraction, order)


def assign_intervention(panel: VillagePanel, fraction: float, seed: int,
                        topic: str = "topic") -> VillagePanel:
    """Panel with household-level treatment flags for one topic; knowledge
    columns stay missing until diffusion fills them."""
    treated = draw_treated(panel.household, fraction, _rng(seed, _S_TREAT))
    nan = np.full(panel.n, np.nan)
    return panel.with_topic(topic, treated.astype(np.int8), nan.copy(), nan.copy())


# -- diffusion -------------------------------------------------------


# Per-wave forgetting for scenarios that do not set one. With absorbing
# knowledge and no forgetting every wave-1 knower is a wave-3 knower, which
# separates k_w1 perfectly in the adoption model.
SCENARIO_FORGET = 0.05


@dataclass(frozen=True)
class DiffusionConfig:
    """Independent-cascade parameters for one topic."""

    layer_probs: Mapping[str, float] = field(default_factory=dict)
    rounds: int = 6
    baseline_rate: float = 0.2
    uptake: float = 0.95
    forget: float = 0.0

    def __post_init__(self):
        for name, p in self.layer_probs.items():
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"transmission probability for {name} not in [0,1]")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        for fld in ("baseline_rate", "uptake", "forget"):
            v = getattr(self, fld)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{fld} must be in [0, 1]")


def _layer_prob_vector(net: MultiplexNetwork, dcfg: DiffusionConfig) -> np.ndarray:
    unknown = set(dcfg.layer_probs) - set(net.registry.names)
    if unknown:
        raise ConfigError(
            f"diffusion probabilities for unregistered layers: {sorted(unknown)}")
    return np.array([dcfg.layer_probs.get(name, 0.0) for name in net.registry.names])


def _cascade(net: MultiplexNetwork, knows0: np.ndarray, probs: np.ndarray,
             rounds: int, rng: np.random.Generator) -> np.ndarray:
    """Absorbing cascade: a newly knowledgeable node tries once to inform
    each ego that nominated it, per supporting layer.

    Each round draws one uniform per arc whose alter joined in the last
    round, whose layer transmits and whose ego does not know yet, in
    (alter, layer, ego) order.
    """
    order = np.lexsort((net.ego, net.layer, net.alter))
    ego, alter, p = net.ego[order], net.alter[order], probs[net.layer[order]]
    knows = np.array(knows0, dtype=bool)
    frontier = knows.copy()
    for _ in range(rounds):
        live = frontier[alter] & (p > 0.0) & ~knows[ego]
        hit = ego[live][rng.random(int(np.count_nonzero(live))) < p[live]]
        if not len(hit):
            break
        frontier[:] = False
        frontier[hit] = True
        knows |= frontier
    return knows


def _diffuse_topic(net: MultiplexNetwork, treated: np.ndarray, k1: np.ndarray,
                   dcfg: DiffusionConfig, rng: np.random.Generator) -> np.ndarray:
    probs = _layer_prob_vector(net, dcfg)
    seeds0 = (k1 == 1) | (treated & (rng.random(net.n) < dcfg.uptake))
    knows = _cascade(net, seeds0, probs, dcfg.rounds, rng)
    k3 = knows.astype(float)
    if dcfg.forget > 0:
        keep = rng.random(net.n) >= dcfg.forget
        k3 = np.where(knows & ~keep, 0.0, k3)
    return k3


def simulate_diffusion(net: MultiplexNetwork, panel: VillagePanel,
                       dcfg: DiffusionConfig, topic: str, seed: int) -> VillagePanel:
    """Fill one topic's wave-1 and wave-3 knowledge by simulation.

    Treatment flags must already be assigned. Wave-1 knowledge is drawn
    iid at the baseline rate where missing; wave 3 is the cascade result,
    with optional measurement-time forgetting.
    """
    panel.check_topic(topic)
    if net.n != panel.n:
        raise DataError("panel and network disagree on village size")
    treated = panel.intervened(topic)
    k1 = np.asarray(panel.k_w1[topic], dtype=float).copy()
    missing = ~np.isfinite(k1)
    if missing.any():
        rng_base = _rng(seed, _S_BASELINE)
        k1[missing] = (rng_base.random(int(missing.sum()))
                       < dcfg.baseline_rate).astype(float)
    k3 = _diffuse_topic(net, treated, k1, dcfg, _rng(seed, _S_DIFFUSE))
    return panel.with_topic(topic, treated.astype(np.int8), k1, k3)


# -- end-to-end experiment -------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Full scenario: generation, intervention, diffusion, estimation."""

    n_villages: int = 30
    village_size: tuple[int, int] = (50, 90)
    gen: VillageGenConfig = field(default_factory=VillageGenConfig)
    topics: tuple[str, ...] = ("topic",)
    diffusion: Mapping[str, DiffusionConfig] = field(default_factory=dict)
    fraction: float = 0.2
    strategy: str = "random"
    k: int = 2
    mode: Mode = Mode.SECONDARY
    direction: Direction = Direction.DIRECTED
    bootstrap_reps: int = 1000
    ci_level: float = 0.95

    def __post_init__(self):
        if self.n_villages < 1:
            raise ConfigError("need at least one village")
        lo, hi = self.village_size
        if not 3 <= lo <= hi:
            raise ConfigError("village size range must satisfy 3 <= lo <= hi")
        if self.strategy not in ("random", "torque"):
            raise ConfigError("intervention strategy must be 'random' or 'torque'")
        missing = {t: DiffusionConfig(forget=SCENARIO_FORGET)
                   for t in self.topics if t not in self.diffusion}
        if missing:
            object.__setattr__(self, "diffusion", {**self.diffusion, **missing})


@dataclass(frozen=True)
class LayerOutcome:
    """Per-layer row of the experiment table."""

    topic: str
    layer: str
    mean_torque: float
    transmitting: bool
    reduction: float
    ci_low: float
    ci_high: float
    n_failed: int  # bootstrap replicates that failed to fit; 0 without bootstrap


@dataclass(frozen=True)
class ExperimentResult:
    outcomes: tuple[LayerOutcome, ...]
    slopes: Mapping[str, tuple[float, float]]  # topic -> (OLS slope, p-value)
    seed: int
    n_villages: int

    def for_topic(self, topic: str) -> list[LayerOutcome]:
        return [o for o in self.outcomes if o.topic == topic]


def build_villages(config: ExperimentConfig, seed: int, threads: int = 1,
                   ) -> tuple[dict[str, MultiplexNetwork], dict[str, VillagePanel]]:
    """Generate, treat, and diffuse every village of the scenario."""

    def one(i: int):
        name = f"v{i:03d}"
        lo, hi = config.village_size
        size = int(_rng(seed, _S_SIZE, i).integers(lo, hi + 1))
        net, panel = _generate_village_rng(config.gen, _rng(seed, _S_GEN, i),
                                           n=size, name=name)
        rng_t = _rng(seed, _S_TREAT, i)
        if config.strategy == "torque":
            treated = torque_guided_treated(net, panel.household,
                                            config.fraction, rng_t)
        else:
            treated = draw_treated(panel.household, config.fraction, rng_t)
        for t_idx, topic in enumerate(config.topics):
            dcfg = config.diffusion[topic]
            k1 = (_rng(seed, _S_BASELINE, i, t_idx).random(net.n)
                  < dcfg.baseline_rate).astype(float)
            k3 = _diffuse_topic(net, treated, k1, dcfg,
                                _rng(seed, _S_DIFFUSE, i, t_idx))
            panel = panel.with_topic(topic, treated.astype(np.int8), k1, k3)
        return name, net, panel

    indices = range(config.n_villages)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, indices))
    else:
        rows = [one(i) for i in indices]
    nets = {name: net for name, net, _ in rows}
    panels = {name: panel for name, _, panel in rows}
    return nets, panels


def _ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(Least-squares slope of y on x, two-sided t-test p-value of the slope).

    Needs at least 3 points; constant x gives (nan, nan) where
    scipy.stats.linregress raises. Otherwise the arithmetic is linregress's,
    so results agree bit for bit.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    df = len(x) - 2
    t = r * np.sqrt(df / ((1.0 - r + 1e-20) * (1.0 + r + 1e-20)))
    return float(ssxym / ssxm), float(2.0 * stdtr(df, -abs(t)))


def end_to_end_experiment(config: ExperimentConfig, seed: int = 0,
                          threads: int = 1) -> ExperimentResult:
    """Generator -> intervention -> diffusion -> exposure -> fit ->
    counterfactual reduction for every layer, plus the reduction-vs-torque
    regression across layers."""
    nets, panels = build_villages(config, seed, threads)
    keys = sorted(nets)
    registry = nets[keys[0]].registry
    layer_names = registry.names
    nlay = len(layer_names)

    torques = np.array([torque_all_layers(nets[k]).torque for k in keys])
    mean_torque = torques.mean(axis=0)

    outcomes = []
    slopes: dict[str, tuple[float, float]] = {}
    for topic in config.topics:
        dcfg = config.diffusion[topic]
        cfgs = [PathwayConfig(layer=l, k=config.k, mode=config.mode,
                              direction=config.direction) for l in range(nlay)]
        per_layer_cols: list[dict[str, dict[str, np.ndarray]]] = [
            {name: {} for name in EXPOSURE_FIELDS + ("treated",)}
            for _ in range(nlay)]
        for key in keys:
            analyzer = PathwayAnalyzer(nets[key], kmax=config.k,
                                       validated=panels[key].validated(topic))
            tables = exposure_table(nets[key], panels[key], cfgs, topic,
                                    analyzer=analyzer)
            # assignment is clustered by household, so holding own assignment
            # fixed is required: under forgetting, kin exposure otherwise
            # proxies the node's own seeding status
            treated_col = panels[key].treated[topic]
            for cols, (_, records) in zip(per_layer_cols, tables):
                for name in EXPOSURE_FIELDS:
                    cols[name][key] = records[name]
                cols["treated"][key] = treated_col

        def reduce_layer(l: int):
            frame = build_frame(panels, topic, per_layer_cols[l])
            model = fit_frame(frame, topic)
            if config.bootstrap_reps >= 1000:
                est = counterfactual_reduction(
                    model, layer_names[l], config.k, n_boot=config.bootstrap_reps,
                    level=config.ci_level, seed=seed, threads=1)
                return est.reduction, est.ci_low, est.ci_high, est.n_failed
            return reduction_point(model), float("nan"), float("nan"), 0

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(reduce_layer, range(nlay)))
        else:
            results = [reduce_layer(l) for l in range(nlay)]
        reductions = np.array([r[0] for r in results])

        for l, lname in enumerate(layer_names):
            outcomes.append(LayerOutcome(
                topic=topic, layer=lname,
                mean_torque=float(mean_torque[l]),
                transmitting=dcfg.layer_probs.get(lname, 0.0) > 0.0,
                reduction=float(results[l][0]),
                ci_low=float(results[l][1]), ci_high=float(results[l][2]),
                n_failed=results[l][3],
            ))

        # standardized reduction against log mean torque across layers
        usable = mean_torque > 0
        if usable.sum() >= 3 and np.std(reductions[usable]) > 0:
            z = ((reductions[usable] - reductions[usable].mean())
                 / reductions[usable].std())
            slopes[topic] = _ols_slope(np.log(mean_torque[usable]), z)
        else:
            slopes[topic] = (float("nan"), float("nan"))

    return ExperimentResult(outcomes=tuple(outcomes), slopes=slopes,
                            seed=seed, n_villages=config.n_villages)
