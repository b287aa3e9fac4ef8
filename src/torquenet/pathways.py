"""Per-individual exposure counts over direction- and validity-filtered paths.

Terminology. Fix a focal individual f, a hop count k in {2, 3, 4}, a
direction rule, and a layer L. A step (u, v) is admissible when some
non-excluded layer carries the nomination u -> v (DIRECTED; the chain runs
outward from the focal side, so influence can flow back along it) or
v -> u (REVERSED). A node j is a k-degree alter of f when its shortest
admissible path length from f is exactly k. For an intervened k-degree
alter j:

  - j counts toward xi_layer when no admissible length-k path from f to j
    survives exclusion of L's nominations (the connection at that range
    depends on L);
  - otherwise j counts toward xi_rest.

PRIMARY mode additionally requires, for an alter to be counted at all,
a length-k path whose every interior node is validated (accurate
late-wave knowledge or direct treatment); endpoints are exempt, and the
survival check above stays unrestricted in both modes, so PRIMARY counts
never exceed SECONDARY counts. k_alters reports the number of k-degree
alters regardless of treatment, by default without the validity filter.

All distances come from the multi-source BFS of msbfs, run from every
focal node at once up to kmax hops over the arcs the direction rule
admits. Level d holds, in row v, the focal nodes within d admissible steps
of v, so the k-degree alters of f are the rows whose bit f is set at level
k and clear at level k - 1. Excluding a layer masks the arcs only it
carries; PRIMARY mode stops unvalidated nodes from passing sources on from
level 2, which is where they would become path interiors. Per-focal counts
sum the unpacked bits of the intervened rows. All of it is integer bit
arithmetic, so the counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import msbfs
from .errors import ConfigError, DataError
from .graph import MultiplexNetwork
from .panel import VillagePanel

K_CHOICES = (2, 3, 4)
EXPOSURE_FIELDS = ("xi_layer", "xi_rest", "k_alters")


class Mode(Enum):
    """PRIMARY restricts path interiors to validated nodes; SECONDARY does not."""

    PRIMARY = "primary"
    SECONDARY = "secondary"


class Direction(Enum):
    """Step orientation relative to the focal side of the chain."""

    DIRECTED = "directed"
    REVERSED = "reversed"


@dataclass(frozen=True)
class PathwayConfig:
    """One exposure configuration: layer, hop count, mode, direction."""

    layer: int
    k: int
    mode: Mode = Mode.SECONDARY
    direction: Direction = Direction.DIRECTED

    def __post_init__(self):
        if self.k not in K_CHOICES:
            raise ConfigError(f"k must be one of {K_CHOICES}, got {self.k}")
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))
        if not isinstance(self.direction, Direction):
            object.__setattr__(self, "direction", Direction(self.direction))


def admissible_step(net: MultiplexNetwork, u: int, v: int, direction: Direction,
                    excluded_layer: int | None = None) -> bool:
    """Whether the chain may step from u to v under the direction rule."""
    if u == v:
        return False
    direction = Direction(direction)
    ego, alter = (u, v) if direction is Direction.DIRECTED else (v, u)
    layers = net.layer[(net.ego == ego) & (net.alter == alter)]
    return any(layer != excluded_layer for layer in layers.tolist())


class PathwayAnalyzer:
    """Caches admissible level sets for one village and one validity mask.

    depths(...)[d] is an (n, words) bitset (see msbfs) whose row v holds
    the focal nodes f with an admissible path of at most d steps from f to
    v, for d = 0..kmax. The validity mask applies only to path interiors,
    never to endpoints.
    """

    def __init__(self, net: MultiplexNetwork, validated: np.ndarray | None = None,
                 kmax: int = max(K_CHOICES)):
        self.net = net
        self.n = net.n
        self.kmax = kmax
        if validated is None:
            validated = np.ones(net.n, dtype=bool)
        if len(validated) != net.n:
            raise DataError("validity mask length does not match the network")
        self.validated = np.asarray(validated, dtype=bool)
        self._arcs: dict[Direction, msbfs.ArcSet] = {}
        self._depths: dict[tuple, np.ndarray] = {}

    def _arc_set(self, direction: Direction) -> msbfs.ArcSet:
        arcs = self._arcs.get(direction)
        if arcs is None:
            net = self.net
            # a step u -> v reads nomination u -> v (DIRECTED) or v -> u
            tail, head = ((net.ego, net.alter) if direction is Direction.DIRECTED
                          else (net.alter, net.ego))
            arcs = self._arcs[direction] = msbfs.ArcSet(
                self.n, tail=tail, head=head, layer=net.layer,
                n_layers=len(self.net.registry))
        return arcs

    def depths(self, direction: Direction, excluded_layer: int | None = None,
               validated_interior: bool = False) -> np.ndarray:
        key = (Direction(direction), excluded_layer, validated_interior)
        cached = self._depths.get(key)
        if cached is not None:
            return cached
        gather = self._arc_set(key[0]).gather(excluded_layer)
        interior = self.validated if validated_interior else None
        levels = np.stack(msbfs.levels(gather, self.n, self.kmax, interior))
        self._depths[key] = levels
        return levels


def _validate_inputs(net: MultiplexNetwork, panel: VillagePanel, topic: str) -> None:
    if panel.n != net.n:
        raise DataError(
            f"panel has {panel.n} nodes but the network has {net.n}")
    panel.check_topic(topic)


def exposure_table(net: MultiplexNetwork, panel: VillagePanel,
                   cfgs, topic: str, *, n_follows_mode: bool = False,
                   analyzer: PathwayAnalyzer | None = None,
                   ) -> list[tuple[PathwayConfig, np.recarray]]:
    """Exposure counts for every node under each configuration.

    Each configuration's counts are a length-n recarray with integer
    fields xi_layer, xi_rest and k_alters; row i is node i. Configurations
    sharing a direction (and, for PRIMARY, the validity mask) reuse cached
    level sets.
    """
    _validate_inputs(net, panel, topic)
    cfgs = [cfgs] if isinstance(cfgs, PathwayConfig) else list(cfgs)
    if analyzer is None:
        analyzer = PathwayAnalyzer(net, validated=panel.validated(topic),
                                   kmax=max((cfg.k for cfg in cfgs), default=0))
    iv = np.flatnonzero(panel.intervened(topic))
    out = []
    for cfg in cfgs:
        net._check_layer(cfg.layer)
        if cfg.k > analyzer.kmax:
            raise ConfigError(f"k = {cfg.k} exceeds the analyzer's kmax = {analyzer.kmax}")
        primary = cfg.mode is Mode.PRIMARY
        alters = _exactly(analyzer.depths(cfg.direction), cfg.k)
        member = alters[iv]
        if primary:
            valid = _exactly(analyzer.depths(cfg.direction, validated_interior=True), cfg.k)
            member &= valid[iv]
            if n_follows_mode:
                alters = valid
        # survival of an alternative length-k route is judged on the plain
        # admissible graph in both modes; validity filters membership only.
        # The excluded graph's distances are never shorter, so a member
        # keeps distance k there exactly when it is reached within k steps.
        survives = analyzer.depths(cfg.direction, excluded_layer=cfg.layer)[cfg.k][iv]
        xi_layer = msbfs.source_counts(member & ~survives, net.n)
        xi_rest = msbfs.source_counts(member, net.n) - xi_layer
        k_alters = msbfs.source_counts(alters, net.n)
        out.append((cfg, np.rec.fromarrays((xi_layer, xi_rest, k_alters),
                                           names=EXPOSURE_FIELDS)))
    return out


def _exactly(levels: np.ndarray, k: int) -> np.ndarray:
    """Row v holds the focal nodes whose admissible distance to v is k."""
    return levels[k] & ~levels[k - 1]


def exposure(net: MultiplexNetwork, panel: VillagePanel, focal: int,
             cfg: PathwayConfig, topic: str, *,
             n_follows_mode: bool = False) -> np.record:
    """Counts for a single focal node; see exposure_table for batch use."""
    _validate_inputs(net, panel, topic)
    if not 0 <= focal < net.n:
        raise DataError(f"focal node {focal} not covered by the panel")
    (_, records), = exposure_table(net, panel, cfg, topic,
                                   n_follows_mode=n_follows_mode)
    return records[focal]


def total_exposure(net: MultiplexNetwork, panel: VillagePanel, k: int, topic: str,
                   direction: Direction = Direction.DIRECTED,
                   analyzer: PathwayAnalyzer | None = None) -> np.ndarray:
    """Intervened k-degree alter count per node, no layer split (SECONDARY).

    This is the exposure regressor used by the per-topic screen: it equals
    xi_layer + xi_rest for any layer choice.
    """
    _validate_inputs(net, panel, topic)
    if analyzer is None:
        analyzer = PathwayAnalyzer(net, kmax=k)
    member = _exactly(analyzer.depths(direction), k)[panel.intervened(topic)]
    return msbfs.source_counts(member, net.n)


def k_alter_counts(net: MultiplexNetwork, k: int,
                   direction: Direction = Direction.DIRECTED,
                   analyzer: PathwayAnalyzer | None = None) -> np.ndarray:
    """Number of k-degree alters per node regardless of treatment."""
    if analyzer is None:
        analyzer = PathwayAnalyzer(net, kmax=k)
    return msbfs.source_counts(_exactly(analyzer.depths(direction), k), net.n)
