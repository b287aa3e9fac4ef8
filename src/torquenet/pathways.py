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

All distances are computed for every focal node at once by depth-capped
frontier expansion with boolean matrix products; interiors are filtered by
masking the expansion columns. Products are thresholded at > 0, so results
do not depend on the BLAS summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError
from .graph import DIR_FWD, DIR_REV, MultiplexNetwork
from .panel import VillagePanel

K_CHOICES = (2, 3, 4)
UNREACHED = np.uint8(255)
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
    key = (ego, alter) if ego < alter else (alter, ego)
    bit = DIR_FWD if ego < alter else DIR_REV
    sup = net.dyads.get(key)
    if not sup:
        return False
    return any(mask & bit and layer != excluded_layer for layer, mask in sup.items())


class PathwayAnalyzer:
    """Caches admissible-depth matrices for one village and one validity mask.

    depth(...)[f, v] is the shortest admissible path length from f to v,
    capped at kmax (UNREACHED beyond). The validity mask applies only to
    path interiors, never to endpoints.
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
        nom = np.zeros((len(net.registry), net.n, net.n), dtype=np.int16)
        out = net.out_neighbors_by_layer()
        for layer, per_node in enumerate(out):
            for ego, alters in enumerate(per_node):
                if alters:
                    nom[layer, ego, list(alters)] = 1
        self._nom = nom
        self._nom_total = nom.sum(axis=0)
        self._depths: dict[tuple, np.ndarray] = {}

    def admissible_matrix(self, direction: Direction,
                          excluded_layer: int | None = None) -> np.ndarray:
        counts = self._nom_total if excluded_layer is None \
            else self._nom_total - self._nom[excluded_layer]
        adm = counts > 0
        if Direction(direction) is Direction.REVERSED:
            adm = adm.T
        return adm

    def depths(self, direction: Direction, excluded_layer: int | None = None,
               validated_interior: bool = False) -> np.ndarray:
        key = (Direction(direction), excluded_layer, validated_interior)
        cached = self._depths.get(key)
        if cached is not None:
            return cached
        adm = self.admissible_matrix(direction, excluded_layer).astype(np.float32)
        n = self.n
        depth = np.full((n, n), UNREACHED, dtype=np.uint8)
        np.fill_diagonal(depth, 0)
        reached = np.eye(n, dtype=bool)
        frontier = reached.copy()
        for d in range(1, self.kmax + 1):
            expand = frontier
            if validated_interior and d > 1:
                # expansion nodes at depth >= 1 are path interiors
                expand = frontier & self.validated[None, :]
            nxt = (expand.astype(np.float32) @ adm) > 0
            nxt &= ~reached
            if not nxt.any():
                break
            depth[nxt] = d
            reached |= nxt
            frontier = nxt
        self._depths[key] = depth
        return depth


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
    depth matrices.
    """
    _validate_inputs(net, panel, topic)
    if isinstance(cfgs, PathwayConfig):
        cfgs = [cfgs]
    if analyzer is None:
        analyzer = PathwayAnalyzer(net, validated=panel.validated(topic))
    intervened = panel.intervened(topic)
    out = []
    for cfg in cfgs:
        net._check_layer(cfg.layer)
        primary = cfg.mode is Mode.PRIMARY
        base = analyzer.depths(cfg.direction)
        member = (base == cfg.k) & intervened[None, :]
        if primary:
            member &= analyzer.depths(cfg.direction, validated_interior=True) == cfg.k
        # survival of an alternative length-k route is judged on the plain
        # admissible graph in both modes; validity filters membership only
        excl = analyzer.depths(cfg.direction, excluded_layer=cfg.layer)
        critical = member & (excl != cfg.k)
        xi_layer = critical.sum(axis=1)
        xi_rest = member.sum(axis=1) - xi_layer
        n_src = analyzer.depths(cfg.direction, validated_interior=True) \
            if (primary and n_follows_mode) else base
        k_alters = (n_src == cfg.k).sum(axis=1)
        out.append((cfg, np.rec.fromarrays((xi_layer, xi_rest, k_alters),
                                           names=EXPOSURE_FIELDS)))
    return out


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
        analyzer = PathwayAnalyzer(net, validated=panel.validated(topic))
    base = analyzer.depths(direction)
    member = (base == k) & panel.intervened(topic)[None, :]
    return member.sum(axis=1)


def k_alter_counts(net: MultiplexNetwork, k: int,
                   direction: Direction = Direction.DIRECTED,
                   analyzer: PathwayAnalyzer | None = None) -> np.ndarray:
    """Number of k-degree alters per node regardless of treatment."""
    if analyzer is None:
        analyzer = PathwayAnalyzer(net)
    return (analyzer.depths(direction) == k).sum(axis=1)
