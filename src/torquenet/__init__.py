"""Multiplex social-network layer analytics.

Core pieces: directed layer-tagged nomination networks, per-layer
structural statistics, the layer-removal torque metric, critical-pathway
exposure counts, a fixed-effects logistic contagion estimator with
cluster-bootstrap counterfactuals, and a synthetic-village simulator used
as ground truth for end-to-end validation.
"""

from .errors import (CollinearityError, ConfigError, DataError,
                     DisconnectedPairError, FitError, IngestError,
                     PredictionError, SeparationError, TorquenetError,
                     UndefinedStatisticError, UnknownLayerError)
from .graph import MultiplexNetwork, SimpleGraph, build_network
from .layers import (CANONICAL_LAYER_NAMES, CANONICAL_REGISTRY,
                     KIN_LAYER_NAMES, LayerRegistry)
from .metrics import (LayerStats, clustering, edge_betweenness,
                      layer_mean_betweenness, layer_stats, monoplexity,
                      prevalence, reachability, transitivity)
from .panel import COVARIATE_NAMES, VillagePanel
from .pathways import (Direction, Mode, PathwayAnalyzer, PathwayConfig,
                       admissible_step, exposure, exposure_table,
                       k_alter_counts, total_exposure)
from .io import (EdgeData, IngestReport, load_attributes, load_dataset,
                 load_edges, parse_scenario)
from .contagion import (ContagionModel, ReductionEstimate, RegressionFrame,
                        ScreenResult, ScreenRow, build_frame,
                        check_collinearity, contagion_screen,
                        counterfactual_reduction, fit, fit_frame,
                        newton_logit, reduction_point)
from .torque import (INFINITE, TorqueReport, all_pairs_distances, criticality,
                     network_torque, torque_all_layers)
from .simulate import (ChainLayerSpec, DiffusionConfig, ExperimentConfig,
                       ExperimentResult, FriendLayerSpec, LayerOutcome,
                       VillageGenConfig, assign_intervention, build_villages,
                       draw_treated, end_to_end_experiment, generate_village,
                       simulate_diffusion, torque_guided_treated)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
