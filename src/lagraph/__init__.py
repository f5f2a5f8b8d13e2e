"""Label-aware graph refinement for node classification.

An edge classifier scores node pairs; predicted different-label edges are
filtered out and predicted same-label two-hop neighbors are added, then a
graph model (SGC or GCN) is trained on the refined graph. A small theory
module checks the expectation identities behind the method, both in closed
form and by Monte Carlo.
"""

from .data import DataFormatError, degrade, load, save, synth
from .edge_classifier import (
    EdgeClassifier,
    ClassifierQuality,
    PairSet,
    TrainConfig,
    build_pairs,
    evaluate_quality,
    holdout_pairs,
    make_scorer,
    quality_from_counts,
    score_pairs,
    train,
)
from .graph import (
    ALL_SPLITS,
    UNKNOWN_LABEL,
    Graph,
    NodeTable,
    PositiveRatioReport,
    positive_ratio,
    two_hop_candidates,
    two_hop_pools,
)
from .hashing import unit_uniform
from .models import (
    FitConfig,
    GcnModel,
    SgcModel,
    accuracy,
    gcn_fit,
    predict,
    sgc_fit,
)
from .propagation import (
    EdgeFeatureConfig,
    PropagationConfig,
    edge_input_features,
    propagate,
    transpose,
)
from .refinement import (
    OracleClassifier,
    RefinementConfig,
    RefinementReport,
    add_edges,
    filter_edges,
    oracle_scorer,
    refine,
)
from .theory import (
    GaussianMixtureParams,
    McResult,
    NeighborhoodSpec,
    PropositionGrid,
    PropositionReport,
    check_propositions,
    e_add,
    e_filter,
    e_origin,
    mc_aggregate,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SPLITS",
    "UNKNOWN_LABEL",
    "ClassifierQuality",
    "DataFormatError",
    "EdgeClassifier",
    "EdgeFeatureConfig",
    "FitConfig",
    "GaussianMixtureParams",
    "GcnModel",
    "Graph",
    "McResult",
    "NeighborhoodSpec",
    "NodeTable",
    "OracleClassifier",
    "PairSet",
    "PositiveRatioReport",
    "PropagationConfig",
    "PropositionGrid",
    "PropositionReport",
    "RefinementConfig",
    "RefinementReport",
    "SgcModel",
    "TrainConfig",
    "accuracy",
    "add_edges",
    "build_pairs",
    "check_propositions",
    "degrade",
    "e_add",
    "e_filter",
    "e_origin",
    "edge_input_features",
    "evaluate_quality",
    "filter_edges",
    "gcn_fit",
    "holdout_pairs",
    "load",
    "make_scorer",
    "mc_aggregate",
    "oracle_scorer",
    "positive_ratio",
    "predict",
    "propagate",
    "quality_from_counts",
    "refine",
    "save",
    "score_pairs",
    "sgc_fit",
    "synth",
    "train",
    "transpose",
    "two_hop_candidates",
    "two_hop_pools",
    "unit_uniform",
]
