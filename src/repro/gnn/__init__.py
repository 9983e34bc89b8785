"""GNN backbones and training loops (replaces PyG/DGL layers)."""

from .base import GNNBackbone, cached_matrix, features_tensor
from .incremental import IncrementalEvaluator
from .models import (
    BACKBONES,
    GAT,
    GCN,
    H2GCN,
    GATLayer,
    GraphSAGE,
    MixHop,
    MLPClassifier,
    build_backbone,
)
from .trainer import Trainer, TrainResult, evaluate, train_backbone

__all__ = [
    "BACKBONES",
    "GAT",
    "GATLayer",
    "GCN",
    "GNNBackbone",
    "GraphSAGE",
    "H2GCN",
    "IncrementalEvaluator",
    "MLPClassifier",
    "MixHop",
    "TrainResult",
    "Trainer",
    "build_backbone",
    "cached_matrix",
    "evaluate",
    "features_tensor",
    "train_backbone",
]
