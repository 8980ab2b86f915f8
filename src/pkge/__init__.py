"""Patch-based link prediction on knowledge graphs.

Entity and relation embeddings are cut into patches, refined with
cross-attention, and scored against the full entity table. Ships with
translation and bilinear baselines, a reverse-mode autodiff core, filtered
ranking evaluation, and a command-line front end.
"""

from .errors import (CheckpointError, ConfigError, DataFormatError,
                     GraphError, NumericError, PkgeError, ShapeError,
                     VocabMismatchError)
from .kg import TripleStore, build_store, load_dataset
from .model import ModelConfig, PatReFormer, build_model
from .baselines import DistMult, TransE
from .evaluation import EvalReport, evaluate, filtered_rank
from .training import (Adam, TrainConfig, bce_smoothed_loss, restore_model,
                       run_experiment, save_checkpoint, seed_streams,
                       train_model)
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "Adam", "CheckpointError", "ConfigError", "DataFormatError", "DistMult",
    "EvalReport", "GraphError", "ModelConfig", "NumericError", "PatReFormer",
    "PkgeError", "ShapeError", "Tensor", "TrainConfig", "TransE",
    "TripleStore", "VocabMismatchError", "bce_smoothed_loss", "build_model",
    "build_store", "evaluate", "filtered_rank", "load_dataset",
    "restore_model", "run_experiment", "save_checkpoint", "seed_streams",
    "train_model",
]
