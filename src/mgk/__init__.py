"""Graph-convolutional hyperspectral image classification.

Minibatch GCN training over sampled subgraphs, a small CNN for spatial
context, and fusion heads that combine the two, all on a hand-rolled
numpy autodiff substrate with exact spectral-filter references.
"""

from .errors import (ConfigError, ContractError, FormatError, MgkError,
                     NumericError, ShapeError)
from .linalg import SparseSymMatrix, symmetric_eigendecomposition
from .graph import (Graph, build_knn_rbf_graph, chebyshev_scaled, laplacian,
                    renormalized_propagation, sym_normalized_laplacian)
from .spectral import (chebyshev_filter, first_order_as_chebyshev,
                       first_order_filter, spectral_filter)
from .sampler import (SubgraphBatch, estimator_bias_diagnostic,
                      induce_subgraph, partition_epoch)
from .optim import AdamState, adam_step, schedule_lr
from .data import (LabelGrid, SpectralCube, SplitSpec, extract_patches,
                   load_cube, load_labels, load_split, normalize_bands,
                   save_cube, save_labels, save_split, synth_scene)
from .metrics import (ConfusionMatrix, UndefinedKappaError, accumulate,
                      average_accuracy, kappa, overall_accuracy,
                      per_class_accuracy)
from .model import (ARCHITECTURES, Model, ModelConfig, build, forward,
                    load_model, loss_and_grads, predict, save_model)
from .pipeline import (Dataset, TrainResult, evaluate_part, load_dataset,
                       predict_pixels, train_model)
from .bench import ScalingReport, fit_loglog_slope, run_scaling

__version__ = "0.1.0"

__all__ = [
    "MgkError", "ShapeError", "ContractError", "NumericError", "ConfigError",
    "FormatError", "UndefinedKappaError",
    "SparseSymMatrix", "symmetric_eigendecomposition",
    "Graph", "build_knn_rbf_graph", "laplacian", "sym_normalized_laplacian",
    "renormalized_propagation", "chebyshev_scaled",
    "spectral_filter", "chebyshev_filter", "first_order_filter",
    "first_order_as_chebyshev",
    "SubgraphBatch", "partition_epoch", "induce_subgraph",
    "estimator_bias_diagnostic",
    "AdamState", "adam_step", "schedule_lr",
    "SpectralCube", "LabelGrid", "SplitSpec", "load_cube", "save_cube",
    "load_labels", "save_labels", "load_split", "save_split",
    "normalize_bands", "extract_patches", "synth_scene",
    "ConfusionMatrix", "accumulate", "overall_accuracy",
    "per_class_accuracy", "average_accuracy", "kappa",
    "ARCHITECTURES", "ModelConfig", "Model", "build", "forward",
    "loss_and_grads", "predict", "save_model", "load_model",
    "Dataset", "TrainResult", "load_dataset", "train_model",
    "predict_pixels", "evaluate_part",
    "ScalingReport", "run_scaling", "fit_loglog_slope",
]
