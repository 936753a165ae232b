"""Flow-record compression with an autoencoder, plus classification impact
measurement with a random forest. See the README for the CLI pipeline.
"""

from . import autoencoder, classify_eval, eval_metrics, forest, latent, neural, preprocess
from .autoencoder import AutoencoderModel, TrainingHistory, load_model, save_model
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    FingerprintMismatchError,
    FlowcodecError,
    ModelFormatError,
)
from .flow_data import (
    Dataset,
    FeatureSchema,
    SplitIndices,
    SyntheticClassSpec,
    default_class_specs,
    generate_synthetic,
    load_csv,
    random_split,
    read_features,
    stratified_split,
    write_csv,
)
from .neural import TrainConfig
from .preprocess import PreprocessorState

__version__ = "0.1.0"

__all__ = [
    "AutoencoderModel",
    "ConfigError",
    "DataError",
    "Dataset",
    "DivergenceError",
    "FeatureSchema",
    "FingerprintMismatchError",
    "FlowcodecError",
    "ModelFormatError",
    "PreprocessorState",
    "SplitIndices",
    "SyntheticClassSpec",
    "TrainConfig",
    "TrainingHistory",
    "autoencoder",
    "classify_eval",
    "default_class_specs",
    "eval_metrics",
    "forest",
    "generate_synthetic",
    "latent",
    "load_csv",
    "load_model",
    "neural",
    "preprocess",
    "random_split",
    "read_features",
    "save_model",
    "stratified_split",
    "write_csv",
]
