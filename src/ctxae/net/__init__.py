"""Minimal sequence-autoencoder engine (numpy, hand-written backprop)."""

from .layers import (
    Activation,
    BatchNorm,
    Conv1D,
    ConvTranspose1D,
    Dense,
    Layer,
    LayerSpec,
    MaxPool1D,
    UpsampleNearest,
    build_layer,
)
from .model import (AutoencoderSpec, Sequential, default_autoencoder_spec,
                    fold_for_scoring, mse_per_sample)
from .training import (Adam, TrainConfig, TrainReport, adam_scratch,
                       score_windows, train_autoencoder, train_multi_decoder)
from .checkpoint import load_checkpoint, save_checkpoint, snap_to_storage_precision

__all__ = [
    "Activation", "BatchNorm", "Conv1D", "ConvTranspose1D", "Dense", "Layer",
    "LayerSpec", "MaxPool1D", "UpsampleNearest", "build_layer",
    "AutoencoderSpec", "Sequential", "default_autoencoder_spec", "fold_for_scoring",
    "mse_per_sample", "Adam", "TrainConfig", "TrainReport", "adam_scratch",
    "score_windows", "train_autoencoder", "train_multi_decoder",
    "load_checkpoint", "save_checkpoint", "snap_to_storage_precision",
]
