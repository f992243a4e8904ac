"""cev2: a desk-scale channel-efficient EfficientNetV2 built from scratch.

Rank-4 float64 tensors with a reverse-mode tape, channel-efficient attention,
depthwise-separable SAFM, MBConv/Fused-MBConv assembly, an 8-bit raster
augmentation pipeline, and a seeded training loop with windowed metrics.
"""

from .attention import CEParams, SEParams, ce_forward, se_forward
from .backbone import (MBConvBlock, FusedMBConvBlock, Network, NetworkConfig,
                       StageSpec, build_network, nano_config, validate_config)
from .config import (AugmentConfig, TrainConfig, parse_augment_config,
                     parse_network_config, parse_train_config)
from .params import (ParamStore, init_weights, load_checkpoint, load_into,
                     save_checkpoint)
from .safm import SAFMParams, dp_safm_forward
from .tensor import (ConvSpec, Tape, Tensor, add, backward, channel_vector, conv2d,
                     conv_bn_act, finite_diff_check, pool)
from .train import (Adam, EpochRecord, NonFiniteError, RunMetrics, SGDMomentum,
                    cross_entropy_loss, evaluate, train, window_average)

__all__ = [
    "Adam", "AugmentConfig", "CEParams", "ConvSpec", "EpochRecord", "FusedMBConvBlock",
    "MBConvBlock", "Network", "NetworkConfig", "NonFiniteError", "ParamStore", "RunMetrics",
    "SAFMParams", "SEParams", "SGDMomentum", "StageSpec", "Tape", "Tensor", "TrainConfig",
    "add", "backward", "build_network", "ce_forward", "channel_vector", "conv2d", "conv_bn_act",
    "cross_entropy_loss", "dp_safm_forward", "evaluate", "finite_diff_check",
    "init_weights", "load_checkpoint", "load_into", "nano_config", "parse_augment_config",
    "parse_network_config", "parse_train_config", "pool", "save_checkpoint", "se_forward",
    "train", "validate_config", "window_average",
]

__version__ = "0.1.0"
