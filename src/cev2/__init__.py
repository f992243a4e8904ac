"""cev2: a desk-scale channel-efficient EfficientNetV2 built from scratch.

Rank-4 float64 tensors with a reverse-mode tape, channel-efficient attention,
depthwise-separable SAFM, MBConv/Fused-MBConv assembly, an 8-bit raster
augmentation pipeline, and a seeded training loop with windowed metrics.
"""

from .attention import (CEParams, SEParams, attention_param_count, ce_forward,
                        se_forward)
from .backbone import (MBConvBlock, FusedMBConvBlock, Network, NetworkConfig,
                       StageSpec, build_network, nano_config, validate_config)
from .config import (AugmentConfig, TrainConfig, parse_augment_config,
                     parse_network_config, parse_train_config)
from .params import (ParamStore, init_weights, load_checkpoint, load_into,
                     save_checkpoint)
from .safm import SAFMParams, dp_safm_forward, safm_param_count
from .tensor import (ConvSpec, Tape, Tensor, activation, backward, batch_norm,
                     channel_concat, channel_split4, channel_vector, conv2d,
                     conv_bn_act, elementwise, finite_diff_check, pool, sum_all, upsample_to)
from .train import (Adam, EpochRecord, NonFiniteError, RunMetrics, SGDMomentum,
                    cross_entropy_loss, evaluate, train, window_average)

__all__ = [
    "Adam", "AugmentConfig", "CEParams", "ConvSpec", "EpochRecord",
    "FusedMBConvBlock", "MBConvBlock", "Network", "NetworkConfig", "NonFiniteError",
    "ParamStore", "RunMetrics", "SAFMParams", "SEParams", "SGDMomentum", "StageSpec", "Tape",
    "Tensor", "TrainConfig", "activation", "attention_param_count", "backward",
    "batch_norm", "build_network", "ce_forward", "channel_concat",
    "channel_split4", "channel_vector", "conv2d", "conv_bn_act", "cross_entropy_loss",
    "dp_safm_forward", "elementwise", "evaluate", "finite_diff_check", "init_weights",
    "load_checkpoint", "load_into", "nano_config", "parse_augment_config",
    "parse_network_config", "parse_train_config", "pool", "safm_param_count",
    "save_checkpoint", "se_forward", "sum_all", "train", "upsample_to",
    "validate_config", "window_average",
]

__version__ = "0.1.0"
