"""Network assembly: MBConv / Fused-MBConv blocks, attention substitution,
SAFM insertion, and the config-driven builder.

A network is stem -> stages -> head -> global-avg pool -> linear classifier.
Each stage repeats its block; only the first repeat applies the stage's
stride and channel change. A stage flagged safm_after gets one SAFM block
appended after its last repeat. MBConv stages may splice an attention gate
(ce or se) between the depthwise conv and the projection, at the expanded
width.

Convolutions followed by batch norm carry no bias (the BN shift absorbs it);
the classifier carries one. Constructing a network only registers its
parameters, in forward order; ``build_network`` then draws the conv weights
with ``init_weights``. Registration order fixes both the init draw order and
the checkpoint layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import CEParams, SEParams, ce_forward, se_forward
from .params import ParamStore, init_weights, register_bn, register_conv
from .safm import MODES as SAFM_MODES
from .safm import SAFMParams, dp_safm_forward
from .tensor import ConvSpec, Tensor, conv2d, conv_bn_act, elementwise, pool

BLOCK_KINDS = ("mbconv", "fused-mbconv")
ATTENTION_KINDS = ("none", "se", "ce")


@dataclass
class StageSpec:
    block_kind: str
    in_channels: int
    out_channels: int
    expansion: int = 1
    stride: int = 1
    repeats: int = 1
    attention: str = "none"
    safm_after: bool = False


@dataclass
class NetworkConfig:
    stem_channels: int = 16
    stages: list[StageSpec] = field(default_factory=list)
    head_channels: int = 128
    num_classes: int = 2
    input_size: int = 64
    ce_shared_mlp: bool = True
    safm_conv_x1: bool = True
    safm_mode: str = "depthwise-separable"
    se_ratio: int = 4


def validate_config(config: NetworkConfig) -> None:
    """Reject invalid configs, naming the failing stage index."""
    if config.num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {config.num_classes}")
    if config.stem_channels < 1 or config.head_channels < 1:
        raise ValueError("stem_channels and head_channels must be >= 1")
    if config.input_size < 1:
        raise ValueError(f"input_size must be >= 1, got {config.input_size}")
    if config.se_ratio < 1:
        raise ValueError(f"se_ratio must be >= 1, got {config.se_ratio}")
    if config.safm_mode not in SAFM_MODES:
        raise ValueError(f"unknown safm_mode {config.safm_mode!r}")
    if not config.stages:
        raise ValueError("config needs at least one stage")
    prev = config.stem_channels
    for i, st in enumerate(config.stages):
        where = f"stage {i}"
        if st.block_kind not in BLOCK_KINDS:
            raise ValueError(f"{where}: unknown block kind {st.block_kind!r}")
        if st.attention not in ATTENTION_KINDS:
            raise ValueError(f"{where}: unknown attention kind {st.attention!r}")
        if st.expansion < 1:
            raise ValueError(f"{where}: expansion must be >= 1, got {st.expansion}")
        if st.stride not in (1, 2):
            raise ValueError(f"{where}: stride must be 1 or 2, got {st.stride}")
        if st.repeats < 1:
            raise ValueError(f"{where}: repeats must be >= 1, got {st.repeats}")
        if st.in_channels != prev:
            raise ValueError(
                f"{where}: in_channels {st.in_channels} does not chain from previous "
                f"width {prev}")
        if st.safm_after and st.block_kind != "fused-mbconv":
            raise ValueError(f"{where}: safm_after is only valid on fused-mbconv stages")
        if st.attention != "none" and st.block_kind != "mbconv":
            raise ValueError(f"{where}: attention {st.attention!r} is only valid on mbconv stages")
        if st.safm_after and st.out_channels % 4 != 0:
            raise ValueError(
                f"{where}: SAFM insertion needs out_channels divisible by 4, got {st.out_channels}")
        if st.attention == "se" and (st.in_channels * st.expansion) % config.se_ratio != 0:
            raise ValueError(
                f"{where}: se ratio {config.se_ratio} does not divide expanded width "
                f"{st.in_channels * st.expansion}")
        prev = st.out_channels


class _ConvBN:
    """conv (no bias) -> batch norm -> optional activation, one fused op."""

    def __init__(self, store: ParamStore, path: str, cin: int, cout: int, kernel: int,
                 stride: int, groups: int = 1, act: str | None = "silu"):
        pad = (kernel - 1) // 2
        self.spec = ConvSpec(cin, cout, kernel, kernel, stride=stride, padding=pad, groups=groups)
        self.w, _ = register_conv(store, path, cout, cin // groups, kernel, kernel, bias=False)
        self.gamma, self.beta, self.rm, self.rv = register_bn(store, path + ".bn", cout)
        self.act = act

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return conv_bn_act(x, self.w, self.gamma, self.beta, self.rm, self.rv, self.spec,
                           mode, self.act)


class FusedMBConvBlock:
    """3x3 expand conv + BN + SiLU, 1x1 projection + BN, optional residual.
    expansion == 1 collapses to a single 3x3 conv + BN + SiLU."""

    def __init__(self, store: ParamStore, path: str, cin: int, cout: int, expansion: int,
                 stride: int):
        self.residual = stride == 1 and cin == cout
        if expansion == 1:
            self.conv = _ConvBN(store, path + ".conv", cin, cout, 3, stride)
            self.proj = None
        else:
            mid = cin * expansion
            self.conv = _ConvBN(store, path + ".exp", cin, mid, 3, stride)
            self.proj = _ConvBN(store, path + ".proj", mid, cout, 1, 1, act=None)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        h = self.conv.forward(x, mode)
        if self.proj is not None:
            h = self.proj.forward(h, mode)
        if self.residual:
            h = elementwise(h, x, "add")
        return h


class MBConvBlock:
    """1x1 expand + BN + SiLU, depthwise 3x3 + BN + SiLU, optional channel
    attention on the expanded features, 1x1 projection + BN, optional
    residual."""

    def __init__(self, store: ParamStore, path: str, cin: int, cout: int, expansion: int,
                 stride: int, attention: str, ce_shared_mlp: bool = True, se_ratio: int = 4):
        mid = cin * expansion
        self.residual = stride == 1 and cin == cout
        self.attention = attention
        self.expand = _ConvBN(store, path + ".exp", cin, mid, 1, 1)
        self.dw = _ConvBN(store, path + ".dw", mid, mid, 3, stride, groups=mid)
        if attention == "ce":
            self.attn_params = CEParams(store, path, mid, shared_mlp=ce_shared_mlp)
        elif attention == "se":
            self.attn_params = SEParams(store, path, mid, r=se_ratio)
        elif attention == "none":
            self.attn_params = None
        else:
            raise ValueError(f"unknown attention kind {attention!r}")
        self.proj = _ConvBN(store, path + ".proj", mid, cout, 1, 1, act=None)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        h = self.expand.forward(x, mode)
        h = self.dw.forward(h, mode)
        if self.attention == "ce":
            h = ce_forward(h, self.attn_params)
        elif self.attention == "se":
            h = se_forward(h, self.attn_params)
        h = self.proj.forward(h, mode)
        if self.residual:
            h = elementwise(h, x, "add")
        return h


class SAFMBlock:
    def __init__(self, store: ParamStore, path: str, channels: int, mode: str, conv_x1: bool):
        self.params = SAFMParams(store, path, channels, mode=mode, conv_x1=conv_x1)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return dp_safm_forward(x, self.params)


class Network:
    """Validated network graph; its parameters register in ``store`` at their
    starting values (conv weights zero) and are shared by reference here."""

    def __init__(self, config: NetworkConfig, store: ParamStore):
        validate_config(config)
        self.config = config
        self.stem = _ConvBN(store, "stem", 3, config.stem_channels, 3, 2)
        self.blocks: list = []
        for i, st in enumerate(config.stages):
            for j in range(st.repeats):
                cin = st.in_channels if j == 0 else st.out_channels
                stride = st.stride if j == 0 else 1
                path = f"s{i}.r{j}"
                if st.block_kind == "fused-mbconv":
                    blk = FusedMBConvBlock(store, path, cin, st.out_channels,
                                           st.expansion, stride)
                else:
                    blk = MBConvBlock(store, path, cin, st.out_channels,
                                      st.expansion, stride, st.attention,
                                      ce_shared_mlp=config.ce_shared_mlp,
                                      se_ratio=config.se_ratio)
                self.blocks.append(blk)
            if st.safm_after:
                self.blocks.append(SAFMBlock(store, f"s{i}", st.out_channels,
                                             config.safm_mode, config.safm_conv_x1))
        last = config.stages[-1].out_channels
        self.head = _ConvBN(store, "head", last, config.head_channels, 1, 1)
        self.cls_spec = ConvSpec(config.head_channels, config.num_classes, 1, 1)
        self.cls_w, self.cls_b = register_conv(store, "classifier", config.num_classes,
                                               config.head_channels, 1, 1)

    def forward(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Run the full graph; returns logits as an (N, num_classes, 1, 1)
        tensor."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode {mode!r}")
        n, c, h, w = x.shape
        size = self.config.input_size
        if c != 3:
            raise ValueError(f"network expects 3 input channels, got {c}")
        if (h, w) != (size, size):
            raise ValueError(
                f"input spatial size {h}x{w} incompatible with the configured "
                f"stride chain (expects {size}x{size})")
        h_ = self.stem.forward(x, mode)
        for blk in self.blocks:
            h_ = blk.forward(h_, mode)
        h_ = self.head.forward(h_, mode)
        h_ = pool(h_, "global-avg")
        return conv2d(h_, self.cls_w, self.cls_b, self.cls_spec)


def build_network(config: NetworkConfig, seed: int) -> tuple[Network, ParamStore]:
    """Build the network, then draw its conv weights He-normal from seed."""
    store = ParamStore()
    net = Network(config, store)
    init_weights(store, np.random.default_rng(int(seed)))
    return net, store


def nano_config() -> NetworkConfig:
    """Desk-scale preset used throughout the tests."""
    return NetworkConfig(
        stem_channels=16,
        stages=[
            StageSpec("fused-mbconv", 16, 16, expansion=1, stride=1, repeats=1,
                      safm_after=True),
            StageSpec("fused-mbconv", 16, 32, expansion=4, stride=2, repeats=2,
                      safm_after=True),
            StageSpec("mbconv", 32, 64, expansion=4, stride=2, repeats=2, attention="ce"),
        ],
        head_channels=128,
        num_classes=4,
        input_size=64,
    )
