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
from .tensor import ConvSpec, Tensor, add, conv2d, conv_bn_act, pool

BLOCK_KINDS = ("mbconv", "fused-mbconv")
ATTENTION_KINDS = ("none", "se", "ce")


@dataclass
class StageSpec:
    """One stage; its input width is the previous stage's out_channels, or the stem's."""
    block_kind: str
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
    safm_mode: str = "depthwise-separable"
    se_ratio: int = 4


def stage_blocks(config: NetworkConfig):
    """Yield (stage index, repeat index, stage, input width, stride) per block,
    in build order: widths chain from the stem; only a first repeat strides."""
    cin = config.stem_channels
    for i, st in enumerate(config.stages):
        for j in range(st.repeats):
            yield i, j, st, cin, st.stride if j == 0 else 1
            cin = st.out_channels


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
    for i, st in enumerate(config.stages):
        where = f"stage {i}"
        if st.block_kind not in BLOCK_KINDS:
            raise ValueError(f"{where}: unknown block kind {st.block_kind!r}")
        if st.attention not in ATTENTION_KINDS:
            raise ValueError(f"{where}: unknown attention kind {st.attention!r}")
        for key in ("out_channels", "expansion", "repeats"):
            if getattr(st, key) < 1:
                raise ValueError(f"{where}: {key} must be >= 1, got {getattr(st, key)}")
        if st.stride not in (1, 2):
            raise ValueError(f"{where}: stride must be 1 or 2, got {st.stride}")
        if st.safm_after and st.block_kind != "fused-mbconv":
            raise ValueError(f"{where}: safm_after is only valid on fused-mbconv stages")
        if st.attention != "none" and st.block_kind != "mbconv":
            raise ValueError(f"{where}: attention {st.attention!r} is only valid on mbconv stages")
        if st.safm_after and st.out_channels % 4 != 0:
            raise ValueError(
                f"{where}: SAFM insertion needs out_channels divisible by 4, got {st.out_channels}")
    for i, _, st, cin, _ in stage_blocks(config):
        if st.attention == "se" and (cin * st.expansion) % config.se_ratio != 0:
            raise ValueError(f"stage {i}: se ratio {config.se_ratio} does not divide "
                             f"expanded width {cin * st.expansion}")


class _ConvBN:
    """conv (no bias) -> batch norm -> optional activation, one fused op;
    ``conv`` is the conv's (w, None, spec) record."""

    def __init__(self, store: ParamStore, path: str, cin: int, cout: int, kernel: int,
                 stride: int, groups: int = 1, act: str | None = "silu"):
        spec = ConvSpec(cin, cout, kernel, kernel, stride=stride, padding=(kernel - 1) // 2,
                        groups=groups)
        self.conv = register_conv(store, path, spec, bias=False)
        self.gamma, self.beta, self.rm, self.rv = register_bn(store, path + ".bn", cout)
        self.act = act

    def forward(self, x: Tensor) -> Tensor:
        w, _, spec = self.conv
        return conv_bn_act(x, w, self.gamma, self.beta, self.rm, self.rv, spec, self.act)


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

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv.forward(x)
        if self.proj is not None:
            h = self.proj.forward(h)
        if self.residual:
            h = add(h, x)
        return h


class MBConvBlock:
    """1x1 expand + BN + SiLU, depthwise 3x3 + BN + SiLU, optional channel
    attention on the expanded features, 1x1 projection + BN, optional
    residual."""

    def __init__(self, store: ParamStore, path: str, cin: int, cout: int, expansion: int,
                 stride: int, attention: str, se_ratio: int = 4):
        mid = cin * expansion
        self.residual = stride == 1 and cin == cout
        self.attention = attention
        self.expand = _ConvBN(store, path + ".exp", cin, mid, 1, 1)
        self.dw = _ConvBN(store, path + ".dw", mid, mid, 3, stride, groups=mid)
        if attention == "ce":
            self.attn_params = CEParams(store, path, mid)
        elif attention == "se":
            self.attn_params = SEParams(store, path, mid, r=se_ratio)
        elif attention == "none":
            self.attn_params = None
        else:
            raise ValueError(f"unknown attention kind {attention!r}")
        self.proj = _ConvBN(store, path + ".proj", mid, cout, 1, 1, act=None)

    def forward(self, x: Tensor) -> Tensor:
        h = self.expand.forward(x)
        h = self.dw.forward(h)
        if self.attention == "ce":
            h = ce_forward(h, self.attn_params)
        elif self.attention == "se":
            h = se_forward(h, self.attn_params)
        h = self.proj.forward(h)
        if self.residual:
            h = add(h, x)
        return h


class SAFMBlock:
    def __init__(self, store: ParamStore, path: str, channels: int, mode: str):
        self.params = SAFMParams(store, path, channels, mode=mode)

    def forward(self, x: Tensor) -> Tensor:
        return dp_safm_forward(x, self.params)


class Network:
    """Validated network graph; its parameters register in ``store`` at their
    starting values (conv weights zero) and are shared by reference here."""

    def __init__(self, config: NetworkConfig, store: ParamStore):
        validate_config(config)
        self.config = config
        self.stem = _ConvBN(store, "stem", 3, config.stem_channels, 3, 2)
        self.blocks: list = []
        for i, j, st, cin, stride in stage_blocks(config):
            path = f"s{i}.r{j}"
            if st.block_kind == "fused-mbconv":
                blk = FusedMBConvBlock(store, path, cin, st.out_channels, st.expansion, stride)
            else:
                blk = MBConvBlock(store, path, cin, st.out_channels, st.expansion, stride,
                                  st.attention, se_ratio=config.se_ratio)
            self.blocks.append(blk)
            if st.safm_after and j == st.repeats - 1:
                self.blocks.append(SAFMBlock(store, f"s{i}", st.out_channels, config.safm_mode))
        last = config.stages[-1].out_channels
        self.head = _ConvBN(store, "head", last, config.head_channels, 1, 1)
        self.classifier = register_conv(
            store, "classifier", ConvSpec(config.head_channels, config.num_classes, 1, 1))

    def forward(self, x: Tensor) -> Tensor:
        """Run the full graph; returns logits as an (N, num_classes, 1, 1)
        tensor. Batch norm reads its mode from the tape (``conv_bn_act``)."""
        n, c, h, w = x.shape
        size = self.config.input_size
        if c != 3:
            raise ValueError(f"network expects 3 input channels, got {c}")
        if (h, w) != (size, size):
            raise ValueError(
                f"input spatial size {h}x{w} incompatible with the configured "
                f"stride chain (expects {size}x{size})")
        h_ = self.stem.forward(x)
        for blk in self.blocks:
            h_ = blk.forward(h_)
        h_ = self.head.forward(h_)
        h_ = pool(h_)
        return conv2d(h_, *self.classifier)


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
            StageSpec("fused-mbconv", 16, expansion=1, stride=1, repeats=1, safm_after=True),
            StageSpec("fused-mbconv", 32, expansion=4, stride=2, repeats=2, safm_after=True),
            StageSpec("mbconv", 64, expansion=4, stride=2, repeats=2, attention="ce"),
        ],
        head_channels=128,
        num_classes=4,
        input_size=64,
    )
