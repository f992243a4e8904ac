"""Input checks that no other test reaches: each malformed input raises a
ValueError whose message names what is wrong."""

import dataclasses

import numpy as np
import pytest

from cev2 import (AugmentConfig, CEParams, ConvSpec, MBConvBlock, NetworkConfig, ParamStore,
                  SEParams, StageSpec, Tensor, conv2d, parse_network_config, validate_config)
from cev2.augment import add_gaussian_noise
from cev2.gradcheck import run_gradcheck
from cev2.ppm import Raster


def _network_file(path, stage_line: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"classes = 2\n{stage_line}\n")
    return parse_network_config(str(path))


def _validate(stage=StageSpec("mbconv", 8), **fields):
    validate_config(dataclasses.replace(NetworkConfig(stages=[stage]), **fields))


def _register_twice():
    store = ParamStore()
    store.register("w", Tensor(np.zeros((1, 1, 1, 1))))
    store.register("w", Tensor(np.zeros((1, 1, 1, 1))))


def _conv2d_bias():
    conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((4, 3, 3, 3))),
           Tensor(np.zeros((1, 3, 1, 1))), ConvSpec(3, 4, 3, 3))


# (id, call(path), message); path is a file the call may write a config to
CASES = [
    ("conv-spec-field", lambda _: ConvSpec(3, 4, 0, 3), "ConvSpec.kernel_h must be >= 1, got 0"),
    ("conv-spec-padding", lambda _: ConvSpec(3, 4, 3, 3, padding=-1),
     "ConvSpec.padding must be >= 0, got -1"),
    ("conv-spec-groups", lambda _: ConvSpec(4, 6, 3, 3, groups=4),
     "ConvSpec.out_channels 6 not divisible by groups 4"),
    ("conv2d-bias", lambda _: _conv2d_bias(),
     "conv2d: bias shape (1, 3, 1, 1) != expected (1, 4, 1, 1)"),
    ("duplicate-parameter", lambda _: _register_twice(), "duplicate parameter name 'w'"),
    ("empty-raster", lambda _: Raster(np.zeros((0, 4, 3), dtype=np.uint8)),
     "Raster dims must be >= 1, got (0, 4)"),
    ("ce-channels", lambda _: CEParams(ParamStore(), "a", 0),
     "CEParams: channels must be >= 1, got 0"),
    ("se-ratio", lambda _: SEParams(ParamStore(), "a", 8, r=0), "SEParams: r must be >= 1, got 0"),
    ("noise-std", lambda _: add_gaussian_noise(Raster(np.zeros((2, 2, 3), dtype=np.uint8)), -0.1, 0),
     "std must be >= 0, got -0.1"),
    ("augment-gauss-std", lambda _: AugmentConfig(gauss_std=-0.1), "gauss_std must be >= 0, got -0.1"),
    ("bad-boolean", lambda path: _network_file(path, "stage.0 = fused-mbconv out=8 safm=maybe"),
     "{path}: stage.0: safm: expected a boolean, got 'maybe'"),
    ("empty-stage", lambda path: _network_file(path, "stage.0 ="),
     "{path}: stage.0: empty stage definition"),
    ("stem", lambda _: _validate(stem_channels=0), "stem_channels and head_channels must be >= 1"),
    ("head", lambda _: _validate(head_channels=0), "stem_channels and head_channels must be >= 1"),
    ("input", lambda _: _validate(input_size=0), "input_size must be >= 1, got 0"),
    ("safm-mode", lambda _: _validate(safm_mode="grouped"), "unknown safm_mode 'grouped'"),
    ("attention-kind", lambda _: _validate(StageSpec("mbconv", 8, attention="cbam")),
     "stage 0: unknown attention kind 'cbam'"),
    ("mbconv-attention", lambda _: MBConvBlock(ParamStore(), "b", 4, 4, 1, 1, "cbam"),
     "unknown attention kind 'cbam'"),
    ("gradcheck-module", lambda _: run_gradcheck("nope"),
     "unknown gradcheck module 'nope'; choose from all, tensor, ce, safm, backbone"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_malformed_input_raises_a_named_value_error(tmp_path, call, message):
    path = tmp_path / "net.cfg"
    with pytest.raises(ValueError) as err:
        call(path)
    assert str(err.value) == message.format(path=path)
