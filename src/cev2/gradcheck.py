"""Finite-difference verification of each rule a program records.

Groups: tensor (the public ops), ce, safm, backbone (blocks, a trainable
micro-network, and the nano preset). Every call runs under a tape, probes
included, so batch norm uses batch statistics, as whenever it records.
Max-pool and ReLU paths use tie-safe inputs (distinct values spaced
well beyond the probe step) so the central difference never straddles an
argmax flip or a kink.

Every check is one ``finite_diff_check`` call: on one input tensor, or on a
sample of a network's learnable parameters, under an all-ones cotangent or,
where a sum would hide the gradient (a batch-norm output sums to a
constant), a random one. Under a tape batch norm normalizes by the
batch's own statistics and only writes its running stats, so the probes may
move them freely: no call of a probed function reads them.

Tolerances: 1e-4 everywhere, loosened to 1e-3 for batch-statistics
batch-norm paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attention import CEParams, SEParams, ce_forward, se_forward
from .backbone import (FusedMBConvBlock, MBConvBlock, NetworkConfig, StageSpec,
                       build_network, nano_config)
from .params import ParamStore, init_weights
from .safm import SAFMParams, dp_safm_forward
from .tensor import ConvSpec, Tensor, add, conv2d, conv_bn_act, finite_diff_check, pool
from .train import cross_entropy_loss

TOL = 1e-4
TOL_BN_TRAIN = 1e-3


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol


def _tie_safe(rng: np.random.Generator, shape: tuple[int, ...],
              spacing: float = 0.05) -> Tensor:
    """All entries distinct with gaps >= spacing (far beyond the 1e-3 probe),
    shuffled, zero-mean-ish."""
    n = int(np.prod(shape))
    vals = spacing * (rng.permutation(n) - n / 2.0)
    return Tensor(vals.reshape(shape))


def _check(name: str, tol: float, f, x, **kw) -> CheckResult:
    """Time one finite_diff_check(f, x, **kw)."""
    t0 = time.perf_counter()
    err = finite_diff_check(f, x, **kw)
    return CheckResult(name, float(err), tol, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# tensor group


def _tensor_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20)

    w_std = Tensor(rng.normal(0, 0.5, (4, 3, 3, 3)))
    b_std = Tensor(rng.normal(0, 0.5, (1, 4, 1, 1)))
    spec_std = ConvSpec(3, 4, 3, 3, stride=1, padding=1)
    x0 = Tensor(rng.normal(0, 1, (2, 3, 5, 5)))
    out.append(_check("conv2d standard wrt x", TOL, lambda x: conv2d(x, w_std, b_std, spec_std),
                      Tensor(x0.data.copy())))
    out.append(_check("conv2d standard wrt w", TOL, lambda w: conv2d(x0, w, b_std, spec_std),
                      Tensor(w_std.data.copy())))
    out.append(_check("conv2d standard wrt bias", TOL, lambda b: conv2d(x0, w_std, b, spec_std),
                      Tensor(b_std.data.copy())))

    w_dw = Tensor(rng.normal(0, 0.5, (4, 1, 3, 3)))
    spec_dw = ConvSpec(4, 4, 3, 3, stride=2, padding=1, groups=4)
    x1 = Tensor(rng.normal(0, 1, (2, 4, 6, 6)))
    out.append(_check("conv2d depthwise stride-2 wrt x", TOL,
                      lambda x: conv2d(x, w_dw, None, spec_dw), Tensor(x1.data.copy())))
    out.append(_check("conv2d depthwise stride-2 wrt w", TOL,
                      lambda w: conv2d(x1, w, None, spec_dw), Tensor(w_dw.data.copy())))

    w_pw = Tensor(rng.normal(0, 0.5, (6, 4, 1, 1)))
    spec_pw = ConvSpec(4, 6, 1, 1)
    out.append(_check("conv2d pointwise wrt x", TOL, lambda x: conv2d(x, w_pw, None, spec_pw),
                      Tensor(x1.data.copy())))

    gate = rng.normal(0, 1, (2, 3, 5, 5))
    gate_pool = rng.normal(0, 1, (2, 3, 1, 1))
    out.append(_check("pool global-avg", TOL, pool, Tensor(rng.normal(0, 1, (2, 3, 5, 5))),
                      cotangent=gate_pool))
    out.append(_check("add", TOL, lambda a: add(a, x0), Tensor(rng.normal(0, 1, (2, 3, 5, 5))),
                      cotangent=gate))

    out.append(_check("cross_entropy wrt logits", TOL,
                      lambda z: cross_entropy_loss(z, [0, 3, 2, 4]),
                      Tensor(rng.normal(0, 2, (4, 5, 1, 1)))))

    # the fused op under a random cotangent, one probed operand at a time
    operands = [Tensor(x0.data.copy()), Tensor(w_std.data.copy()),
                Tensor(rng.normal(1.0, 0.2, (1, 4, 1, 1))),
                Tensor(rng.normal(0.0, 0.2, (1, 4, 1, 1)))]
    stats = [Tensor(rng.normal(0.0, 0.3, (1, 4, 1, 1))),
             Tensor(rng.uniform(0.5, 1.5, (1, 4, 1, 1)))]
    gate_cba = rng.normal(0, 1, (2, 4, 5, 5))
    for act in ("silu", None):
        for i, wrt in enumerate(("x", "w", "gamma", "beta")):
            def cba(t):
                args = operands[:i] + [t] + operands[i + 1:]
                return conv_bn_act(*args, *stats, spec_std, act)

            out.append(_check(f"conv_bn_act train act={act} wrt {wrt}", TOL_BN_TRAIN, cba,
                              Tensor(operands[i].data.copy()), cotangent=gate_cba))
    return out


# ---------------------------------------------------------------------------
# ce group


def _ce_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(21)
    store = ParamStore()
    params = CEParams(store, "blk", 8)
    init_weights(store, rng)
    x = _tie_safe(rng, (2, 8, 5, 5))
    out.append(_check("ce_forward wrt x", TOL, lambda t: ce_forward(t, params),
                      Tensor(x.data.copy())))
    x_fixed = _tie_safe(rng, (1, 8, 4, 4))
    for wname, (w, _, _) in (("mlp1_w", params.mlp[0]), ("out_w", params.post[0])):
        out.append(_check(f"ce_forward wrt {wname}", TOL,
                          lambda _: ce_forward(x_fixed, params), w))

    store = ParamStore()
    se = SEParams(store, "blk", 8, r=4)
    init_weights(store, rng)
    x = Tensor(rng.normal(0, 1, (2, 8, 5, 5)))
    out.append(_check("se_forward wrt x", TOL, lambda t: se_forward(t, se),
                      Tensor(x.data.copy())))
    out.append(_check("se_forward wrt reduce_w", TOL, lambda _: se_forward(x, se), se.mlp[0][0]))
    return out


# ---------------------------------------------------------------------------
# safm group


def _safm_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(22)
    for mode in ("depthwise-separable", "standard"):
        store = ParamStore()
        params = SAFMParams(store, "blk", 8, mode=mode)
        init_weights(store, rng)
        x = _tie_safe(rng, (1, 8, 8, 8), spacing=0.02)
        out.append(_check(f"dp_safm_forward ({mode}) wrt x", TOL,
                          lambda t: dp_safm_forward(t, params), Tensor(x.data.copy())))
        # the GELU gate's curvature compounds over the fused sum, so weight
        # perturbations need a finer step to keep truncation error in check
        x_fixed = _tie_safe(rng, (1, 8, 8, 8), spacing=0.02)
        key = "dw" if mode == "depthwise-separable" else "std"
        for name, w in (("fuse_w", params.fuse[0]),
                        (f"branch-2 {key} weight", params.convs[1][0][0])):
            out.append(_check(f"dp_safm_forward ({mode}) wrt {name}", TOL,
                              lambda _: dp_safm_forward(x_fixed, params), w,
                              step=1e-4))
    # the standard-mode params on sides that 2, 4 and 8 do not divide:
    # truncated pool windows and non-integer upsample factors
    x = _tie_safe(rng, (1, 8, 10, 7), spacing=0.02)
    out.append(_check("dp_safm_forward (standard) 10x7 wrt x", TOL,
                      lambda t: dp_safm_forward(t, params), Tensor(x.data.copy())))
    out.append(_check("dp_safm_forward (standard) 10x7 wrt branch-4 std weight", TOL,
                      lambda _: dp_safm_forward(x, params), params.convs[3][0][0],
                      step=1e-4))
    return out


# ---------------------------------------------------------------------------
# backbone group


def _micro_config() -> NetworkConfig:
    return NetworkConfig(
        stem_channels=8,
        stages=[
            StageSpec("fused-mbconv", 8, expansion=1, stride=1, repeats=1, safm_after=True),
            StageSpec("mbconv", 16, expansion=2, stride=2, repeats=1, attention="ce"),
        ],
        head_channels=16,
        num_classes=2,
        input_size=16,
    )


def _backbone_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(23)

    store = ParamStore()
    fused = FusedMBConvBlock(store, "f4", 4, 8, 4, 2)
    init_weights(store, rng)
    x = _tie_safe(rng, (2, 4, 6, 6), spacing=0.03)
    # both blocks end in batch norm, whose output sums to a constant, so a
    # random cotangent, from its own seed to leave the later inputs as
    # drawn, probes what the sum's zero gradient hides
    out.append(_check("fused-mbconv e4 train wrt x", TOL_BN_TRAIN,
                      fused.forward, Tensor(x.data.copy()),
                      cotangent=np.random.default_rng(46).normal(0, 1, (2, 8, 3, 3))))

    store = ParamStore()
    mb = MBConvBlock(store, "m", 4, 8, 2, 1, "ce")
    init_weights(store, rng)
    x2 = _tie_safe(rng, (2, 4, 6, 6), spacing=0.03)
    out.append(_check("mbconv+ce train wrt x", TOL_BN_TRAIN,
                      mb.forward, Tensor(x2.data.copy()),
                      cotangent=np.random.default_rng(47).normal(0, 1, (2, 8, 6, 6))))

    net, mstore = build_network(_micro_config(), seed=31)
    xin = _tie_safe(rng, (2, 3, 16, 16), spacing=0.004)
    xin.data[...] = (xin.data - xin.data.min()) / (xin.data.max() - xin.data.min())
    out.append(_check("micro-network train (BN coupling), 50 sampled params", TOL_BN_TRAIN,
                      lambda _: cross_entropy_loss(net.forward(xin), [0, 1]),
                      [t for _, t in mstore.learnable_items()], max_coords=50,
                      rng=np.random.default_rng(42)))

    nano, nstore = build_network(nano_config(), seed=7)
    xn = Tensor(np.random.default_rng(43).uniform(0.0, 1.0, (2, 3, 64, 64)))
    out.append(_check("nano network train wrt input (30 coords)", TOL_BN_TRAIN, nano.forward,
                      Tensor(xn.data.copy()), max_coords=30, rng=np.random.default_rng(44)))
    out.append(_check("nano network train, 30 sampled params", TOL_BN_TRAIN,
                      lambda _: cross_entropy_loss(nano.forward(xn), [2, 0]),
                      [t for _, t in nstore.learnable_items()], max_coords=30,
                      rng=np.random.default_rng(45)))
    return out


_RUNNERS = {"tensor": _tensor_checks, "ce": _ce_checks, "safm": _safm_checks,
            "backbone": _backbone_checks}
GROUPS = tuple(_RUNNERS)


def run_gradcheck(module: str = "all") -> list[CheckResult]:
    if module not in GROUPS + ("all",):
        raise ValueError(f"unknown gradcheck module {module!r}; "
                         f"choose from all, {', '.join(GROUPS)}")
    results: list[CheckResult] = []
    for name in GROUPS if module == "all" else (module,):
        results.extend(_RUNNERS[name]())
    return results
