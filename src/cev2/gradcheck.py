"""Finite-difference verification of every differentiable path.

Groups: tensor (raw kernels), ce, safm, backbone (blocks, a trainable
micro-network, and the nano preset in eval mode). Max-pool and ReLU paths use
tie-safe inputs (distinct values spaced well beyond the probe step) so the
central difference never straddles an argmax flip or a kink. Train-mode
batch-norm checks snapshot and restore running statistics inside the probed
function (or build fresh ones there), since the stat update is a side effect
the derivative must not see.

Tolerances: 1e-4 everywhere, loosened to 1e-3 for train-mode batch-norm
paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attention import CEParams, SEParams, ce_forward, se_forward
from .backbone import (FusedMBConvBlock, MBConvBlock, NetworkConfig, StageSpec,
                       build_network, nano_config)
from .params import ParamStore
from .safm import SAFMParams, dp_safm_forward
from .tensor import (ConvSpec, Tape, Tensor, _central_diff, activation, backward,
                     batch_norm, channel_concat, channel_split4, conv2d, conv_bn_act,
                     elementwise, finite_diff_check, pool, sum_all, upsample_to)
from .train import cross_entropy_loss

TOL = 1e-4
TOL_BN_TRAIN = 1e-3

GROUPS = ("tensor", "ce", "safm", "backbone")


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


def _away_from_zero(rng: np.random.Generator, shape: tuple[int, ...],
                    margin: float = 0.05) -> Tensor:
    """Magnitudes >= margin so ReLU/SiLU kinks sit far from every probe."""
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    mag = margin + rng.random(shape)
    return Tensor(sign * mag)


def _run(name: str, tol: float, fn) -> CheckResult:
    t0 = time.perf_counter()
    err = fn()
    return CheckResult(name, float(err), tol, time.perf_counter() - t0)


def _snapshot_stats(store: ParamStore) -> dict[str, np.ndarray]:
    return {n: store[n].data.copy() for n in store.names() if not store.is_learnable(n)}


def _restore_stats(store: ParamStore, snap: dict[str, np.ndarray]) -> None:
    for n, arr in snap.items():
        store[n].data[...] = arr


def _sweep_params(f_loss, store: ParamStore, n_coords: int,
                  rng: np.random.Generator, step: float = 1e-3) -> float:
    """FD-check n_coords randomly chosen learnable scalars against one
    analytic backward pass of f_loss (a no-arg closure returning the scalar
    loss Tensor; it must reset any state it perturbs)."""
    store.zero_grads()
    tape = Tape()
    with tape:
        loss = f_loss()
    backward(tape, loss)

    learnables = [t for _, t in store.learnable_items()]
    n = sum(t.numel for t in learnables)
    chosen = rng.choice(n, size=min(n_coords, n), replace=False)
    return _central_diff(lambda: f_loss().item(), [t.data.reshape(-1) for t in learnables],
                         [None if t.grad is None else t.grad.reshape(-1) for t in learnables],
                         chosen, step)


# ---------------------------------------------------------------------------
# tensor group


def _tensor_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20)

    w_std = Tensor(rng.normal(0, 0.5, (4, 3, 3, 3)))
    b_std = Tensor(rng.normal(0, 0.5, (1, 4, 1, 1)))
    spec_std = ConvSpec(3, 4, 3, 3, stride=1, padding=1)
    x0 = Tensor(rng.normal(0, 1, (2, 3, 5, 5)))
    out.append(_run("conv2d standard wrt x", TOL, lambda: finite_diff_check(
        lambda x: sum_all(conv2d(x, w_std, b_std, spec_std)), Tensor(x0.data.copy()))))
    out.append(_run("conv2d standard wrt w", TOL, lambda: finite_diff_check(
        lambda w: sum_all(conv2d(x0, w, b_std, spec_std)), Tensor(w_std.data.copy()))))
    out.append(_run("conv2d standard wrt bias", TOL, lambda: finite_diff_check(
        lambda b: sum_all(conv2d(x0, w_std, b, spec_std)), Tensor(b_std.data.copy()))))

    w_dw = Tensor(rng.normal(0, 0.5, (4, 1, 3, 3)))
    spec_dw = ConvSpec(4, 4, 3, 3, stride=2, padding=1, groups=4)
    x1 = Tensor(rng.normal(0, 1, (2, 4, 6, 6)))
    out.append(_run("conv2d depthwise stride-2 wrt x", TOL, lambda: finite_diff_check(
        lambda x: sum_all(conv2d(x, w_dw, None, spec_dw)), Tensor(x1.data.copy()))))
    out.append(_run("conv2d depthwise stride-2 wrt w", TOL, lambda: finite_diff_check(
        lambda w: sum_all(conv2d(x1, w, None, spec_dw)), Tensor(w_dw.data.copy()))))

    w_pw = Tensor(rng.normal(0, 0.5, (6, 4, 1, 1)))
    spec_pw = ConvSpec(4, 6, 1, 1)
    out.append(_run("conv2d pointwise wrt x", TOL, lambda: finite_diff_check(
        lambda x: sum_all(conv2d(x, w_pw, None, spec_pw)), Tensor(x1.data.copy()))))

    gate = Tensor(rng.normal(0, 1, (2, 3, 5, 5)))
    gate_pool = Tensor(rng.normal(0, 1, (2, 3, 1, 1)))
    out.append(_run("pool global-avg", TOL, lambda: finite_diff_check(
        lambda x: sum_all(elementwise(pool(x, "global-avg"), gate_pool, "mul")),
        Tensor(rng.normal(0, 1, (2, 3, 5, 5))))))
    out.append(_run("pool global-max", TOL, lambda: finite_diff_check(
        lambda x: sum_all(elementwise(pool(x, "global-max"), gate_pool, "mul")),
        _tie_safe(rng, (2, 3, 5, 5)))))
    gate_w = Tensor(rng.normal(0, 1, (2, 3, 3, 3)))
    out.append(_run("pool window-max (non-divisible)", TOL, lambda: finite_diff_check(
        lambda x: sum_all(elementwise(pool(x, "window-max", 2, 2), gate_w, "mul")),
        _tie_safe(rng, (2, 3, 5, 5)))))

    gate_to = Tensor(rng.normal(0, 1, (1, 2, 8, 11)))
    out.append(_run("upsample_to 5x7 -> 8x11", TOL, lambda: finite_diff_check(
        lambda x: sum_all(elementwise(upsample_to(x, 8, 11), gate_to, "mul")),
        Tensor(rng.normal(0, 1, (1, 2, 5, 7))))))

    gate_act = Tensor(rng.normal(0, 1, (2, 3, 4, 4)))
    for kind in ("relu", "gelu", "sigmoid", "silu"):
        x_act = _away_from_zero(rng, (2, 3, 4, 4)) if kind in ("relu",) else Tensor(
            rng.normal(0, 1.5, (2, 3, 4, 4)))
        out.append(_run(f"activation {kind}", TOL, lambda x_act=x_act, kind=kind:
                        finite_diff_check(lambda x: sum_all(elementwise(
                            activation(x, kind), gate_act, "mul")), x_act)))

    vec = Tensor(rng.normal(0, 1, (2, 3, 1, 1)))
    out.append(_run("elementwise mul broadcast wrt a", TOL, lambda: finite_diff_check(
        lambda a: sum_all(elementwise(elementwise(a, vec, "mul"), gate, "mul")),
        Tensor(rng.normal(0, 1, (2, 3, 5, 5))))))
    out.append(_run("elementwise mul broadcast wrt b", TOL, lambda: finite_diff_check(
        lambda b: sum_all(elementwise(elementwise(x0, b, "mul"), gate, "mul")),
        Tensor(vec.data.copy()))))
    out.append(_run("elementwise add", TOL, lambda: finite_diff_check(
        lambda a: sum_all(elementwise(elementwise(a, x0, "add"), gate, "mul")),
        Tensor(rng.normal(0, 1, (2, 3, 5, 5))))))

    mix = Tensor(rng.normal(0, 1, (1, 8, 4, 4)))
    out.append(_run("channel_split4 + concat", TOL, lambda: finite_diff_check(
        lambda x: sum_all(elementwise(channel_concat(list(channel_split4(x))[::-1]),
                                      mix, "mul")), Tensor(rng.normal(0, 1, (1, 8, 4, 4))))))

    c = 3
    gamma = Tensor(rng.normal(1.0, 0.2, (1, c, 1, 1)))
    beta = Tensor(rng.normal(0.0, 0.2, (1, c, 1, 1)))
    rm = Tensor(rng.normal(0.0, 0.3, (1, c, 1, 1)))
    rv = Tensor(rng.uniform(0.5, 1.5, (1, c, 1, 1)))
    xbn = Tensor(rng.normal(0, 1, (4, c, 3, 3)))

    def bn_eval_loss(x):
        return sum_all(elementwise(batch_norm(
            x, gamma, beta, rm, rv, "eval"), gate_bn, "mul"))

    gate_bn = Tensor(rng.normal(0, 1, (4, c, 3, 3)))
    out.append(_run("batch_norm eval wrt x", TOL, lambda: finite_diff_check(
        bn_eval_loss, Tensor(xbn.data.copy()))))
    out.append(_run("batch_norm eval wrt gamma", TOL, lambda: finite_diff_check(
        lambda g: sum_all(elementwise(batch_norm(xbn, g, beta, rm, rv, "eval"),
                                      gate_bn, "mul")), Tensor(gamma.data.copy()))))

    rm0, rv0 = rm.data.copy(), rv.data.copy()

    def bn_train_loss(x):
        rm.data[...] = rm0
        rv.data[...] = rv0
        return sum_all(elementwise(batch_norm(
            x, gamma, beta, rm, rv, "train"), gate_bn, "mul"))

    def bn_train_loss_beta(b):
        rm.data[...] = rm0
        rv.data[...] = rv0
        return sum_all(elementwise(batch_norm(xbn, gamma, b, rm, rv, "train"),
                                   gate_bn, "mul"))

    out.append(_run("batch_norm train wrt x", TOL_BN_TRAIN, lambda: finite_diff_check(
        bn_train_loss, Tensor(xbn.data.copy()))))
    out.append(_run("batch_norm train wrt beta", TOL_BN_TRAIN, lambda: finite_diff_check(
        bn_train_loss_beta, Tensor(beta.data.copy()))))

    logits0 = Tensor(rng.normal(0, 2, (4, 5, 1, 1)))
    labels = [0, 3, 2, 4]
    out.append(_run("cross_entropy wrt logits", TOL, lambda: finite_diff_check(
        lambda z: cross_entropy_loss(z, labels), Tensor(logits0.data.copy()))))

    # the fused op against the same gated loss, one probed operand at a time;
    # eval entries read non-trivial running stats
    operands = [Tensor(x0.data.copy()), Tensor(w_std.data.copy()),
                Tensor(rng.normal(1.0, 0.2, (1, 4, 1, 1))),
                Tensor(rng.normal(0.0, 0.2, (1, 4, 1, 1)))]
    rm4 = rng.normal(0.0, 0.3, (1, 4, 1, 1))
    rv4 = rng.uniform(0.5, 1.5, (1, 4, 1, 1))
    gate_cba = Tensor(rng.normal(0, 1, (2, 4, 5, 5)))
    for mode, tol in (("train", TOL_BN_TRAIN), ("eval", TOL)):
        for act in ("silu", None):
            for i, wrt in enumerate(("x", "w", "gamma", "beta")):
                def cba_loss(t, mode=mode, act=act, i=i):
                    args = operands[:i] + [t] + operands[i + 1:]
                    return sum_all(elementwise(conv_bn_act(
                        *args, Tensor(rm4.copy()), Tensor(rv4.copy()), spec_std, mode, act),
                        gate_cba, "mul"))

                out.append(_run(f"conv_bn_act {mode} act={act} wrt {wrt}", tol,
                                lambda f=cba_loss, i=i: finite_diff_check(
                                    f, Tensor(operands[i].data.copy()))))
    return out


# ---------------------------------------------------------------------------
# ce group


def _ce_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(21)
    for shared in (True, False):
        store = ParamStore()
        params = CEParams(store, "blk", 8, rng, shared_mlp=shared)
        label = "shared" if shared else "unshared"
        x = _tie_safe(rng, (2, 8, 5, 5))
        out.append(_run(f"ce_forward ({label}) wrt x", TOL, lambda x=x, params=params:
                        finite_diff_check(lambda t: sum_all(ce_forward(t, params)),
                                          Tensor(x.data.copy()))))
        x_fixed = _tie_safe(rng, (1, 8, 4, 4))
        for wname in ("mlp1_w", "out_w"):
            w = getattr(params, wname)
            out.append(_run(f"ce_forward ({label}) wrt {wname}", TOL,
                            lambda w=w, x_fixed=x_fixed, params=params:
                            finite_diff_check(lambda t: sum_all(ce_forward(x_fixed, params)),
                                              w)))

    store = ParamStore()
    se = SEParams(store, "blk", 8, rng, r=4)
    x = Tensor(rng.normal(0, 1, (2, 8, 5, 5)))
    out.append(_run("se_forward wrt x", TOL, lambda: finite_diff_check(
        lambda t: sum_all(se_forward(t, se)), Tensor(x.data.copy()))))
    out.append(_run("se_forward wrt reduce_w", TOL, lambda: finite_diff_check(
        lambda t: sum_all(se_forward(x, se)), se.reduce_w)))
    return out


# ---------------------------------------------------------------------------
# safm group


def _safm_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(22)
    for mode in ("depthwise-separable", "standard"):
        store = ParamStore()
        params = SAFMParams(store, "blk", 8, rng, mode=mode)
        x = _tie_safe(rng, (1, 8, 8, 8), spacing=0.02)
        out.append(_run(f"dp_safm_forward ({mode}) wrt x", TOL, lambda x=x, params=params:
                        finite_diff_check(lambda t: sum_all(dp_safm_forward(t, params)),
                                          Tensor(x.data.copy()))))
        # the GELU gate's curvature compounds over the fused sum, so weight
        # perturbations need a finer step to keep truncation error in check
        x_fixed = _tie_safe(rng, (1, 8, 8, 8), spacing=0.02)
        out.append(_run(f"dp_safm_forward ({mode}) wrt fuse_w", TOL,
                        lambda x_fixed=x_fixed, params=params:
                        finite_diff_check(lambda t: sum_all(
                            dp_safm_forward(x_fixed, params)), params.fuse_w,
                            step=1e-4)))
        branch = params.branches[1]
        key = "dw" if mode == "depthwise-separable" else "std"
        bw = branch[key][0]
        out.append(_run(f"dp_safm_forward ({mode}) wrt branch-2 {key} weight", TOL,
                        lambda bw=bw, x_fixed=x_fixed, params=params:
                        finite_diff_check(lambda t: sum_all(
                            dp_safm_forward(x_fixed, params)), bw, step=1e-4)))
    return out


# ---------------------------------------------------------------------------
# backbone group


def _micro_config() -> NetworkConfig:
    return NetworkConfig(
        stem_channels=8,
        stages=[
            StageSpec("fused-mbconv", 8, 8, expansion=1, stride=1, repeats=1,
                      safm_after=True),
            StageSpec("mbconv", 8, 16, expansion=2, stride=2, repeats=1, attention="ce"),
        ],
        head_channels=16,
        num_classes=2,
        input_size=16,
    )


def _backbone_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(23)

    store = ParamStore()
    fused = FusedMBConvBlock(store, "f4", rng, 4, 8, 4, 2)
    snap = _snapshot_stats(store)
    x = _tie_safe(rng, (2, 4, 6, 6), spacing=0.03)
    out.append(_run("fused-mbconv e4 eval wrt x", TOL, lambda: finite_diff_check(
        lambda t: sum_all(fused.forward(t, "eval")), Tensor(x.data.copy()))))

    def fused_train_loss(t):
        _restore_stats(store, snap)
        return sum_all(fused.forward(t, "train"))

    out.append(_run("fused-mbconv e4 train wrt x", TOL_BN_TRAIN, lambda: finite_diff_check(
        fused_train_loss, Tensor(x.data.copy()))))

    store2 = ParamStore()
    mb = MBConvBlock(store2, "m", rng, 4, 8, 2, 1, "ce")
    x2 = _tie_safe(rng, (2, 4, 6, 6), spacing=0.03)
    out.append(_run("mbconv+ce eval wrt x", TOL, lambda: finite_diff_check(
        lambda t: sum_all(mb.forward(t, "eval")), Tensor(x2.data.copy()))))

    net, mstore = build_network(_micro_config(), seed=31)
    xin = _tie_safe(rng, (2, 3, 16, 16), spacing=0.004)
    xin.data[...] = (xin.data - xin.data.min()) / (xin.data.max() - xin.data.min())
    labels = [0, 1]
    msnap = _snapshot_stats(mstore)

    def micro_eval_loss():
        return cross_entropy_loss(net.forward(xin, "eval"), labels)

    def micro_train_loss():
        _restore_stats(mstore, msnap)
        return cross_entropy_loss(net.forward(xin, "train"), labels)

    out.append(_run("micro-network eval, 50 sampled params", TOL,
                    lambda: _sweep_params(micro_eval_loss, mstore, 50,
                                          np.random.default_rng(41))))
    out.append(_run("micro-network train (BN coupling), 50 sampled params", TOL_BN_TRAIN,
                    lambda: _sweep_params(micro_train_loss, mstore, 50,
                                          np.random.default_rng(42))))

    nano, nstore = build_network(nano_config(), seed=7)
    xn = Tensor(np.random.default_rng(43).uniform(0.0, 1.0, (1, 3, 64, 64)))

    out.append(_run("nano network eval wrt input (30 coords)", TOL,
                    lambda: finite_diff_check(
                        lambda t: sum_all(nano.forward(t, "eval")),
                        Tensor(xn.data.copy()), max_coords=30,
                        rng=np.random.default_rng(44))))

    def nano_loss():
        return cross_entropy_loss(nano.forward(xn, "eval"), [2])

    out.append(_run("nano network eval, 30 sampled params", TOL,
                    lambda: _sweep_params(nano_loss, nstore, 30,
                                          np.random.default_rng(45))))
    return out


def run_gradcheck(module: str = "all") -> list[CheckResult]:
    if module not in GROUPS + ("all",):
        raise ValueError(f"unknown gradcheck module {module!r}; "
                         f"choose from all, {', '.join(GROUPS)}")
    runners = {"tensor": _tensor_checks, "ce": _ce_checks,
               "safm": _safm_checks, "backbone": _backbone_checks}
    selected = GROUPS if module == "all" else (module,)
    results: list[CheckResult] = []
    for name in selected:
        results.extend(runners[name]())
    return results
