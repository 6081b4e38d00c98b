"""Multi-branch feature enhancement block: three parallel convolution
branches (asymmetric pairs feeding a dilated or deformable 3x3), channel
concatenated and added to a 1x1 residual projection of the input.

Channel plan: each branch reduces to width/3 with its leading 1x1 and keeps
that width; the residual projects straight to the full width.  All stage
convolutions carry bias and preserve the spatial extents.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .convops import Conv2dParams, DeformableParams, _same_pad, conv2d, deformable_conv2d
from .errors import ConfigError, ShapeError

@dataclass(frozen=True)
class CfeParams:
    """Each branch is the tuple of its stage params in application order:
    branch1 (1x1, 1x3, 3x1, dilated 3x3), branch2 (1x1, 1x5, 5x1, dilated
    3x3), branch3 (1x1, 3x1, 1x3, deformable 3x3)."""

    branch1: tuple
    branch2: tuple
    branch3: tuple
    residual: Conv2dParams
    activation: str = "relu"


def _run_branch(f, stages: tuple, activation: str, kinks: dict | None):
    x = f
    for stage in stages:
        if isinstance(stage, DeformableParams):
            x = deformable_conv2d(x, stage, activation, kinks)
        else:
            x = conv2d(x, stage, activation)
    return x


def join_branches(branches: list, residual):
    """Channel concatenation of the branches plus the residual, one tape
    node; the branch widths must sum to the residual's.  Its VJP hands
    each branch its contiguous channel slice of the output gradient and
    the residual the gradient itself."""
    vals = [T._val(b) for b in branches]
    rv = T._val(residual)
    for v in vals:
        if v.ndim != 3 or v.shape[1:] != rv.shape[1:]:
            raise ShapeError(f"branch dims {list(v.shape)} disagree with residual {list(rv.shape)}")
    bounds = np.cumsum([0] + [v.shape[0] for v in vals])
    if bounds[-1] != rv.shape[0]:
        raise ShapeError(f"branch concat width {bounds[-1]} != residual width {rv.shape[0]}")
    out = np.concatenate(vals, axis=0)
    out += rv

    def grads(g):
        return tuple(g[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])) + (g,)

    return T._emit(tuple(branches) + (residual,), out, grads)


def cfe_forward(f, p: CfeParams, kinks: dict | None = None):
    """[C_in, H, W] -> [width, H, W], width the residual's output width;
    no activation after the residual add.  kinks freezes the deformable
    stage's offsets (deformable_conv2d)."""
    branches = [_run_branch(f, stages, p.activation, kinks)
                for stages in (p.branch1, p.branch2, p.branch3)]
    return join_branches(branches, conv2d(f, p.residual))


def _surrogate_stage(stage):
    """Positive-weight, bias-free copy so responses cannot cancel."""
    def strip(c: Conv2dParams) -> Conv2dParams:
        return replace(c, weights=T.tensor(np.abs(T._val(c.weights))),
                       bias=T.zeros([T._val(c.bias).shape[0]]))

    if isinstance(stage, DeformableParams):
        pred = stage.offset_predictor
        zero_pred = replace(pred, weights=T.zeros(list(T._val(pred.weights).shape)),
                            bias=T.zeros([T._val(pred.bias).shape[0]]))
        return DeformableParams(strip(stage.base), zero_pred)
    return strip(stage)


def _reach(stage) -> int:
    """How far a stage can spread a response: its (deformable base's) larger padding."""
    c = stage.base if isinstance(stage, DeformableParams) else stage
    return max(_same_pad(k, c.dilation) for k in T._val(c.weights).shape[2:])


def cfe_receptive_probe(p: CfeParams) -> int:
    """Chebyshev support radius of the response to a centered unit impulse.

    Measured on a magnitude surrogate (absolute kernels, zero biases, zero
    offsets, no activation) so the radius reflects connectivity rather than
    sign cancellation; a single 3x3 scores 1 under the same procedure.  The
    map reaches one pixel beyond the furthest any branch can spread it.
    """
    q = CfeParams(branch1=tuple(_surrogate_stage(s) for s in p.branch1),
                  branch2=tuple(_surrogate_stage(s) for s in p.branch2),
                  branch3=tuple(_surrogate_stage(s) for s in p.branch3),
                  residual=_surrogate_stage(p.residual), activation="none")
    c_in = T._val(p.residual.weights).shape[1]
    center = 1 + max(sum(_reach(s) for s in branch) for branch in (p.branch1, p.branch2, p.branch3))
    buf = np.zeros((c_in, 2 * center + 1, 2 * center + 1))
    buf[:, center, center] = 1.0
    out = T._val(cfe_forward(T.tensor(buf), q))
    support = np.abs(out).max(axis=0) > 1e-12
    ys, xs = np.nonzero(support)
    if ys.size == 0:
        return -1
    return int(max(np.abs(ys - center).max(), np.abs(xs - center).max()))


def _rand_conv(rng: T.Rng, c_out: int, c_in: int, kh: int, kw: int,
               dilation: int = 1, bias_scale: float = 0.1) -> Conv2dParams:
    w = rng.tensor([c_out, c_in, kh, kw], -0.1, 0.1)
    b = rng.tensor([c_out], -bias_scale, bias_scale)
    return Conv2dParams(weights=w, bias=b, dilation=dilation)


def make_cfe_params(rng: T.Rng, c_in: int, width: int, activation: str = "relu",
                    dilation: int = 2) -> CfeParams:
    """Seeded random parameters; the offset predictor has no bias."""
    if width % 3:
        raise ConfigError(f"fusion width {width} not divisible by 3")
    wb = width // 3
    branch1 = (_rand_conv(rng, wb, c_in, 1, 1),
               _rand_conv(rng, wb, wb, 1, 3),
               _rand_conv(rng, wb, wb, 3, 1),
               _rand_conv(rng, wb, wb, 3, 3, dilation=dilation))
    branch2 = (_rand_conv(rng, wb, c_in, 1, 1),
               _rand_conv(rng, wb, wb, 1, 5),
               _rand_conv(rng, wb, wb, 5, 1),
               _rand_conv(rng, wb, wb, 3, 3, dilation=dilation))
    base = _rand_conv(rng, wb, wb, 3, 3)
    predictor = _rand_conv(rng, 18, wb, 3, 3, bias_scale=0.0)
    branch3 = (_rand_conv(rng, wb, c_in, 1, 1),
               _rand_conv(rng, wb, wb, 3, 1),
               _rand_conv(rng, wb, wb, 1, 3),
               DeformableParams(base, predictor))
    residual = _rand_conv(rng, width, c_in, 1, 1)
    return CfeParams(branch1, branch2, branch3, residual, activation)
