"""Weighted bidirectional fusion pyramid with routed-attention refinement
of the two top-down intermediate nodes, plus the full assembly that runs
the feature-enhancement block on every backbone level first.

Levels are keyed 2..5 finest to coarsest; spatial extents halve per level
and every pyramid map shares one channel width.  Fusion weights are raw
scalars clamped non-negative inside fuse, so they may be plain floats or
tape leaves interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import ba_forward, make_bra_params
from .cfe import _rand_conv, cfe_forward, make_cfe_params
from .convops import conv2d
from .errors import (ConfigError, FormatError, NumericError, PartitionError,
                     PipelineError, ShapeError)
from .instrumentation import active_record

LEVELS = (2, 3, 4, 5)


@dataclass(frozen=True)
class FusionWeights:
    """Raw weights per fusion node; tuple length is the node's input count.

    mid nodes are the top-down intermediates, out nodes the final maps.
    Input order within each tuple follows the fuse call: same-level input
    first, then the refined/lateral term, then the neighbouring level,
    which fuse resamples to the node's extent.
    """

    p2_out: tuple = (1.0, 1.0)
    p3_mid: tuple = (1.0, 1.0)
    p3_out: tuple = (1.0, 1.0, 1.0)
    p4_mid: tuple = (1.0, 1.0)
    p4_out: tuple = (1.0, 1.0, 1.0)
    p5_out: tuple = (1.0, 1.0)
    epsilon: float = 1e-4


@dataclass(frozen=True)
class PipelineParams:
    """cfe/projection are level-keyed dicts, exactly one of them present:
    the enhancement block runs when cfe is, a 1x1 projection otherwise.
    bra holds the two refined levels {4, 3}, or is None when the
    intermediates are not refined."""

    cfe: dict | None
    projection: dict | None
    bra: dict | None
    fusion: FusionWeights


def _blocks(a):
    """The [C, H, 2, W, 2] view of a [C, 2H, 2W] array's 2x2 blocks."""
    c, h, w = a.shape
    return a.reshape(c, h // 2, 2, w // 2, 2)


def _mean2(x, out, pairs):
    """out = the means of x's disjoint 2x2 blocks, rows first, then
    columns; pairs is a [len(x), H, 2W] scratch for a [len(x), H, W] out."""
    np.add(x[:, 0::2], x[:, 1::2], out=pairs)
    pairs /= 2
    np.add(pairs[:, :, 0::2], pairs[:, :, 1::2], out=out)
    out /= 2
    return out


def _reading(dims, shape) -> str:
    """How fuse reads an input of these dims at output dims shape: as it
    is, pixel-replicated from half the extent, or averaged from twice it."""
    if dims == shape:
        return "same"
    if len(dims) == len(shape) == 3 and dims[0] == shape[0]:
        if (2 * dims[1], 2 * dims[2]) == shape[1:]:
            return "half"
        if dims[1:] == (2 * shape[1], 2 * shape[2]):
            return "double"
    raise ShapeError(f"fuse input dims {list(dims)} are neither {list(shape)} nor a [C,H,W] "
                     "map at half or twice its extent")


def _as_scalar(w):
    if isinstance(w, (T.Tensor, T.Node)):
        if T._val(w).size != 1:
            raise ShapeError(f"fusion weight must be scalar, got dims {list(T._val(w).shape)}")
        return w
    return T.tensor([float(w)])


def fuse(inputs, raw_weights, epsilon: float):
    """sum(max(w_i,0) * x_i) / (sum(max(w_i,0)) + epsilon), elementwise,
    every input read at input 0's dims.

    An input of those dims is read as it is.  A [C, H, W] input at half
    the extent is pixel-replicated into 2x2 blocks; one at twice the
    extent is averaged over disjoint 2x2 blocks, rows first, then columns.
    Any other dims, a different channel count included, raise ShapeError.

    One tape node.  The output is accumulated in place, one block of
    leading-axis rows at a time, with one block-sized temporary (and one
    for the averaging) per share of the blocks, which large calls run on
    the worker pool: ((u_0 x_0 + u_1 x_1) + u_2 x_2) / denom, u_i the
    clamped weights.  A replicated input's VJP sums each 2x2 block of its
    gradient; an averaged one's quarters its gradient and repeats it over
    each block.  The backward recomputes the numerator for the weights'
    gradient instead of keeping it.
    """
    if len(inputs) < 1:
        raise ShapeError("fuse needs at least one input")
    if len(raw_weights) != len(inputs):
        raise ShapeError(f"{len(raw_weights)} weights for {len(inputs)} inputs")
    if not 0 <= epsilon < np.inf:
        raise ConfigError(f"epsilon must be finite and >= 0, got {epsilon}")
    xs = [T._val(x) for x in inputs]
    shape = xs[0].shape
    kinds = [_reading(x.shape, shape) for x in xs]
    scalars = [_as_scalar(w) for w in raw_weights]
    record = active_record()
    masks, us = [], []
    for w in scalars:
        v = T._val(w)
        if record is not None:
            record.margin("clamp", np.abs(v))
        masks.append((v > 0.0).astype(np.float64))
        us.append(v * masks[-1])
    denom = us[0]
    for u in us[1:]:
        denom = denom + u
    denom = denom + np.array([float(epsilon)])
    if denom[0] == 0.0:
        raise NumericError("fusion denominator is zero: all weights clamped away and epsilon is 0")

    rows = T._block_rows(shape)
    n_blocks = -(-shape[0] // rows)
    work = 2 * len(xs) * xs[0].size  # element operations: a multiply and an add per input

    def term(i, lo, out, pairs):
        """out = u_i x_i over the block of rows from lo; pairs is the
        averaging scratch."""
        x = xs[i][lo:lo + rows]
        if kinds[i] == "half":
            np.multiply(x[:, :, None, :, None], us[i], out=_blocks(out))
        elif kinds[i] == "double":
            np.multiply(_mean2(x, out, pairs[:len(out)]), us[i], out=out)
        else:
            np.multiply(x, us[i], out=out)

    def numerator(out, divide: bool):
        """out = (u_0 x_0 + u_1 x_1) + ..., divided by denom if asked,
        block by block; the blocks are T._run_rows's rows, each share
        with scratch of its own."""
        def blocks(claimed):
            n = min(rows, shape[0])
            tmp = np.empty((n,) + shape[1:])
            pairs = np.empty((n, shape[1], 2 * shape[2])) if "double" in kinds else None
            for b in claimed:
                lo = b * rows
                o = out[lo:lo + rows]
                t = tmp[:len(o)]
                term(0, lo, o, pairs)
                for i in range(1, len(xs)):
                    term(i, lo, t, pairs)
                    o += t
                if divide:
                    o /= denom

        T._run_rows(n_blocks, blocks, work)
        return out

    out = numerator(np.empty(shape), divide=True)
    need_x, need_w = T._on_tape(*inputs), T._on_tape(*scalars)

    def spread(g, kind):
        """The gradient of an input read as kind, from g = d/d(what was read)."""
        if kind == "half":
            return _blocks(g).sum(axis=(2, 4))
        if kind == "double":
            g /= 2
            g /= 2
            return np.repeat(np.repeat(g, 2, axis=2), 2, axis=1)
        return g

    def grads(g):
        gnum = g / denom
        gx = [spread(gnum * u, kind) if need else None
              for u, need, kind in zip(us, need_x, kinds)]
        gw = [None] * len(us)
        if any(need_w):
            every = tuple(range(g.ndim))
            gden = np.negative(g)
            gden *= numerator(np.empty(shape), divide=False)
            gden /= denom * denom
            gden = gden.sum(axis=every).reshape(1)
            for i, need in enumerate(need_w):
                if not need:
                    continue
                x = xs[i]
                if kinds[i] == "half":
                    prod = (_blocks(gnum) * x[:, :, None, :, None]).reshape(shape)
                elif kinds[i] == "double":
                    prod = gnum * _mean2(x, np.empty(shape), np.empty(x[:, 0::2].shape))
                else:
                    prod = gnum * x
                gw[i] = (gden + prod.sum(axis=every).reshape(1)) * masks[i]
        return tuple(gx) + tuple(gw)

    return T._emit(tuple(inputs) + tuple(scalars), out, grads)


def _validate_params(p: PipelineParams) -> None:
    if (p.cfe is None) == (p.projection is None):
        raise ConfigError("want exactly one of feature-enhancement and projection params")
    if p.bra is not None and any(l not in p.bra for l in (3, 4)):
        raise ConfigError("attention params for levels 3 and 4 missing")


def _check_pyramid(maps: dict, stage: str, error: type) -> None:
    """Levels 2..5 as [C,H,W] maps whose extents halve; else raise error."""
    for lvl in LEVELS:
        if lvl not in maps:
            raise error(f"{stage} level {lvl} missing")
    prev = None
    for lvl in LEVELS:
        v = T._val(maps[lvl])
        if v.ndim != 3:
            raise error(f"{stage} level {lvl} must be [C,H,W], got {list(v.shape)}")
        if prev is not None:
            ph, pw = prev
            if ph % 2 or pw % 2 or v.shape[1] != ph // 2 or v.shape[2] != pw // 2:
                raise error(
                    f"{stage} level {lvl} extents {v.shape[1]}x{v.shape[2]} do not halve "
                    f"the previous level's {ph}x{pw}")
        prev = (v.shape[1], v.shape[2])


def _level_kinks(kinks: dict | None, level: int) -> dict | None:
    return None if kinks is None else kinks.setdefault(level, {})


def _refine(x, p: PipelineParams, level: int, kinks: dict | None):
    return x if p.bra is None else ba_forward(x, p.bra[level], kinks)


def afbifpn_forward(inputs: dict, p: PipelineParams, *,
                    kinks: dict | None = None) -> dict:
    """Stage-I maps {2..5} -> stage-O maps {2..5}.

    Node order: level-4 intermediate, its refinement, level-3 intermediate,
    its refinement, then outputs 2, 3, 4, 5.  Each refinement is computed
    once and reused by both consumers, so the routed-attention pass runs
    exactly twice.  Each fusion node resamples its inputs to its own level.

    kinks, a mutable level-keyed dict of dicts, freezes what a gradient
    check's perturbation could flip: kinks[level]["routing"] pins that
    level's region selection, and a forward that lacks it stores the one
    its attention pass decided (attention.ba_forward).

    The forward holds OpenBLAS at one thread until it returns
    (tensor.one_blas_thread), whatever other threads are running; the
    blocks of large fusions, attention stacks and local-context terms run
    on the pool's threads (tensor._run_rows).
    """
    _validate_params(p)
    with T.one_blas_thread():
        return _fuse_pyramid(dict(inputs), p, kinks)


def _fuse_pyramid(maps: dict, p: PipelineParams, kinks: dict | None) -> dict:
    """afbifpn_forward's nodes over a stage-I dict this call owns: each
    level's map, and each intermediate, is dropped after its last
    consumer, so an untaped forward frees it there."""
    _check_pyramid(maps, "stage-I", PipelineError)
    fw = p.fusion
    eps = fw.epsilon

    def node(name, fn):
        try:
            return fn()
        except ShapeError as exc:
            raise PipelineError(f"node {name}: {exc}") from exc
        except PartitionError as exc:
            raise PartitionError(f"node {name}: {exc}") from exc
        except NumericError as exc:
            raise NumericError(f"node {name}: {exc}") from exc

    p4f = node("level-4 intermediate", lambda: fuse([maps[4], maps[5]], fw.p4_mid, eps))
    a4 = node("level-4 refinement", lambda: _refine(p4f, p, 4, _level_kinks(kinks, 4)))
    del p4f
    p3f = node("level-3 intermediate", lambda: fuse([maps[3], a4], fw.p3_mid, eps))
    a3 = node("level-3 refinement", lambda: _refine(p3f, p, 3, _level_kinks(kinks, 3)))
    del p3f
    p2o = node("level-2 output", lambda: fuse([maps.pop(2), a3], fw.p2_out, eps))
    p3o = node("level-3 output", lambda: fuse([maps.pop(3), a3, p2o], fw.p3_out, eps))
    del a3
    p4o = node("level-4 output", lambda: fuse([maps.pop(4), a4, p3o], fw.p4_out, eps))
    del a4
    p5o = node("level-5 output", lambda: fuse([maps.pop(5), p4o], fw.p5_out, eps))
    return {2: p2o, 3: p3o, 4: p4o, 5: p5o}


def c_afbifpn_forward(backbone: dict, p: PipelineParams, *,
                      kinks: dict | None = None) -> dict:
    """Backbone maps {2..5} (any per-level widths) -> stage-O maps.  The
    one-BLAS-thread hold (afbifpn_forward) starts before the enhancement
    block or the projections, so every BLAS call of the forward runs on
    one thread.
    kinks, as in afbifpn_forward, also freezes each level's sampling
    offsets (cfe_forward)."""
    _validate_params(p)
    _check_pyramid(backbone, "backbone", FormatError)
    with T.one_blas_thread():
        stage_i = {}
        for lvl in LEVELS:
            if p.cfe is not None:
                stage_i[lvl] = cfe_forward(backbone[lvl], p.cfe[lvl], _level_kinks(kinks, lvl))
            else:
                stage_i[lvl] = conv2d(backbone[lvl], p.projection[lvl])
        return _fuse_pyramid(stage_i, p, kinks)


def build_pipeline_params(cfg, channels: dict) -> PipelineParams:
    """Seeded parameters for a config object and per-level backbone widths.

    cfg supplies seed, fusion_width, regions_s, topk_k, heads, epsilon,
    dilation, lce_kernel, activation, cfe_enabled and
    attention_fusion_enabled.  Draw order:
    one entry block per level 2..5 (feature enhancement, or a single 1x1
    projection when disabled), then attention params for level 4 and
    level 3.  Fusion weights start at raw 1.0 and consume no draws.
    """
    for lvl in LEVELS:
        if lvl not in channels:
            raise ConfigError(f"backbone width for level {lvl} missing")
    rng = T.Rng(cfg.seed)
    width = cfg.fusion_width
    cfe_params = None
    projections = None
    if cfg.cfe_enabled:
        cfe_params = {lvl: make_cfe_params(rng, channels[lvl], width, activation=cfg.activation,
                                           dilation=cfg.dilation)
                      for lvl in LEVELS}
    else:
        projections = {lvl: _rand_conv(rng, width, channels[lvl], 1, 1) for lvl in LEVELS}
    bra = None
    if cfg.attention_fusion_enabled:
        bra = {4: make_bra_params(rng, width, cfg.regions_s, cfg.topk_k, cfg.heads,
                                  cfg.lce_kernel),
               3: make_bra_params(rng, width, cfg.regions_s, cfg.topk_k, cfg.heads,
                                  cfg.lce_kernel)}
    return PipelineParams(cfe=cfe_params, projection=projections, bra=bra,
                          fusion=FusionWeights(epsilon=cfg.epsilon))
