"""Weighted bidirectional fusion pyramid with routed-attention refinement
of the two top-down intermediate nodes, plus the full assembly that runs
the feature-enhancement block on every backbone level first.

Levels are keyed 2..5 finest to coarsest; spatial extents halve per level
and every pyramid map shares one channel width.  Fusion weights are raw
scalars clamped non-negative inside fuse, so they may be plain floats or
tape leaves interchangeably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import ba_forward, make_bra_params
from .cfe import cfe_forward, make_cfe_params
from .convops import Conv2dParams, conv2d
from .errors import (ConfigError, FormatError, NumericError, PartitionError,
                     PipelineError, ShapeError)
from .instrumentation import active_record

LEVELS = (2, 3, 4, 5)


@dataclass(frozen=True)
class FusionWeights:
    """Raw weights per fusion node; tuple length is the node's input count.

    mid nodes are the top-down intermediates, out nodes the final maps.
    Input order within each tuple follows the fuse call: same-level input
    first, then the refined/lateral term, then the resized neighbour.
    """

    p2_out: tuple = (1.0, 1.0)
    p3_mid: tuple = (1.0, 1.0)
    p3_out: tuple = (1.0, 1.0, 1.0)
    p4_mid: tuple = (1.0, 1.0)
    p4_out: tuple = (1.0, 1.0, 1.0)
    p5_out: tuple = (1.0, 1.0)
    epsilon: float = 1e-4

_WEIGHT_ARITY = {"p2_out": 2, "p3_mid": 2, "p3_out": 3,
                 "p4_mid": 2, "p4_out": 3, "p5_out": 2}


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


def resize(f, direction: str):
    """up2 replicates each pixel into a 2x2 block; down2 averages disjoint
    2x2 blocks, rows first, then columns.  down2(up2(f)) == f exactly.

    One tape node.  Both directions and their VJPs use the expressions of
    the reshape, broadcast and mean ops they replace, so the bits match.
    down2 runs over fuse's channel blocks, with one block-sized temporary.
    """
    v = T._val(f)
    if v.ndim != 3:
        raise ShapeError(f"resize wants [C,H,W], got {list(v.shape)}")
    c, h, w = v.shape
    if direction == "up2":
        out = np.repeat(np.repeat(v, 2, axis=1), 2, axis=2)
        return T._emit((f,), out, lambda g: (_blocks(g).sum(axis=(2, 4)),))
    if direction == "down2":
        if h % 2 or w % 2:
            raise ShapeError(f"down2 needs even extents, got {h}x{w}")
        n = _block_rows(v.shape)
        out = np.empty((c, h // 2, w // 2))
        rows = np.empty((min(n, c), h // 2, w))
        for lo in range(0, c, n):
            x, r, o = v[lo:lo + n], rows[:min(n, c - lo)], out[lo:lo + n]
            np.add(x[:, 0::2], x[:, 1::2], out=r)
            r /= 2
            np.add(r[:, :, 0::2], r[:, :, 1::2], out=o)
            o /= 2

        def grads(g):
            quarter = g / 2
            quarter /= 2
            return (np.repeat(np.repeat(quarter, 2, axis=2), 2, axis=1),)

        return T._emit((f,), out, grads)
    raise ConfigError(f"unknown resize direction {direction!r}")


def _blocks(a):
    """The [C, H, 2, W, 2] view of a [C, 2H, 2W] array's 2x2 blocks."""
    c, h, w = a.shape
    return a.reshape(c, h // 2, 2, w // 2, 2)


def _as_scalar(w):
    if isinstance(w, (T.Tensor, T.Node)):
        if T._val(w).size != 1:
            raise ShapeError(f"fusion weight must be scalar, got dims {list(T._val(w).shape)}")
        return w
    return T.tensor([float(w)])


# Leading-axis rows per in-place fusion block: about this many bytes of one
# input, so a block's output and temporary stay in L2 (swept against
# 128 KB to 4 MB at 48 channels, 64 to 256 square)
_FUSE_BLOCK_BYTES = 1 << 18


def _block_rows(shape) -> int:
    """Leading-axis rows per block of a float64 array of this shape."""
    return max(1, _FUSE_BLOCK_BYTES // (8 * math.prod(shape[1:])))


def fuse(inputs, raw_weights, epsilon: float, up2=()):
    """sum(max(w_i,0) * x_i) / (sum(max(w_i,0)) + epsilon), elementwise.

    The inputs indexed by up2 are [C, H/2, W/2] maps read as
    resize(x_i, "up2"), with the bits of that separate node.

    One tape node.  The output is accumulated in place, one block of
    leading-axis rows at a time, with one block-sized temporary:
    ((u_0 x_0 + u_1 x_1) + u_2 x_2) / denom, u_i the clamped weights; a
    half-extent input is pixel-replicated as it is multiplied.  The
    backward recomputes the numerator for the weights' gradient instead of
    keeping it.
    """
    if len(inputs) < 1:
        raise ShapeError("fuse needs at least one input")
    if len(raw_weights) != len(inputs):
        raise ShapeError(f"{len(raw_weights)} weights for {len(inputs)} inputs")
    if not 0 <= epsilon < np.inf:
        raise ConfigError(f"epsilon must be finite and >= 0, got {epsilon}")
    xs = [T._val(x) for x in inputs]
    halves = [i in up2 for i in range(len(xs))]
    full = [x.shape[:1] + tuple(2 * e for e in x.shape[1:]) if half else x.shape
            for x, half in zip(xs, halves)]
    shape = full[0]
    for x, f, half in zip(xs, full, halves):
        if f != shape or half and x.ndim != 3:
            raise ShapeError(f"fuse up2 input dims {list(x.shape)} are not half of {list(shape)}"
                             if half else f"fuse input dims {list(x.shape)} != {list(shape)}")
    scalars = [_as_scalar(w) for w in raw_weights]
    for x in xs + [T._val(w) for w in scalars]:
        if x.dtype != np.float64:
            raise ShapeError(f"fuse: dtype {x.dtype} vs float64")
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

    rows = _block_rows(shape)

    def term(i, lo, out):
        """out = u_i x_i over the block of rows from lo."""
        x = xs[i][lo:lo + rows]
        if halves[i]:
            out, x = _blocks(out), x[:, :, None, :, None]
        np.multiply(x, us[i], out=out)

    def numerator(out, divide: bool):
        """out = (u_0 x_0 + u_1 x_1) + ..., divided by denom if asked,
        block by block."""
        tmp = np.empty((min(rows, shape[0]),) + shape[1:])
        for lo in range(0, shape[0], rows):
            o = out[lo:lo + rows]
            t = tmp[:len(o)]
            term(0, lo, o)
            for i in range(1, len(xs)):
                term(i, lo, t)
                o += t
            if divide:
                o /= denom
        return out

    out = numerator(np.empty(shape), divide=True)
    need_x, need_w = T._on_tape(*inputs), T._on_tape(*scalars)

    def grads(g):
        gnum = g / denom
        gx = [(_blocks(gnum * u).sum(axis=(2, 4)) if half else gnum * u) if need else None
              for u, need, half in zip(us, need_x, halves)]
        gw = [None] * len(us)
        if any(need_w):
            every = tuple(range(g.ndim))
            gden = np.negative(g)
            gden *= numerator(np.empty(shape), divide=False)
            gden /= denom * denom
            gden = gden.sum(axis=every).reshape(1)
            for i, need in enumerate(need_w):
                if need:
                    prod = ((_blocks(gnum) * xs[i][:, :, None, :, None]).reshape(shape)
                            if halves[i] else gnum * xs[i])
                    gw[i] = (gden + prod.sum(axis=every).reshape(1)) * masks[i]
        return tuple(gx) + tuple(gw)

    return T._emit(tuple(inputs) + tuple(scalars), out, grads)


def _validate_params(p: PipelineParams) -> None:
    if not 0 <= p.fusion.epsilon < np.inf:
        raise ConfigError(f"epsilon must be finite and >= 0, got {p.fusion.epsilon}")
    for name, arity in _WEIGHT_ARITY.items():
        got = len(getattr(p.fusion, name))
        if got != arity:
            raise ConfigError(f"fusion node {name} wants {arity} weights, got {got}")
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
    width = None
    for lvl in LEVELS:
        v = T._val(maps[lvl])
        if v.ndim != 3:
            raise error(f"{stage} level {lvl} must be [C,H,W], got {list(v.shape)}")
        if stage == "stage-I":
            if width is None:
                width = v.shape[0]
            elif v.shape[0] != width:
                raise error(f"{stage} level {lvl} width {v.shape[0]} != level 2 width {width}")
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
    exactly twice.  The up2 resizes run inside their fusion nodes.

    kinks, a mutable level-keyed dict of dicts, freezes what a gradient
    check's perturbation could flip: kinks[level]["routing"] pins that
    level's region selection, and a forward that lacks it stores the one
    its attention pass decided (attention.ba_forward).

    The forward holds OpenBLAS at one thread until it returns
    (tensor.one_blas_thread), whatever other threads are running; only
    token attention's stacks run on the pool's threads.
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

    p4f = node("level-4 intermediate", lambda: fuse([maps[4], maps[5]], fw.p4_mid, eps, up2=(1,)))
    a4 = node("level-4 refinement", lambda: _refine(p4f, p, 4, _level_kinks(kinks, 4)))
    del p4f
    p3f = node("level-3 intermediate", lambda: fuse([maps[3], a4], fw.p3_mid, eps, up2=(1,)))
    a3 = node("level-3 refinement", lambda: _refine(p3f, p, 3, _level_kinks(kinks, 3)))
    del p3f
    p2o = node("level-2 output", lambda: fuse([maps.pop(2), a3], fw.p2_out, eps, up2=(1,)))
    p3o = node("level-3 output",
               lambda: fuse([maps.pop(3), a3, resize(p2o, "down2")], fw.p3_out, eps))
    del a3
    p4o = node("level-4 output",
               lambda: fuse([maps.pop(4), a4, resize(p3o, "down2")], fw.p4_out, eps))
    del a4
    p5o = node("level-5 output",
               lambda: fuse([maps.pop(5), resize(p4o, "down2")], fw.p5_out, eps))
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
        cfe_params = {lvl: make_cfe_params(rng, channels[lvl], width,
                                           activation=cfg.activation,
                                           dilation=cfg.dilation,
                                           offset_scale=1.0)
                      for lvl in LEVELS}
    else:
        projections = {lvl: Conv2dParams(weights=rng.tensor([width, channels[lvl], 1, 1], -0.1, 0.1),
                                         bias=rng.tensor([width], -0.1, 0.1))
                       for lvl in LEVELS}
    bra = None
    if cfg.attention_fusion_enabled:
        bra = {4: make_bra_params(rng, width, cfg.regions_s, cfg.topk_k, cfg.heads,
                                  cfg.lce_kernel),
               3: make_bra_params(rng, width, cfg.regions_s, cfg.topk_k, cfg.heads,
                                  cfg.lce_kernel)}
    return PipelineParams(cfe=cfe_params, projection=projections, bra=bra,
                          fusion=FusionWeights(epsilon=cfg.epsilon))
