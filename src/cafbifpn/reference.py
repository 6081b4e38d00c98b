"""Second, vectorized reference route for whole-pipeline checks.

The loop oracles are too slow beyond desk scale, so this module rebuilds
every stage directly on numpy arrays: window-view convolutions, fancy-index
bilinear sampling, per-region attention loops, and a hand-assembled fusion
graph.  It shares parameter records with the implementation but none of its
compute path (no tape, no primitive graph), and it is itself cross-checked
against the loop oracles at desk scale, which closes the chain
implementation <-> this module <-> loop oracles.

All functions take tensors or arrays and return plain float64 arrays.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import BraParams
from .cfe import CfeParams
from .convops import Conv2dParams, DeformableParams
from .errors import ConfigError, ShapeError
from .oracles import topk_reference
from .pipeline import LEVELS, PipelineParams


def _np(x) -> np.ndarray:
    if isinstance(x, (T.Tensor, T.Node)):
        return np.asarray(T._val(x), dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def ref_conv2d(x, p: Conv2dParams) -> np.ndarray:
    xa = _np(x)
    wa = _np(p.weights)
    ba = _np(p.bias)
    c_out, c_in, kh, kw = wa.shape
    if xa.shape[0] != c_in:
        raise ShapeError(f"channel mismatch: input {xa.shape[0]} vs weights {c_in}")
    # the window spans d (k - 1) + 1 pixels, half of that beyond each side
    d = int(p.dilation)
    kh_eff, kw_eff = (kh - 1) * d + 1, (kw - 1) * d + 1
    xp = np.pad(xa, ((0, 0), (kh_eff // 2, kh_eff // 2), (kw_eff // 2, kw_eff // 2)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh_eff, kw_eff), axis=(1, 2))
    win = win[:, :, :, ::d, ::d]
    return np.einsum("cyxij,ocij->oyx", win, wa) + ba[:, None, None]


def ref_depthwise(x, kernel) -> np.ndarray:
    xa = _np(x)
    ka = _np(kernel)
    c, k = ka.shape[0], ka.shape[1]
    pad = (k - 1) // 2
    xp = np.pad(xa, ((0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    return np.einsum("cyxij,cij->cyx", win, ka)


def _ref_bilinear(xa: np.ndarray, py: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Sample every channel at fractional positions; outside contributes 0.
    A position more than one pixel outside the map has no corner on it, so
    it is moved to one pixel outside before the integer cast, which is
    then defined however far it lay."""
    _, h, w = xa.shape
    py = np.clip(py, -2.0, h + 1.0)
    px = np.clip(px, -2.0, w + 1.0)
    y0 = np.floor(py).astype(np.int64)
    x0 = np.floor(px).astype(np.int64)
    fy = py - y0
    fx = px - x0
    acc = np.zeros((xa.shape[0],) + py.shape)
    for yi, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
        for xi, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
            ok = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
            vals = xa[:, np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
            acc = acc + vals * (wy * wx * ok)[None]
    return acc


def ref_deformable(x, p: DeformableParams) -> np.ndarray:
    xa = _np(x)
    wa = _np(p.base.weights)
    ba = _np(p.base.bias)
    c_out, c_in, kh, kw = wa.shape
    offsets = ref_conv2d(xa, p.offset_predictor)
    h, w = xa.shape[1], xa.shape[2]
    gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
    out = np.broadcast_to(ba[:, None, None], (c_out, h, w)).copy()
    for t in range(kh * kw):
        ry = t // kw - (kh - 1) // 2
        rx = t % kw - (kw - 1) // 2
        sampled = _ref_bilinear(xa, gy + ry + offsets[2 * t], gx + rx + offsets[2 * t + 1])
        out += np.einsum("oc,cyx->oyx", wa[:, :, t // kw, t % kw], sampled)
    return out


def _ref_activate(a: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(a, 0.0)
    if activation == "none":
        return a
    raise ConfigError(f"unknown activation {activation!r}")


def ref_cfe(x, p: CfeParams) -> np.ndarray:
    xa = _np(x)

    def run(stages):
        a = xa
        for stage in stages:
            if isinstance(stage, DeformableParams):
                a = ref_deformable(a, stage)
            else:
                a = ref_conv2d(a, stage)
            a = _ref_activate(a, p.activation)
        return a

    stacked = np.concatenate([run(p.branch1), run(p.branch2), run(p.branch3)], axis=0)
    return stacked + ref_conv2d(xa, p.residual)


def _ref_softmax(row: np.ndarray) -> np.ndarray:
    e = np.exp(row - row.max())
    return e / e.sum()


def ref_ba(x, p: BraParams) -> np.ndarray:
    """Routed attention recomputed from scratch: partition, pool, full-sort
    routing, then per-token attention loops over the gathered tokens."""
    xa = _np(x)
    c, h, w = xa.shape
    s = p.regions_s
    if h % s or w % s:
        raise ShapeError(f"region grid {s}x{s} does not tile {h}x{w}")
    th, tw = h // s, w // s
    nreg, ntok = s * s, th * tw
    # region r = (r // s, r % s), token t = (t // tw, t % tw), both row-major
    tokens = np.empty((nreg, ntok, c))
    for r in range(nreg):
        gy, gx = r // s, r % s
        block = xa[:, gy * th:(gy + 1) * th, gx * tw:(gx + 1) * tw]
        tokens[r] = block.reshape(c, ntok).T

    wq, wk, wv = _np(p.w_q), _np(p.w_k), _np(p.w_v)
    q = tokens @ wq
    k = tokens @ wk
    v = tokens @ wv

    pooled_q = q.mean(axis=1)
    pooled_k = k.mean(axis=1)
    routed = [topk_reference(pooled_q[r] @ pooled_k.T, p.topk_k) for r in range(nreg)]

    d = c // p.heads
    out_tokens = np.zeros((nreg, ntok, c))
    for r in range(nreg):
        k_g = np.concatenate([k[m] for m in routed[r]], axis=0)
        v_g = np.concatenate([v[m] for m in routed[r]], axis=0)
        for hd in range(p.heads):
            lo = hd * d
            for t in range(ntok):
                logits = (q[r, t, lo:lo + d] @ k_g[:, lo:lo + d].T) / np.sqrt(d)
                alphas = _ref_softmax(logits)
                out_tokens[r, t, lo:lo + d] = alphas @ v_g[:, lo:lo + d]

    def to_map(tok):
        m = np.empty((c, h, w))
        for r in range(nreg):
            gy, gx = r // s, r % s
            m[:, gy * th:(gy + 1) * th, gx * tw:(gx + 1) * tw] = tok[r].T.reshape(c, th, tw)
        return m

    return to_map(out_tokens) + ref_depthwise(to_map(v), p.lce_kernel)


def ref_up2(a: np.ndarray) -> np.ndarray:
    return a.repeat(2, axis=1).repeat(2, axis=2)


def ref_down2(a: np.ndarray) -> np.ndarray:
    c, h, w = a.shape
    return a.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def ref_fuse(inputs, raw_weights, epsilon: float) -> np.ndarray:
    clamped = [max(float(_np(wv).reshape(-1)[0]), 0.0) for wv in raw_weights]
    num = sum(u * _np(x) for u, x in zip(clamped, inputs))
    return num / (sum(clamped) + epsilon)


def ref_afbifpn(stage_i: dict, p: PipelineParams) -> dict:
    """The fusion graph; each intermediate refinement is the identity when
    p.bra is None."""
    i = {lvl: _np(stage_i[lvl]) for lvl in LEVELS}
    fw = p.fusion
    eps = fw.epsilon
    p4f = ref_fuse([i[4], ref_up2(i[5])], fw.p4_mid, eps)
    a4 = p4f if p.bra is None else ref_ba(p4f, p.bra[4])
    p3f = ref_fuse([i[3], ref_up2(a4)], fw.p3_mid, eps)
    a3 = p3f if p.bra is None else ref_ba(p3f, p.bra[3])
    p2o = ref_fuse([i[2], ref_up2(a3)], fw.p2_out, eps)
    p3o = ref_fuse([i[3], a3, ref_down2(p2o)], fw.p3_out, eps)
    p4o = ref_fuse([i[4], a4, ref_down2(p3o)], fw.p4_out, eps)
    p5o = ref_fuse([i[5], ref_down2(p4o)], fw.p5_out, eps)
    return {2: p2o, 3: p3o, 4: p4o, 5: p5o}


def ref_c_afbifpn(backbone: dict, p: PipelineParams) -> dict:
    stage_i = {}
    for lvl in LEVELS:
        if p.cfe is not None:
            stage_i[lvl] = ref_cfe(backbone[lvl], p.cfe[lvl])
        else:
            stage_i[lvl] = ref_conv2d(backbone[lvl], p.projection[lvl])
    return ref_afbifpn(stage_i, p)
