"""Bi-level routing attention over a [C, H, W] map, as three tape nodes.
region_qkv reads the map in region order and projects every token to its
query, key and value in one product; the routing picks each region's
top-k most affine peers from the region means of the queries and keys,
off the tape; token_attention attends each region's queries to its routed
regions' keys and values only; merge_lce writes the attended tokens back
in map order plus a depthwise local-context term of the values.

Region index and in-region token index both follow row-major order: with
identity projections, region_qkv's value columns are the map's tiles, and
merge_lce of those tiles with a zero kernel is the map again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .convops import _depthwise
from .errors import ConfigError, PartitionError, ShapeError
from .instrumentation import active_record


@dataclass(frozen=True)
class BraParams:
    """Projections [C, C] (token-wise, bias-free), depthwise local-context
    kernel [C, k, k], region grid side, routed-region count, head count."""

    w_q: object
    w_k: object
    w_v: object
    lce_kernel: object
    regions_s: int
    topk_k: int
    heads: int = 1


@dataclass(frozen=True)
class RoutingResult:
    """Region affinity [S^2, S^2] plus per-region routed ids [S^2, k],
    sorted by descending affinity, ties broken by ascending id."""

    affinity: object
    indices: np.ndarray


def _tile(h: int, w: int, s: int) -> tuple[int, int]:
    """A region's extents (th, tw) when an s x s grid tiles H x W."""
    if s < 1 or h % s or w % s:
        raise PartitionError(f"region grid {s}x{s} does not tile H={h}, W={w}")
    return h // s, w // s


def _to_regions(m: np.ndarray, s: int, th: int, tw: int) -> np.ndarray:
    """A [C, H, W] map as a [S, S, th, tw, C] view, in region order."""
    return m.reshape(m.shape[0], s, th, s, tw).transpose(1, 3, 2, 4, 0)


def _to_map(tokens: np.ndarray, s: int, th: int, tw: int) -> np.ndarray:
    """[S^2, th*tw, C] tokens as a [C, S, th, S, tw] view, in map order."""
    return tokens.reshape(s, s, th, tw, tokens.shape[-1]).transpose(4, 0, 2, 1, 3)


def region_qkv(f, p: BraParams):
    """[S^2, tokens, 3C]: the queries, keys and values, column blocks in
    that order, of the [C, H, W] map f read in region order, by one
    product against [w_q | w_k | w_v].

    One tape node.  The region-order copy of f is a temporary; the
    backward copies it again when a weight needs a gradient."""
    v = T._val(f)
    if v.ndim != 3:
        raise ShapeError(f"region_qkv wants [C,H,W], got {list(v.shape)}")
    c, h, w = v.shape
    s = int(p.regions_s)
    th, tw = _tile(h, w, s)
    ws = [T._val(m) for m in (p.w_q, p.w_k, p.w_v)]
    for name, wv in zip(("w_q", "w_k", "w_v"), ws):
        if wv.shape != (c, c):
            raise ShapeError(f"{name} dims {list(wv.shape)} != [{c}, {c}]")
    n = s * s * th * tw

    def tokens():
        return np.ascontiguousarray(_to_regions(v, s, th, tw)).reshape(n, c)

    out = (tokens() @ np.concatenate(ws, axis=1)).reshape(s * s, th * tw, 3 * c)
    need_f, *need_w = T._on_tape(f, p.w_q, p.w_k, p.w_v)

    def grads(g):
        gq, gk, gv = (g.reshape(n, 3 * c)[:, i * c:(i + 1) * c] for i in range(3))
        gf = None
        if need_f:
            # three products summed in the order a tape of one product per
            # projection sums them: one [N, 3C] . [3C, C] product differs
            gt = (gv @ ws[2].T + gk @ ws[1].T) + gq @ ws[0].T
            gf = np.ascontiguousarray(_to_map(gt, s, th, tw)).reshape(c, h, w)
        flat = tokens() if any(need_w) else None
        return (gf,) + tuple(flat.T @ gb if need else None
                             for gb, need in zip((gq, gk, gv), need_w))

    return T._emit((f, p.w_q, p.w_k, p.w_v), out, grads)


def _topk_indices_row(row: np.ndarray, k: int) -> np.ndarray:
    order = np.argsort(-row, kind="stable")
    return order[:k].astype(np.int64)


def topk_routing(q_pooled: np.ndarray, k_pooled: np.ndarray, topk_k: int) -> RoutingResult:
    """Each region's topk_k most affine regions, from the region means
    [S^2, C] of the queries and keys; plain numpy, off the tape."""
    n_regions = q_pooled.shape[0]
    k = int(topk_k)
    if k < 1 or k > n_regions:
        raise ConfigError(f"routed-region count {k} outside [1, {n_regions}]")
    # an overflow here is not an error of its own: softmax_inplace
    # classifies the logits that follow
    with np.errstate(over="ignore", invalid="ignore"):
        affinity = q_pooled @ np.ascontiguousarray(k_pooled.T)
        indices = np.stack([_topk_indices_row(affinity[r], k) for r in range(n_regions)])
        record = active_record()
        if record is not None:
            record.routing += n_regions * n_regions * q_pooled.shape[1]
            if k < n_regions:  # gap between each row's k-th and (k+1)-th affinity
                ranked = np.sort(affinity, axis=1)
                record.margin("routing", ranked[:, -k] - ranked[:, -k - 1])
    return RoutingResult(affinity, indices)


# (region, head) blocks are stacked, up to this many bytes of logits per
# stack, so that one stacked matmul replaces many small ones: a region's
# heads together, or several regions' when they fit.  A block larger than
# half of this is a stack of its own.  From a sweep of 0 to 2 MB on
# token_attention at 48x64x64, 4 heads, k 4: the fastest at S 8 and within
# 5% of the fastest at S 16 (ROADMAP item 6).
_STACK_BYTES = 1 << 19


def token_attention(qkv, routing: RoutingResult, heads: int):
    """[S^2, tokens, C] from qkv [S^2, tokens, 3C], whose column blocks are
    the queries, keys and values.  Per region and head: softmax(q . k_g^T /
    sqrt(d_k)) applied to v_g, where k_g and v_g stack the tokens of the
    region's routed regions, highest affinity first; heads are contiguous
    channel groups of each block, re-concatenated afterwards.

    One tape node.  The (region, head) blocks go in stacks of consecutive
    regions, all heads of each, up to _STACK_BYTES of logits; a region
    whose heads exceed it is split into stacks of fewer heads.  Each stack
    copies its routed regions' keys and values once, shared by its heads,
    so the gathered stack of the whole call is never built.  A stack is one
    stacked [n, G] logits matmul, scaled and normalised in place by
    T.softmax_inplace, then one stacked matmul into the values: the same
    BLAS call per block as a loop over blocks, so the same bits.  The tape
    keeps no attention weights: the backward recomputes each stack with the
    same calls, so it sees the forward's bits.  Large calls run their
    stacks on T._run_rows's worker threads.  The gradient has the same
    three column blocks: the queries' and the routed copies' of the keys
    and values, each copy summed into its source region.
    """
    x = T._val(qkv)
    if x.ndim != 3 or x.shape[2] % 3:
        raise ShapeError(f"token_attention wants [S^2, tokens, 3C], got {list(x.shape)}")
    n_regions, n_tokens, c = x.shape[0], x.shape[1], x.shape[2] // 3
    idx = np.asarray(routing.indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != n_regions:
        raise ShapeError(f"index matrix dims {list(idx.shape)} disagree with {n_regions} regions")
    if idx.size and (idx.min() < 0 or idx.max() >= n_regions):
        raise IndexError(f"routed region id out of range [0, {n_regions})")
    if c % heads:
        raise ConfigError(f"head count {heads} does not divide channel width {c}")
    d = c // heads
    n_gathered = idx.shape[1] * n_tokens
    inv_scale = 1.0 / np.sqrt(d)
    record = active_record()
    if record is not None:
        record.gather += 2 * n_regions * n_gathered * c
        record.qk += n_regions * heads * n_tokens * d * n_gathered
        record.av += n_regions * heads * n_tokens * n_gathered * d
    # element operations: the scale and softmax's in-place passes, four per logit
    work = 4 * n_regions * heads * n_tokens * n_gathered
    per_stack = _STACK_BYTES // max(1, n_tokens * n_gathered * 8)  # blocks
    span = max(1, min(n_regions, per_stack // heads))  # regions per stack
    width = max(1, min(heads, per_stack))              # heads per stack
    n_stacks = -(-n_regions // span)
    # [regions, tokens, heads, d] views of the column blocks; a block is [r, :, h]
    q4, k4, v4 = (x.reshape(n_regions, n_tokens, 3, heads, d)[:, :, i] for i in range(3))

    def stacks(indices):
        """(rows, hs, q [R,H,n,d], k^T [R,H,d,G], v [R,H,G,d], weights
        [R,H,n,G]) for every stack of the given stack indices: R regions
        rows, H heads hs.  The weights share one buffer, overwritten by the
        next stack."""
        buf = np.empty((span * width * n_tokens * n_gathered,))
        for i in indices:
            rows = slice(i * span, min((i + 1) * span, n_regions))
            n_r = rows.stop - rows.start
            kg = k4[idx[rows]].reshape(n_r, n_gathered, heads, d)
            vg = v4[idx[rows]].reshape(n_r, n_gathered, heads, d)
            for h0 in range(0, heads, width):
                hs = slice(h0, min(h0 + width, heads))
                n_h = hs.stop - hs.start
                q = np.ascontiguousarray(q4[rows, :, hs].transpose(0, 2, 1, 3))
                kt = np.ascontiguousarray(kg[:, :, hs].transpose(0, 2, 3, 1))
                s = buf[:n_r * n_h * n_tokens * n_gathered].reshape(n_r, n_h, n_tokens, n_gathered)
                with np.errstate(over="ignore", invalid="ignore"):  # per thread
                    np.matmul(q, kt, out=s)
                s *= inv_scale
                T.softmax_inplace(s)
                yield rows, hs, q, kt, np.ascontiguousarray(vg[:, :, hs].transpose(0, 2, 1, 3)), s

    out = np.empty((n_regions, n_tokens, c))
    out4 = out.reshape(n_regions, n_tokens, heads, d)

    def forward(indices):
        for rows, hs, _, _, v, s in stacks(indices):
            out4[rows, :, hs] = (s @ v).transpose(0, 2, 1, 3)

    T._run_rows(n_stacks, forward, work)

    def grads(g):
        gx = np.zeros_like(x)
        gk, gv = (np.zeros((n_regions, n_gathered, c)) for _ in range(2))
        g4 = g.reshape(n_regions, n_tokens, heads, d)
        gq4 = gx.reshape(n_regions, n_tokens, 3, heads, d)[:, :, 0]
        gk4, gv4 = (a.reshape(n_regions, n_gathered, heads, d) for a in (gk, gv))

        def backward(indices):
            for rows, hs, q, kt, v, s in stacks(indices):
                go = np.ascontiguousarray(g4[rows, :, hs].transpose(0, 2, 1, 3))
                gv4[rows, :, hs] += (s.swapaxes(-1, -2) @ go).transpose(0, 2, 1, 3)
                gs = go @ v.swapaxes(-1, -2)
                gs -= (gs * s).sum(axis=-1, keepdims=True)
                gs *= s
                gs *= inv_scale
                gq4[rows, :, hs] += (gs @ kt.swapaxes(-1, -2)).transpose(0, 2, 1, 3)
                gk4[rows, :, hs] += (q.swapaxes(-1, -2) @ gs).transpose(0, 3, 1, 2)

        T._run_rows(n_stacks, backward, work)
        # each routed copy's gradient is summed into its source region in
        # routing order, so a region routed to twice sums in that order
        for block, gathered in ((1, gk), (2, gv)):
            dest = gx[:, :, block * c:(block + 1) * c]
            parts = gathered.reshape(idx.size, n_tokens, c)
            for j, r in enumerate(idx.reshape(-1)):
                dest[r] += parts[j]
        return (gx,)

    return T._emit((qkv,), out, grads)


def merge_lce(attended, qkv, kernel, height: int, width: int):
    """[C, H, W]: the attended tokens [S^2, tokens, C] written in map
    order, plus the depthwise local-context term, by kernel [C, k, k], of
    the value columns of qkv [S^2, tokens, 3C] in map order.

    One tape node.  The depthwise term reads the value columns in map
    order through a view, padding a few channels at a time, so no value
    map is built; each block of channels adds its attended tokens after
    its taps, so large calls run whole blocks on the worker pool."""
    a, x, kv = T._val(attended), T._val(qkv), T._val(kernel)
    n_regions, n_tokens, c = a.shape
    s = math.isqrt(n_regions)
    th, tw = _tile(height, width, s)
    if s * s != n_regions or th * tw != n_tokens or x.shape != (n_regions, n_tokens, 3 * c):
        raise ShapeError(f"tokens {list(a.shape)} and {list(x.shape)} do not tile "
                         f"H={height}, W={width} as [S^2, tokens, C] and [S^2, tokens, 3C]")
    # lce + merged, the same bits as merged + lce
    out, vjp = _depthwise(_to_map(x[:, :, 2 * c:], s, th, tw), kv, add=_to_map(a, s, th, tw))
    record = active_record()
    if record is not None:
        record.lce += c * height * width * kv.shape[1] * kv.shape[2]
    need_a, need_x, need_k = T._on_tape(attended, qkv, kernel)

    def grads(g):
        ga = gx = None
        if need_a:
            ga = np.ascontiguousarray(_to_regions(g, s, th, tw)).reshape(n_regions, n_tokens, c)
        gv, gk = vjp(g, need_x, need_k)
        if need_x:
            gx = np.zeros_like(x)
            gx.reshape(s, s, th, tw, 3 * c)[..., 2 * c:] = _to_regions(gv, s, th, tw)
        return ga, gx, gk

    return T._emit((attended, qkv, kernel), out, grads)


def make_bra_params(rng, c: int, regions_s: int, topk_k: int, heads: int = 1,
                    lce_kernel: int = 5) -> BraParams:
    """Seeded projections and local-context kernel, drawn q, k, v, lce."""
    if c % heads:
        raise ConfigError(f"head count {heads} does not divide channel width {c}")
    if lce_kernel % 2 == 0:
        raise ConfigError(f"local-context kernel must be odd, got {lce_kernel}")
    w_q = rng.tensor([c, c], -0.1, 0.1)
    w_k = rng.tensor([c, c], -0.1, 0.1)
    w_v = rng.tensor([c, c], -0.1, 0.1)
    lce_k = rng.tensor([c, lce_kernel, lce_kernel], -0.1, 0.1)
    return BraParams(w_q, w_k, w_v, lce_k, regions_s, topk_k, heads)


def ba_forward(f, p: BraParams, kinks: dict | None = None):
    """Full routed-attention pass over a [C, H, W] map; output dims match.

    The routing is decided off the tape, from the region means of the
    projected queries and keys: no output depends on it smoothly, so
    nothing of it is recorded.  kinks, a mutable dict, freezes the region
    selection: it is taken from kinks["routing"], or decided and stored
    there, which the gradient checks use to keep the function smooth under
    perturbation.
    """
    record = active_record()
    if record is not None:
        record.ba_invocations += 1
    qkv = region_qkv(f, p)
    c, h, w = T._val(f).shape
    if kinks is not None and "routing" in kinks:
        routing = kinks["routing"]
    else:
        if record is not None:
            record.routing += h * w * c  # pooling overhead
        x = T._val(qkv)
        routing = topk_routing(x[:, :, :c].mean(axis=1), x[:, :, c:2 * c].mean(axis=1), p.topk_k)
        if kinks is not None:
            kinks["routing"] = routing
    return merge_lce(token_attention(qkv, routing, p.heads), qkv, p.lce_kernel, h, w)
