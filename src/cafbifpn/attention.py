"""Bi-level routing attention: partition a feature map into a region grid,
route each region to its top-k most affine peers via pooled queries/keys,
run token-level attention against the routed regions' keys/values only,
then add a depthwise local-context term.

Region index and in-region token index both follow row-major order, so
partition followed by merge is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .convops import depthwise_conv2d
from .errors import ConfigError, PartitionError, ShapeError
from .instrumentation import active_record


@dataclass(frozen=True)
class RegionTokens:
    """Token view [S^2, tokens_per_region, C] of a [C, H, W] map."""

    data: object
    height: int
    width: int
    regions_s: int


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


def region_partition(f, regions_s: int) -> RegionTokens:
    v = T._val(f)
    if v.ndim != 3:
        raise ShapeError(f"region_partition wants [C,H,W], got {list(v.shape)}")
    c, h, w = v.shape
    s = int(regions_s)
    if s < 1 or h % s or w % s:
        raise PartitionError(f"region grid {s}x{s} does not tile H={h}, W={w}")
    th, tw = h // s, w // s
    x = T.reshape(f, [c, s, th, s, tw])
    x = T.permute(x, (1, 3, 2, 4, 0))          # [S, S, th, tw, C]
    x = T.reshape(x, [s * s, th * tw, c])
    return RegionTokens(x, h, w, s)


def region_merge(rt: RegionTokens):
    v = T._val(rt.data)
    s = rt.regions_s
    th, tw = rt.height // s, rt.width // s
    if v.ndim != 3 or v.shape[0] != s * s or v.shape[1] != th * tw:
        raise ShapeError(f"region tokens {list(v.shape)} disagree with H={rt.height}, W={rt.width}, S={s}")
    c = v.shape[2]
    x = T.reshape(rt.data, [s, s, th, tw, c])
    x = T.permute(x, (4, 0, 2, 1, 3))          # [C, S, th, S, tw]
    return T.reshape(x, [c, rt.height, rt.width])


def qkv_project(rt: RegionTokens, p: BraParams):
    v = T._val(rt.data)
    c = v.shape[2]
    for name, w in (("w_q", p.w_q), ("w_k", p.w_k), ("w_v", p.w_v)):
        wv = T._val(w)
        if wv.shape != (c, c):
            raise ShapeError(f"{name} dims {list(wv.shape)} != [{c}, {c}]")
    n_regions, n_tokens = v.shape[0], v.shape[1]
    flat = T.reshape(rt.data, [n_regions * n_tokens, c])

    def proj(w):
        out = T.reshape(T.matmul(flat, w), [n_regions, n_tokens, c])
        return RegionTokens(out, rt.height, rt.width, rt.regions_s)

    return proj(p.w_q), proj(p.w_k), proj(p.w_v)


def _topk_indices_row(row: np.ndarray, k: int) -> np.ndarray:
    order = np.argsort(-row, kind="stable")
    return order[:k].astype(np.int64)


def topk_routing(q_pooled, k_pooled, topk_k: int) -> RoutingResult:
    qv = T._val(q_pooled)
    n_regions = qv.shape[0]
    k = int(topk_k)
    if k < 1 or k > n_regions:
        raise ConfigError(f"routed-region count {k} outside [1, {n_regions}]")
    affinity = T.matmul(q_pooled, T.permute(k_pooled, (1, 0)))
    av = T._val(affinity)
    indices = np.stack([_topk_indices_row(av[r], k) for r in range(n_regions)])
    record = active_record()
    if record is not None:
        record.routing += n_regions * n_regions * qv.shape[1]
        if k < n_regions:  # gap between each row's k-th and (k+1)-th affinity
            ranked = np.sort(av, axis=1)
            record.margin("routing", ranked[:, -k] - ranked[:, -k - 1])
    return RoutingResult(affinity, indices)


# (region, head) blocks are stacked, up to this many bytes of logits per
# stack, so that one stacked matmul replaces many small ones: a region's
# heads together, or several regions' when they fit.  A block larger than
# half of this is a stack of its own.  From a sweep of 0 to 2 MB on
# token_attention at 48x64x64, 4 heads, k 4: the fastest at S 8 and within
# 5% of the fastest at S 16 (ROADMAP item 6).
_STACK_BYTES = 1 << 19


def token_attention(q_tokens: RegionTokens, k_tokens: RegionTokens, v_tokens: RegionTokens,
                    routing: RoutingResult, heads: int) -> RegionTokens:
    """Per region and head: softmax(q . k_g^T / sqrt(d_k)) applied to v_g,
    where k_g and v_g stack the tokens of the region's routed regions,
    highest affinity first; heads are contiguous channel groups
    re-concatenated afterwards.

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
    stacks on T._run_rows's worker threads.
    """
    qv = T._val(q_tokens.data)
    n_regions, n_tokens, c = qv.shape
    kv, vv = T._val(k_tokens.data), T._val(v_tokens.data)
    if kv.shape[0] != n_regions or kv.shape[2] != c:
        raise ShapeError(f"key tokens {list(kv.shape)} disagree with queries {list(qv.shape)}")
    if vv.shape != kv.shape:
        raise ShapeError(f"value tokens {list(vv.shape)} disagree with keys {list(kv.shape)}")
    idx = np.asarray(routing.indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != n_regions:
        raise ShapeError(f"index matrix dims {list(idx.shape)} disagree with {n_regions} regions")
    if idx.size and (idx.min() < 0 or idx.max() >= n_regions):
        raise IndexError(f"routed region id out of range [0, {n_regions})")
    if c % heads:
        raise ConfigError(f"head count {heads} does not divide channel width {c}")
    d = c // heads
    n_gathered = idx.shape[1] * kv.shape[1]
    inv_scale = 1.0 / np.sqrt(d)
    record = active_record()
    if record is not None:
        record.gather += 2 * n_regions * n_gathered * c
        record.qk += n_regions * heads * n_tokens * d * n_gathered
        record.av += n_regions * heads * n_tokens * n_gathered * d
    work = n_regions * heads * n_tokens * n_gathered  # logits, for T._run_rows
    per_stack = _STACK_BYTES // max(1, n_tokens * n_gathered * 8)  # blocks
    span = max(1, min(n_regions, per_stack // heads))  # regions per stack
    width = max(1, min(heads, per_stack))              # heads per stack
    n_stacks = -(-n_regions // span)
    # [regions, tokens, heads, d] views; a block is [r, :, h]
    q4, k4, v4 = (a.reshape(a.shape[0], a.shape[1], heads, d) for a in (qv, kv, vv))

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
    need_q, need_k, need_v = T._on_tape(q_tokens.data, k_tokens.data, v_tokens.data)

    def grads(g):
        gq = np.zeros_like(qv) if need_q else None
        gk = np.zeros((n_regions, n_gathered, c)) if need_k else None
        gv = np.zeros((n_regions, n_gathered, c)) if need_v else None
        g4 = g.reshape(n_regions, n_tokens, heads, d)
        gq4, gk4, gv4 = (None if a is None else a.reshape(a.shape[0], a.shape[1], heads, d)
                         for a in (gq, gk, gv))

        def backward(indices):
            for rows, hs, q, kt, v, s in stacks(indices):
                go = np.ascontiguousarray(g4[rows, :, hs].transpose(0, 2, 1, 3))
                if need_v:
                    gv4[rows, :, hs] += (s.swapaxes(-1, -2) @ go).transpose(0, 2, 1, 3)
                if not (need_q or need_k):
                    continue
                gs = go @ v.swapaxes(-1, -2)
                gs -= (gs * s).sum(axis=-1, keepdims=True)
                gs *= s
                gs *= inv_scale
                if need_q:
                    gq4[rows, :, hs] += (gs @ kt.swapaxes(-1, -2)).transpose(0, 2, 1, 3)
                if need_k:
                    gk4[rows, :, hs] += (q.swapaxes(-1, -2) @ gs).transpose(0, 3, 1, 2)

        T._run_rows(n_stacks, backward, work)

        def scatter(gathered_grad, like):
            """Sum each routed copy's gradient into its source region, in
            routing order, so a region routed to twice sums in that order."""
            if gathered_grad is None:
                return None
            buf = np.zeros_like(like)
            parts = gathered_grad.reshape((idx.size,) + like.shape[1:])
            for j, r in enumerate(idx.reshape(-1)):
                buf[r] += parts[j]
            return buf

        return gq, scatter(gk, kv), scatter(gv, vv)

    data = T._emit((q_tokens.data, k_tokens.data, v_tokens.data), out, grads)
    return RegionTokens(data, q_tokens.height, q_tokens.width, q_tokens.regions_s)


def lce(v_tokens: RegionTokens, kernel):
    """Depthwise local-context embedding of the re-spatialized value map."""
    kv = T._val(kernel)
    if kv.ndim != 3 or kv.shape[1] != kv.shape[2]:
        raise ShapeError(f"local-context kernel must be [C,k,k], got {list(kv.shape)}")
    spatial = region_merge(v_tokens)
    record = active_record()
    if record is not None:
        record.lce += kv.shape[0] * v_tokens.height * v_tokens.width * kv.shape[1] * kv.shape[2]
    return depthwise_conv2d(spatial, kernel)


def make_bra_params(rng, c: int, regions_s: int, topk_k: int, heads: int = 1,
                    lce_kernel: int = 5, zero_lce: bool = False) -> BraParams:
    """Seeded projections and local-context kernel, drawn q, k, v, lce."""
    if c % heads:
        raise ConfigError(f"head count {heads} does not divide channel width {c}")
    if lce_kernel % 2 == 0:
        raise ConfigError(f"local-context kernel must be odd, got {lce_kernel}")
    w_q = rng.tensor([c, c], -0.1, 0.1)
    w_k = rng.tensor([c, c], -0.1, 0.1)
    w_v = rng.tensor([c, c], -0.1, 0.1)
    if zero_lce:
        rng.tensor([c, lce_kernel, lce_kernel])  # keep the draw stream stable
        lce_k = T.zeros([c, lce_kernel, lce_kernel])
    else:
        lce_k = rng.tensor([c, lce_kernel, lce_kernel], -0.1, 0.1)
    return BraParams(w_q, w_k, w_v, lce_k, regions_s, topk_k, heads)


def ba_forward(f, p: BraParams, kinks: dict | None = None):
    """Full routed-attention pass over a [C, H, W] map; output dims match.

    The routing is decided off the tape, from the region means of the
    projected queries and keys: no output depends on it smoothly, so
    nothing of it is recorded.  kinks, a mutable dict, freezes the region
    selection: it is taken from kinks["routing"], or decided and stored
    there, which the gradient checks use to keep the function smooth under
    perturbation.  Each token-layout map is dropped after its last use.
    """
    v = T._val(f)
    c = v.shape[0]
    if c % p.heads:
        raise ConfigError(f"head count {p.heads} does not divide channel width {c}")
    record = active_record()
    if record is not None:
        record.ba_invocations += 1

    q, k, vv = qkv_project(region_partition(f, p.regions_s), p)
    if kinks is not None and "routing" in kinks:
        routing = kinks["routing"]
    else:
        if record is not None:
            record.routing += v.shape[1] * v.shape[2] * c  # pooling overhead
        routing = topk_routing(T.Tensor(T._val(q.data).mean(axis=1), copy=False),
                               T.Tensor(T._val(k.data).mean(axis=1), copy=False), p.topk_k)
        if kinks is not None:
            kinks["routing"] = routing
    attended = token_attention(q, k, vv, routing, p.heads)
    del q, k
    merged = region_merge(attended)
    del attended
    return T.add(merged, lce(vv, p.lce_kernel))
