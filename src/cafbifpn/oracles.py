"""Brute-force references for the kernels, written as plain loops over
Python floats.  Deliberately slow and structurally unrelated to the main
implementations; run them at desk scale only (extents up to about 32).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError


def conv2d_reference(x, p):
    """Direct six-loop evaluation of the convolution contract: odd kernel
    extents, zero padding that keeps the input's extents."""
    xa = T._val(x)
    wa = T._val(p.weights)
    ba = T._val(p.bias)
    if xa.ndim != 3 or wa.ndim != 4:
        raise ShapeError(f"reference conv wants [C,H,W] and [O,C,kh,kw], got {list(xa.shape)}, {list(wa.shape)}")
    c_out, c_in, kh, kw = wa.shape
    if xa.shape[0] != c_in:
        raise ShapeError(f"input channels {xa.shape[0]} != kernel channels {c_in}")
    if ba.shape != (c_out,):
        raise ShapeError(f"bias dims {list(ba.shape)} != [{c_out}]")
    d = int(p.dilation)
    if kh % 2 == 0 or kw % 2 == 0 or d < 1:
        raise ConfigError(f"reference conv wants odd kernel extents at dilation >= 1, "
                          f"got {kh}x{kw} at {d}")
    h, w = xa.shape[1], xa.shape[2]
    ph, pw = d * (kh - 1) // 2, d * (kw - 1) // 2
    out = np.empty((c_out, h, w), dtype=np.float64)
    for o in range(c_out):
        for oy in range(h):
            for ox in range(w):
                acc = float(ba[o])
                for c in range(c_in):
                    for i in range(kh):
                        for j in range(kw):
                            iy = oy - ph + i * d
                            ix = ox - pw + j * d
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += float(wa[o, c, i, j]) * float(xa[c, iy, ix])
                out[o, oy, ox] = acc
    return T.tensor(out)


def _softmax_floats(logits):
    m = max(logits)
    if not math.isfinite(m):
        raise NumericError("non-finite attention logit in reference")
    exps = [math.exp(v - m) for v in logits]
    z = sum(exps)
    return [e / z for e in exps]


def dense_attention_reference(f, p):
    """Global token attention over every pixel pair: project each token
    with the q/k/v matrices, then per head softmax(q.k / sqrt(d)) applied
    to v.  No local-context term, no routing."""
    fa = T._val(f)
    if fa.ndim != 3:
        raise ShapeError(f"reference attention wants [C,H,W], got {list(fa.shape)}")
    c, h, w = fa.shape
    heads = int(p.heads)
    if c % heads:
        raise ConfigError(f"head count {heads} does not divide channel width {c}")
    wq = T._val(p.w_q)
    wk = T._val(p.w_k)
    wv = T._val(p.w_v)
    for name, m in (("w_q", wq), ("w_k", wk), ("w_v", wv)):
        if m.shape != (c, c):
            raise ShapeError(f"{name} dims {list(m.shape)} != [{c}, {c}]")

    tokens = [[float(fa[i, y, x]) for i in range(c)]
              for y in range(h) for x in range(w)]

    # tokens are rows: projected[i] = sum_j token[j] * mat[j, i]
    def project(mat):
        return [[sum(tok[j] * float(mat[j, i]) for j in range(c)) for i in range(c)]
                for tok in tokens]

    q = project(wq)
    k = project(wk)
    v = project(wv)
    n = len(tokens)
    d = c // heads
    inv = 1.0 / math.sqrt(d)
    out = [[0.0] * c for _ in range(n)]
    for hd in range(heads):
        lo = hd * d
        for t in range(n):
            logits = [inv * sum(q[t][lo + i] * k[u][lo + i] for i in range(d))
                      for u in range(n)]
            alphas = _softmax_floats(logits)
            for i in range(d):
                out[t][lo + i] = sum(alphas[u] * v[u][lo + i] for u in range(n))
    arr = np.array(out, dtype=np.float64).T.reshape(c, h, w)
    return T.tensor(arr)


def topk_reference(row, k: int):
    """Full sort, descending value with ascending-index tie-break."""
    vals = [float(v) for v in np.asarray(T._val(row) if isinstance(row, (T.Tensor, T.Node)) else row).reshape(-1)]
    if k < 1 or k > len(vals):
        raise ConfigError(f"k {k} outside [1, {len(vals)}]")
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], i))
    return order[:k]


def directional_diffs(scalar_fn, x, directions) -> np.ndarray:
    """The one central-difference loop: for each direction v (shaped like
    x), (f(x + s v) - f(x - s v)) / 2s, the derivative of scalar_fn along
    v.  The step s is 1e-5 * max(1, |x_i|) over the coordinates v moves.
    Raises NumericError on a non-finite evaluation."""
    base = np.array(T._val(x), dtype=np.float64)
    out = []
    for n, v in enumerate(directions):
        step = 1e-5 * max(1.0, float(np.abs(base[v != 0]).max(initial=0.0)))
        fp = float(scalar_fn(T.tensor(base + step * v)))
        fm = float(scalar_fn(T.tensor(base - step * v)))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite evaluation while differencing direction {n}")
        out.append((fp - fm) / (2.0 * step))
    return np.array(out, dtype=np.float64)


@dataclass(frozen=True)
class FlopCount:
    """Exact multiply-accumulate tallies per attention stage; gather is
    copied elements rather than MACs."""

    routing: int
    gather: int
    qk_logits: int
    av_aggregation: int
    lce: int

    def as_dict(self) -> dict:
        return {"routing": self.routing, "gather": self.gather,
                "qk_logits": self.qk_logits, "av_aggregation": self.av_aggregation,
                "lce": self.lce}


def attention_flops(h: int, w: int, c: int, s: int, k: int, heads: int = 1,
                    mode: str = "routed", lce_kernel: int = 5) -> FlopCount:
    """Closed-form counts for one attention pass at the given extents.

    The routed qk and av tallies are exactly k/s^2 of the dense ones; head
    count cancels (heads partition the channel width).
    """
    if s < 1 or h % s or w % s:
        raise ConfigError(f"region grid {s}x{s} does not tile {h}x{w}")
    if k < 1 or k > s * s:
        raise ConfigError(f"routed-region count {k} outside [1, {s * s}]")
    if heads < 1 or c % heads:
        raise ConfigError(f"head count {heads} does not divide channel width {c}")
    tokens = h * w
    if mode == "dense":
        return FlopCount(routing=0, gather=0, qk_logits=tokens * tokens * c,
                         av_aggregation=tokens * tokens * c, lce=0)
    if mode != "routed":
        raise ConfigError(f"unknown mode {mode!r}")
    per_region = tokens // (s * s)
    gathered = k * per_region
    return FlopCount(routing=s ** 4 * c + tokens * c,
                     gather=2 * s * s * k * per_region * c,
                     qk_logits=tokens * gathered * c,
                     av_aggregation=tokens * gathered * c,
                     lce=c * tokens * lce_kernel * lce_kernel)
