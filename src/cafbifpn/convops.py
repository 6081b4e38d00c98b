"""Convolution variants for the feature-enhancement branches: standard
(arbitrary kernel, stride, zero padding, dilation), depthwise, and
deformable convolution with a learned offset field sampled bilinearly.

All spatial layouts are [channels, height, width], single image.  Every
function accepts plain tensors or tape nodes.  Each convolution records
one tape node whose hand-written vector-Jacobian product returns the
gradients of every operand on the tape; gradients flow through values
and sampling weights, never through integer sample indices.

conv2d and deformable convolution take an activation, "none" or "relu",
applied inside the same node: the tape keeps only the activated output,
whose positive entries are exactly the pre-activation's, so the VJP
takes its mask from the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .instrumentation import active_record


@dataclass(frozen=True)
class Conv2dParams:
    """weights [C_out, C_in, k_h, k_w], bias [C_out]; symmetric zero padding
    given as one int or a (pad_h, pad_w) pair."""

    weights: object
    bias: object
    stride: int = 1
    padding: int | tuple[int, int] = 0
    dilation: int = 1

    @property
    def pad_hw(self) -> tuple[int, int]:
        p = self.padding
        return (p, p) if isinstance(p, int) else (int(p[0]), int(p[1]))


@dataclass(frozen=True)
class DeformableParams:
    """3x3 base convolution plus a 3x3 offset predictor emitting
    2*k_h*k_w channels, (dy, dx) interleaved per tap in row-major tap order."""

    base: Conv2dParams
    offset_predictor: Conv2dParams


def _activate(out: np.ndarray, activation: str) -> np.ndarray:
    """relu in place on a fresh pre-activation, recording its distance to
    the kink; "none" returns it unchanged."""
    if activation == "relu":
        record = active_record()
        if record is not None:
            record.margin("relu", np.abs(out))
        np.copyto(out, 0.0, where=~(out > 0))
    elif activation != "none":
        raise ConfigError(f"unknown activation {activation!r}")
    return out


def _deactivate(g: np.ndarray, out: np.ndarray, activation: str) -> np.ndarray:
    """The output gradient g carried back through the activation; out is
    the activated output, positive exactly where the pre-activation is."""
    return g * (out > 0) if activation == "relu" else g


def conv_output_extent(extent: int, pad: int, kernel: int, stride: int, dilation: int) -> int:
    return (extent + 2 * pad - dilation * (kernel - 1) - 1) // stride + 1


def _pad(v: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    if pad_h == 0 and pad_w == 0:
        return v
    c, h, w = v.shape
    buf = np.zeros((c, h + 2 * pad_h, w + 2 * pad_w))
    buf[:, pad_h:pad_h + h, pad_w:pad_w + w] = v
    return buf


def _window(i: int, j: int, d: int, s: int, h_out: int, w_out: int) -> tuple:
    """Padded-map slice read by tap (i, j) for every output position."""
    return (slice(None),
            slice(i * d, i * d + (h_out - 1) * s + 1, s),
            slice(j * d, j * d + (w_out - 1) * s + 1, s))


def _columns(padded: np.ndarray, kh: int, kw: int, s: int, d: int,
             h_out: int, w_out: int) -> np.ndarray:
    """im2col in one copy: rows tap-major, channel-minor, one column per
    output position.  An unpadded 1x1, stride-1 input needs no copy."""
    c = padded.shape[0]
    sc, sh, sw = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (kh, kw, c, h_out, w_out), (d * sh, d * sw, sc, s * sh, s * sw),
        writeable=False)
    return windows.reshape(kh * kw * c, h_out * w_out)


def conv2d(x, p: Conv2dParams, activation: str = "none"):
    """out[o,y,x] = act(bias[o] + sum_{c,i,j} w[o,c,i,j] * padded[c, y*s + d*i, x*s + d*j])."""
    xv = T._val(x)
    wv = T._val(p.weights)
    bv = T._val(p.bias)
    if xv.ndim != 3 or wv.ndim != 4:
        raise ShapeError(f"conv2d wants [C,H,W] input and [O,C,kh,kw] weights, got {list(xv.shape)} / {list(wv.shape)}")
    c_out, c_in, kh, kw = wv.shape
    if xv.shape[0] != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {xv.shape[0]} vs weights {c_in}")
    if bv.shape != (c_out,):
        raise ShapeError(f"conv2d bias dims {list(bv.shape)} != [{c_out}]")
    if xv.dtype != wv.dtype:
        raise ShapeError(f"conv2d: input dtype {xv.dtype} vs weights {wv.dtype}")
    ph, pw = p.pad_hw
    s, d = p.stride, p.dilation
    h, w = xv.shape[1], xv.shape[2]
    h_out = conv_output_extent(h, ph, kh, s, d)
    w_out = conv_output_extent(w, pw, kw, s, d)
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d output extent non-positive: {h_out}x{w_out}")

    # grads closes over shapes, never over padded or the columns, so a
    # tape keeps neither alive
    padded = _pad(xv, ph, pw)
    padded_shape = padded.shape
    # weight matrix rows follow the columns' tap-major, channel-minor order
    wmat = np.ascontiguousarray(wv.transpose(0, 2, 3, 1)).reshape(c_out, kh * kw * c_in)
    out = wmat @ _columns(padded, kh, kw, s, d, h_out, w_out)
    out += bv.reshape(c_out, 1)
    out = _activate(out, activation).reshape(c_out, h_out, w_out)
    need_x, need_w, need_b = T._on_tape(x, p.weights, p.bias)

    def grads(g):
        g2 = _deactivate(g, out, activation).reshape(c_out, h_out * w_out)
        gx = gw = gb = None
        if need_x:
            # col2im; taps are summed in reverse, the order backward sums
            # per-tap slice nodes in, so the bits equal that composition's
            gcols = (wmat.T @ g2).reshape(kh, kw, c_in, h_out, w_out)
            gpad = np.zeros(padded_shape)
            for t in reversed(range(kh * kw)):
                i, j = divmod(t, kw)
                gpad[_window(i, j, d, s, h_out, w_out)] += gcols[i, j]
            gx = gpad[:, ph:ph + h, pw:pw + w]
        if need_w:
            cols = _columns(_pad(xv, ph, pw), kh, kw, s, d, h_out, w_out)
            gw = (g2 @ cols.T).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
        if need_b:
            gb = g2.sum(axis=1)
        return gx, gw, gb

    return T._emit((x, p.weights, p.bias), out, grads)


# Channels per depthwise block: about this many bytes of padded input, so
# a block's input, output and product temporary stay in L2 (swept against
# 128 KB to 1 MB at 48x64x64 and 48x128x128; see CHANGES.md)
_DEPTHWISE_BLOCK_BYTES = 1 << 18


def depthwise_conv2d(x, weights, padding: int | None = None):
    """Per-channel k x k convolution, spatial dims preserved; k must be odd."""
    xv = T._val(x)
    wv = T._val(weights)
    if wv.ndim != 3 or wv.shape[1] != wv.shape[2]:
        raise ShapeError(f"depthwise weights must be [C,k,k], got {list(wv.shape)}")
    c, k = wv.shape[0], wv.shape[1]
    if k % 2 == 0:
        raise ConfigError(f"depthwise kernel extent must be odd, got {k}")
    if xv.shape[0] != c:
        raise ShapeError(f"depthwise channel mismatch: input {xv.shape[0]} vs weights {c}")
    pad = (k - 1) // 2
    if padding is not None and padding != pad:
        raise ConfigError(f"depthwise padding must be (k-1)/2 = {pad}, got {padding}")
    h, w = xv.shape[1], xv.shape[2]
    taps = [divmod(t, k) for t in range(k * k)]

    padded = _pad(xv, pad, pad)
    padded_shape = padded.shape
    # channels are independent, so each block of channels accumulates
    # every tap in place while it is in cache
    nb = max(1, _DEPTHWISE_BLOCK_BYTES // max(1, padded[:1].nbytes))
    blocks = [slice(lo, min(lo + nb, c)) for lo in range(0, c, nb)]
    out = np.empty((c, h, w))
    tmp = np.empty((min(nb, c), h, w))
    for cb in blocks:
        o, t = out[cb], tmp[:cb.stop - cb.start]
        (i, j), rest = taps[0], taps[1:]
        np.multiply(padded[cb, i:i + h, j:j + w], wv[cb, i:i + 1, j:j + 1], out=o)
        for i, j in rest:
            np.multiply(padded[cb, i:i + h, j:j + w], wv[cb, i:i + 1, j:j + 1], out=t)
            o += t
    need_x, need_w = T._on_tape(x, weights)

    def grads(g):
        gx = gw = None
        tmp = np.empty((min(nb, c), h, w))
        if need_x:
            gpad = np.zeros(padded_shape)
            for cb in blocks:
                t = tmp[:cb.stop - cb.start]
                for i, j in reversed(taps):
                    np.multiply(g[cb], wv[cb, i:i + 1, j:j + 1], out=t)
                    gpad[cb, i:i + h, j:j + w] += t
            gx = gpad[:, pad:pad + h, pad:pad + w]
        if need_w:
            again = _pad(xv, pad, pad)
            gw = np.zeros((c, k, k))
            for cb in blocks:
                t = tmp[:cb.stop - cb.start]
                for i, j in taps:
                    np.multiply(g[cb], again[cb, i:i + h, j:j + w], out=t)
                    gw[cb, i, j] += t.sum(axis=(1, 2))
        return gx, gw

    return T._emit((x, weights), out, grads)


def _tap_positions(ov: np.ndarray, t: int, kh: int, kw: int) -> tuple:
    """Sampling positions [H,W] of tap t: the tap's lattice point plus its
    (dy, dx) offsets."""
    h, w = ov.shape[1], ov.shape[2]
    ry = t // kw - (kh - 1) // 2
    rx = t % kw - (kw - 1) // 2
    pos_y = ov[2 * t] + (np.arange(h, dtype=np.float64)[:, None] + ry)
    pos_x = ov[2 * t + 1] + (np.arange(w, dtype=np.float64)[None, :] + rx)
    return pos_y, pos_x


class _Bilinear:
    """The four corners of bilinear sampling at positions [H,W] on an
    H x W map, in the order (y0,x0), (y0,x1), (y1,x0), (y1,x1).  A corner
    outside the map reads a clipped in-range pixel with weight zero."""

    def __init__(self, pos_y: np.ndarray, pos_x: np.ndarray, h: int, w: int):
        y0 = np.floor(pos_y)
        x0 = np.floor(pos_x)
        self.wy = ((y0 + 1.0) - pos_y, pos_y - y0)
        self.wx = ((x0 + 1.0) - pos_x, pos_x - x0)
        yi = y0.astype(np.int64).reshape(-1)
        xi = x0.astype(np.int64).reshape(-1)
        ys, xs = (yi, yi + 1), (xi, xi + 1)
        y_in = [(y >= 0) & (y < h) for y in ys]
        x_in = [(x >= 0) & (x < w) for x in xs]
        y_off = [np.clip(y, 0, h - 1) * w for y in ys]
        x_off = [np.clip(x, 0, w - 1) for x in xs]
        self.index = [y_off[a] + x_off[b] for a in (0, 1) for b in (0, 1)]
        self.inside = [y_in[a] & x_in[b] for a in (0, 1) for b in (0, 1)]
        self.weights = [self.inside[2 * a + b] * (self.wy[a] * self.wx[b]).reshape(-1)
                        for a in (0, 1) for b in (0, 1)]

    def sample(self, v2: np.ndarray) -> np.ndarray:
        """Samples [C, H*W] of the flattened map v2 [C, H*W], gathering
        one corner at a time."""
        out = None
        for idx, wt in zip(self.index, self.weights):
            term = np.take(v2, idx, axis=1) * wt
            if out is None:
                out = term
            else:
                out += term
        return out

    def scatter_add(self, acc, gs: np.ndarray) -> np.ndarray:
        """acc (None for zero) plus the value gradient: each corner's share
        of gs [C, H*W] scattered back onto the flattened map, corners added
        in reverse order."""
        c, n = gs.shape
        channel_base = (np.arange(c) * n)[:, None]
        for idx, wt in reversed(list(zip(self.index, self.weights))):
            part = np.bincount((channel_base + idx).reshape(-1), (gs * wt).reshape(-1),
                               minlength=c * n)
            acc = part if acc is None else acc + part
        return acc

    def position_grads(self, gs: np.ndarray, v2: np.ndarray) -> tuple:
        """Gradients of sum(gs * samples of v2) with respect to pos_y and
        pos_x."""
        dots = [(gs * np.take(v2, idx, axis=1)).sum(axis=0) * inside
                for idx, inside in zip(self.index, self.inside)]
        wx0, wx1 = (u.reshape(-1) for u in self.wx)
        wy0, wy1 = (u.reshape(-1) for u in self.wy)
        g00, g01, g10, g11 = dots
        gy = (g11 * wx1 + g10 * wx0) - (g01 * wx1 + g00 * wx0)
        gx = (g11 * wy1 + g01 * wy0) - (g10 * wy1 + g00 * wy0)
        return gy, gx


def deformable_conv2d_with_offsets(x, base: Conv2dParams, offsets, activation: str = "none"):
    """Deformable 3x3 with an explicit offset field [2*kh*kw, H, W],
    followed by the activation.

    Taps are sampled and multiplied one at a time, summed in tap order.
    Backward keeps nothing per tap: it recomputes the sampling positions
    from the offsets and gathers the corners again.
    """
    xv = T._val(x)
    wv = T._val(base.weights)
    bv = T._val(base.bias)
    c_out, c_in, kh, kw = wv.shape
    if xv.shape[0] != c_in:
        raise ShapeError(f"deformable channel mismatch: input {xv.shape[0]} vs weights {c_in}")
    ov = T._val(offsets)
    if ov.shape != (2 * kh * kw, xv.shape[1], xv.shape[2]):
        raise ShapeError(f"offset dims {list(ov.shape)} != [{2 * kh * kw}, {xv.shape[1]}, {xv.shape[2]}]")
    h, w = xv.shape[1], xv.shape[2]
    x2 = xv.reshape(c_in, h * w)

    def tap_weights(t):
        return np.ascontiguousarray(wv[:, :, t // kw, t % kw])

    record = active_record()
    out = None
    for t in range(kh * kw):
        pos_y, pos_x = _tap_positions(ov, t, kh, kw)
        if record is not None:
            for pos in (pos_y, pos_x):
                record.margin("lattice", np.abs(pos - np.round(pos)))
        bil = _Bilinear(pos_y, pos_x, h, w)
        term = tap_weights(t) @ bil.sample(x2)
        out = term if out is None else out + term
    out += bv.reshape(c_out, 1)
    out = _activate(out, activation).reshape(c_out, h, w)
    need_x, need_w, need_b, need_o = T._on_tape(x, base.weights, base.bias, offsets)

    def grads(g):
        g2 = _deactivate(g, out, activation).reshape(c_out, h * w)
        gx = None
        gw = np.zeros(wv.shape) if need_w else None
        go = np.zeros(ov.shape) if need_o else None
        # reverse tap and corner order, the order backward sums per-corner
        # gather nodes in, so the bits equal that composition's
        for t in reversed(range(kh * kw)):
            bil = _Bilinear(*_tap_positions(ov, t, kh, kw), h, w)
            if need_w:
                gw[:, :, t // kw, t % kw] += g2 @ bil.sample(x2).T
            gs = tap_weights(t).T @ g2 if (need_x or need_o) else None
            if need_x:
                gx = bil.scatter_add(gx, gs)
            if need_o:
                gy, gxp = bil.position_grads(gs, x2)
                go[2 * t] += gy.reshape(h, w)
                go[2 * t + 1] += gxp.reshape(h, w)
        return (gx.reshape(c_in, h, w) if need_x else None, gw,
                g2.sum(axis=1) if need_b else None, go)

    return T._emit((x, base.weights, base.bias, offsets), out, grads)


def deformable_conv2d(x, p: DeformableParams, activation: str = "none"):
    """Predict per-tap offsets from the input (never activated), then
    sample, accumulate and activate; a zero-initialized predictor makes
    this identical to conv2d(x, p.base, activation)."""
    wv = T._val(p.base.weights)
    kh, kw = wv.shape[2], wv.shape[3]
    opv = T._val(p.offset_predictor.weights)
    if opv.shape[0] != 2 * kh * kw:
        raise ShapeError(f"offset predictor emits {opv.shape[0]} channels, base needs {2 * kh * kw}")
    offsets = conv2d(x, p.offset_predictor)
    return deformable_conv2d_with_offsets(x, p.base, offsets, activation)
