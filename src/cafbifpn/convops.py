"""Convolution variants for the feature-enhancement branches: standard
(any odd kernel extents, dilation) and deformable convolution with a
learned offset field sampled bilinearly, plus the depthwise kernel of
attention's local-context term (a numpy-level helper; attention.merge_lce
records its node).  Every convolution keeps its map's extents: the zero
padding follows from kernel extent and dilation (_same_pad).

All spatial layouts are [channels, height, width], single image.  Every
public function accepts plain tensors or tape nodes.  Each convolution
records one tape node whose hand-written vector-Jacobian product returns
the gradients of every operand on the tape; gradients flow through
values and sampling weights, never through integer sample indices.

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
    """weights [C_out, C_in, k_h, k_w] with k_h and k_w odd, bias [C_out]."""

    weights: object
    bias: object
    dilation: int = 1


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
        # fmax sends NaN to 0 as the mask out > 0 does; + 0.0 makes -0.0 +0.0
        np.fmax(out, 0.0, out=out)
        out += 0.0
    elif activation != "none":
        raise ConfigError(f"unknown activation {activation!r}")
    return out


def _deactivate(g: np.ndarray, out: np.ndarray, activation: str) -> np.ndarray:
    """The output gradient g carried back through the activation; out is
    the activated output, positive exactly where the pre-activation is."""
    return g * (out > 0) if activation == "relu" else g


def _same_pad(kernel: int, dilation: int) -> int:
    """The zero padding per side that keeps a map's extent under an odd
    kernel extent at a dilation of at least 1; an even extent has no centre tap."""
    if kernel % 2 == 0 or dilation < 1:
        raise ConfigError(f"want an odd kernel extent at dilation >= 1, got {kernel} at {dilation}")
    return dilation * (kernel - 1) // 2


def _pad(v: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    if pad_h == 0 and pad_w == 0:
        return v
    c, h, w = v.shape
    buf = np.zeros((c, h + 2 * pad_h, w + 2 * pad_w))
    buf[:, pad_h:pad_h + h, pad_w:pad_w + w] = v
    return buf


def _columns(padded: np.ndarray, kh: int, kw: int, d: int, h: int, w: int) -> np.ndarray:
    """im2col in one copy: rows tap-major, channel-minor, one column per
    output position.  An unpadded 1x1 input needs no copy."""
    c = padded.shape[0]
    sc, sh, sw = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (kh, kw, c, h, w), (d * sh, d * sw, sc, sh, sw), writeable=False)
    return windows.reshape(kh * kw * c, h * w)


def _operands(x, p: Conv2dParams, op: str) -> tuple:
    """The input [C,H,W], weights [O,C,kh,kw] and bias [O] arrays of
    convolution op, checked against each other."""
    xv, wv, bv = T._val(x), T._val(p.weights), T._val(p.bias)
    if xv.ndim != 3 or wv.ndim != 4:
        raise ShapeError(f"{op} wants [C,H,W] input and [O,C,kh,kw] weights, got {list(xv.shape)} / {list(wv.shape)}")
    if xv.shape[0] != wv.shape[1]:
        raise ShapeError(f"{op} channel mismatch: input {xv.shape[0]} vs weights {wv.shape[1]}")
    if bv.shape != wv.shape[:1]:
        raise ShapeError(f"{op} bias dims {list(bv.shape)} != [{wv.shape[0]}]")
    return xv, wv, bv


def conv2d(x, p: Conv2dParams, activation: str = "none"):
    """out[o,y,x] = act(bias[o] + sum_{c,i,j} w[o,c,i,j] * padded[c, y + d*i, x + d*j]),
    out of the extents of x."""
    xv, wv, bv = _operands(x, p, "conv2d")
    c_out, c_in, kh, kw = wv.shape
    d = p.dilation
    ph, pw = _same_pad(kh, d), _same_pad(kw, d)
    h, w = xv.shape[1], xv.shape[2]

    # grads closes over shapes, never over padded or the columns, so a
    # tape keeps neither alive
    padded = _pad(xv, ph, pw)
    padded_shape = padded.shape
    # weight matrix rows follow the columns' tap-major, channel-minor order
    wmat = np.ascontiguousarray(wv.transpose(0, 2, 3, 1)).reshape(c_out, kh * kw * c_in)
    out = wmat @ _columns(padded, kh, kw, d, h, w)
    out += bv.reshape(c_out, 1)
    out = _activate(out, activation).reshape(c_out, h, w)
    need_x, need_w, need_b = T._on_tape(x, p.weights, p.bias)

    def grads(g):
        g2 = _deactivate(g, out, activation).reshape(c_out, h * w)
        gx = gw = gb = None
        if need_x:
            # col2im; taps are summed in reverse, the order backward sums
            # per-tap slice nodes in, so the bits equal that composition's
            gcols = (wmat.T @ g2).reshape(kh, kw, c_in, h, w)
            gpad = np.zeros(padded_shape)
            for t in reversed(range(kh * kw)):
                i, j = divmod(t, kw)
                gpad[:, i * d:i * d + h, j * d:j * d + w] += gcols[i, j]
            gx = gpad[:, ph:ph + h, pw:pw + w]
        if need_w:
            cols = _columns(_pad(xv, ph, pw), kh, kw, d, h, w)
            gw = (g2 @ cols.T).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
        if need_b:
            gb = g2.sum(axis=1)
        return gx, gw, gb

    return T._emit((x, p.weights, p.bias), out, grads)


def _depthwise(x: np.ndarray, weights: np.ndarray, add: np.ndarray | None = None):
    """Per-channel k x k convolution of a map by weights [C, k, k], k odd,
    zero-padded so that the map's extents are kept, plus add when given:
    (out [C, H, W], vjp).  x, and add, are the map as a [C, S, th, S, tw]
    view of S x S regions (H = S th, W = S tw; a plain map is
    x.reshape(C, 1, H, 1, W)).  vjp(g, need_x, need_w) gives the input
    gradient [C, H, W] and the kernel gradient, None where not needed."""
    if weights.ndim != 3 or weights.shape[1] != weights.shape[2]:
        raise ShapeError(f"depthwise weights must be [C,k,k], got {list(weights.shape)}")
    c, k = weights.shape[0], weights.shape[1]
    pad = _same_pad(k, 1)
    if x.shape[0] != c:
        raise ShapeError(f"depthwise channel mismatch: input {x.shape[0]} vs weights {c}")
    h, w = x.shape[1] * x.shape[2], x.shape[3] * x.shape[4]
    taps = [divmod(t, k) for t in range(k * k)]
    # channels are independent, so each block of channels is padded into
    # a scratch buffer and accumulates every tap in place while in cache;
    # the blocks are T._run_rows's rows, each share with scratch of its own
    nb = T._block_rows((c, h + 2 * pad, w + 2 * pad))
    n_blocks = -(-c // nb)
    work = 2 * k * k * c * h * w  # element operations: a multiply and an add per tap

    def blocks(claimed):
        for b in claimed:
            yield slice(b * nb, min((b + 1) * nb, c))

    def scratch():
        return np.zeros((min(nb, c), h + 2 * pad, w + 2 * pad)), np.empty((min(nb, c), h, w))

    def padded(cb, buf):
        """Channels cb of x inside buf's zero border."""
        p = buf[:cb.stop - cb.start]
        # a view: splitting axes of the interior never needs a copy
        p[:, pad:pad + h, pad:pad + w].reshape(p.shape[:1] + x.shape[1:])[...] = x[cb]
        return p

    out = np.empty((c, h, w))

    def forward(claimed):
        buf, tmp = scratch()
        for cb in blocks(claimed):
            xp, o, t = padded(cb, buf), out[cb], tmp[:cb.stop - cb.start]
            (i, j), rest = taps[0], taps[1:]
            np.multiply(xp[:, i:i + h, j:j + w], weights[cb, i:i + 1, j:j + 1], out=o)
            for i, j in rest:
                np.multiply(xp[:, i:i + h, j:j + w], weights[cb, i:i + 1, j:j + 1], out=t)
                o += t
            if add is not None:
                in_x = o.reshape(o.shape[:1] + x.shape[1:])
                in_x += add[cb]

    T._run_rows(n_blocks, forward, work)

    def vjp(g, need_x, need_w):
        gx = gw = None
        if need_x:
            gpad = np.zeros((c, h + 2 * pad, w + 2 * pad))

            def input_grad(claimed):
                tmp = np.empty((min(nb, c), h, w))
                for cb in blocks(claimed):
                    t = tmp[:cb.stop - cb.start]
                    for i, j in reversed(taps):
                        np.multiply(g[cb], weights[cb, i:i + 1, j:j + 1], out=t)
                        gpad[cb, i:i + h, j:j + w] += t

            T._run_rows(n_blocks, input_grad, work)
            gx = gpad[:, pad:pad + h, pad:pad + w]
        if need_w:
            gw = np.zeros((c, k, k))

            def kernel_grad(claimed):
                buf, tmp = scratch()
                for cb in blocks(claimed):
                    xp, t = padded(cb, buf), tmp[:cb.stop - cb.start]
                    for i, j in taps:
                        np.multiply(g[cb], xp[:, i:i + h, j:j + w], out=t)
                        gw[cb, i, j] += t.sum(axis=(1, 2))

            T._run_rows(n_blocks, kernel_grad, work)
        return gx, gw

    return out, vjp


def _corner_axis(offsets, lattice, extent: int, scale: int, record) -> tuple:
    """One axis of sampling at positions offsets + lattice [taps, H, W]: the
    lower and upper corners' weights, in-map masks and clipped coordinates
    times scale, each [taps, H*W]; the lattice margin goes to record.
    Positions are then clipped to [-2, extent + 1], which moves only those
    whose corners are all off the map, so the integer cast stays defined."""
    pos = offsets + lattice
    if record is not None:
        record.margin("lattice", np.abs(pos - np.round(pos)))
    np.clip(pos, -2.0, extent + 1.0, out=pos)
    lo = np.floor(pos)
    weights = [u.reshape(len(pos), -1) for u in ((lo + 1.0) - pos, pos - lo)]
    i = lo.astype(np.int64).reshape(len(pos), -1)
    del pos, lo
    corners = (i, i + 1)
    return (weights, [(j >= 0) & (j < extent) for j in corners],
            [np.clip(j, 0, extent - 1) * scale for j in corners])


class _Bilinear:
    """Bilinear sampling geometry of every tap at once, from an offset field
    [2*kh*kw, H, W]: each position's four corners, in the order (y0,x0),
    (y0,x1), (y1,x0), (y1,x1), as [taps, H*W] arrays.  A corner outside the
    map reads a clipped in-range pixel with weight zero.  Temporaries are
    freed or overwritten once used, to hold the peak near the result's size."""

    def __init__(self, ov: np.ndarray, kh: int, kw: int, record=None):
        h, w = ov.shape[1], ov.shape[2]
        ry, rx = np.divmod(np.arange(kh * kw), kw)
        lattice_y = np.arange(h, dtype=np.float64)[:, None] + (ry - _same_pad(kh, 1))[:, None, None]
        lattice_x = np.arange(w, dtype=np.float64) + (rx - _same_pad(kw, 1))[:, None, None]
        self.wy, y_in, (y0, y1) = _corner_axis(ov[0::2], lattice_y, h, w, record)
        self.wx, x_in, (x0, x1) = _corner_axis(ov[1::2], lattice_x, w, 1, record)
        # left to right, each coordinate array is overwritten after its last read
        self.index = [y0 + x0, np.add(y0, x1, out=y0), np.add(y1, x0, out=x0),
                      np.add(y1, x1, out=x1)]
        self.inside = [y_in[a] & x_in[b] for a in (0, 1) for b in (0, 1)]
        self.weights = [self.wy[a] * self.wx[b] for a in (0, 1) for b in (0, 1)]
        for wt, inside in zip(self.weights, self.inside):
            wt *= inside

    def sample(self, v2: np.ndarray, t: int, out, buf: np.ndarray, gs=None, tmp=None):
        """Writes tap t's samples of the flattened map v2 [C, H*W] into out
        (unless None), gathering each corner once into buf (the indices are
        in range; clip mode gathers in place, the default stages a copy).
        Given gs, the samples' gradient, and scratch tmp, returns from the
        same gathers the gradients [H*W] for tap t's pos_y and pos_x."""
        dots = []
        for k, (idx, wt, inside) in enumerate(zip(self.index, self.weights, self.inside)):
            vals = np.take(v2, idx[t], axis=1, out=buf, mode="clip")
            if gs is not None:
                dots.append(np.multiply(gs, vals, out=tmp).sum(axis=0) * inside[t])
            if out is not None and k == 0:
                np.multiply(vals, wt[t], out=out)
            elif out is not None:
                out += np.multiply(vals, wt[t], out=vals)
        if gs is None:
            return None
        (wy0, wy1), (wx0, wx1) = [u[t] for u in self.wy], [u[t] for u in self.wx]
        g00, g01, g10, g11 = dots
        return ((g11 * wx1 + g10 * wx0) - (g01 * wx1 + g00 * wx0),
                (g11 * wy1 + g01 * wy0) - (g10 * wy1 + g00 * wy0))


def deformable_conv2d_with_offsets(x, base: Conv2dParams, offsets, activation: str = "none"):
    """Deformable 3x3 with an explicit offset field [2*kh*kw, H, W],
    followed by the activation.

    The sampling geometry of all taps is built once, then taps are sampled
    and multiplied one at a time, summed in tap order.  Backward rebuilds
    the geometry and gathers each tap's corners once, for both the weight
    and the offset gradients.
    """
    xv, wv, bv = _operands(x, base, "deformable")
    c_out, c_in, kh, kw = wv.shape
    if base.dilation != 1:
        raise ConfigError(f"the deformable sampling lattice takes dilation 1, got {base.dilation}")
    ov = T._val(offsets)
    if ov.shape != (2 * kh * kw, xv.shape[1], xv.shape[2]):
        raise ShapeError(f"offset dims {list(ov.shape)} != [{2 * kh * kw}, {xv.shape[1]}, {xv.shape[2]}]")
    h, w = xv.shape[1], xv.shape[2]
    x2 = xv.reshape(c_in, h * w)

    tap_weights = np.ascontiguousarray(wv.transpose(2, 3, 0, 1)).reshape(kh * kw, c_out, c_in)
    bil = _Bilinear(ov, kh, kw, active_record())
    del bil.wy, bil.wx  # only the offset gradients read them
    sample, buf = (np.empty((c_in, h * w)) for _ in range(2))
    for t in range(kh * kw):
        bil.sample(x2, t, sample, buf)
        out = tap_weights[t] @ sample if t == 0 else np.add(out, tap_weights[t] @ sample, out=out)
    del bil, sample, buf
    out += bv.reshape(c_out, 1)
    out = _activate(out, activation).reshape(c_out, h, w)
    need_x, need_w, need_b, need_o = T._on_tape(x, base.weights, base.bias, offsets)

    def grads(g):
        g2 = _deactivate(g, out, activation).reshape(c_out, h * w)
        gx = None
        gw = np.zeros(wv.shape) if need_w else None
        go = np.zeros(ov.shape) if need_o else None
        bil = _Bilinear(ov, kh, kw)
        sample, buf, tmp = (np.empty((c_in, h * w)) for _ in range(3))
        channel_base = (np.arange(c_in) * (h * w))[:, None]
        # reverse tap and corner order, the order backward sums per-corner
        # gather nodes in, so the bits equal that composition's
        for t in reversed(range(kh * kw)):
            gs = tap_weights[t].T @ g2 if (need_x or need_o) else None
            if need_x:
                for idx, wt in reversed(list(zip(bil.index, bil.weights))):
                    part = np.bincount((channel_base + idx[t]).reshape(-1), (gs * wt[t]).reshape(-1),
                                       minlength=c_in * h * w)
                    gx = part if gx is None else np.add(gx, part, out=gx)
            if need_w or need_o:
                pos_grads = bil.sample(x2, t, sample if need_w else None, buf,
                                       gs if need_o else None, tmp)
            if need_w:
                gw[:, :, t // kw, t % kw] += g2 @ sample.T
            if need_o:
                go[2 * t:2 * t + 2] += np.reshape(pos_grads, (2, h, w))
        return (gx.reshape(c_in, h, w) if need_x else None, gw,
                g2.sum(axis=1) if need_b else None, go)

    return T._emit((x, base.weights, base.bias, offsets), out, grads)


def deformable_conv2d(x, p: DeformableParams, activation: str = "none",
                      kinks: dict | None = None):
    """Predict per-tap offsets from the input (never activated), then
    sample, accumulate and activate; a zero-initialized predictor makes
    this identical to conv2d(x, p.base, activation).

    kinks, a mutable dict, freezes the sampling offsets: they are taken
    from kinks["offsets"] as a constant, or predicted and stored there.  A
    predictor of the wrong width fails the offset dims check."""
    if kinks is not None and "offsets" in kinks:
        return deformable_conv2d_with_offsets(x, p.base, kinks["offsets"], activation)
    offsets = conv2d(x, p.offset_predictor)
    if kinks is not None:
        kinks["offsets"] = T.tensor(T._val(offsets))
    return deformable_conv2d_with_offsets(x, p.base, offsets, activation)
