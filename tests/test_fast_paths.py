"""The enhancement block's fast paths against the algorithms they replaced,
bit for bit: the relu against a masked select on every IEEE edge value,
and all-tap deformable sampling against per-tap sampling, rebuilt here."""

import numpy as np
import pytest

from cafbifpn import tensor as T
from cafbifpn.convops import Conv2dParams, _activate, conv2d, deformable_conv2d_with_offsets
from cafbifpn.instrumentation import RunRecord, count_macs


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -- deformable convolution, one tap at a time --

def _tap_geometry(ov, t, kh, kw):
    """Positions of tap t, then its four corners' flat indices, in-map masks
    and weights, and the flat per-axis weights (wy, wx)."""
    h, w = ov.shape[1], ov.shape[2]
    ry = t // kw - (kh - 1) // 2
    rx = t % kw - (kw - 1) // 2
    pos_y = ov[2 * t] + (np.arange(h, dtype=np.float64)[:, None] + ry)
    pos_x = ov[2 * t + 1] + (np.arange(w, dtype=np.float64)[None, :] + rx)
    y0, x0 = np.floor(pos_y), np.floor(pos_x)
    wy = ((y0 + 1.0) - pos_y, pos_y - y0)
    wx = ((x0 + 1.0) - pos_x, pos_x - x0)
    yi, xi = y0.astype(np.int64).reshape(-1), x0.astype(np.int64).reshape(-1)
    ys, xs = (yi, yi + 1), (xi, xi + 1)
    index, inside, weights = [], [], []
    for a in (0, 1):
        for b in (0, 1):
            index.append(np.clip(ys[a], 0, h - 1) * w + np.clip(xs[b], 0, w - 1))
            inside.append((ys[a] >= 0) & (ys[a] < h) & (xs[b] >= 0) & (xs[b] < w))
            weights.append(inside[-1] * (wy[a] * wx[b]).reshape(-1))
    return index, inside, weights, [u.reshape(-1) for u in wy], [u.reshape(-1) for u in wx]


def _per_tap_sample(x2, index, weights):
    out = None
    for idx, wt in zip(index, weights):
        term = np.take(x2, idx, axis=1) * wt
        out = term if out is None else out + term
    return out


def _per_tap_forward(xv, wv, bv, ov, activation):
    c_out, c_in, kh, kw = wv.shape
    h, w = xv.shape[1], xv.shape[2]
    x2 = xv.reshape(c_in, h * w)
    out = None
    for t in range(kh * kw):
        index, _, weights, _, _ = _tap_geometry(ov, t, kh, kw)
        term = np.ascontiguousarray(wv[:, :, t // kw, t % kw]) @ _per_tap_sample(x2, index, weights)
        out = term if out is None else out + term
    out = out + bv.reshape(c_out, 1)
    if activation == "relu":
        out = np.where(out > 0, out, 0.0)
    return out.reshape(c_out, h, w)


def _per_tap_vjp(xv, wv, ov, out, g, activation):
    """Taps and corners in reverse, one bincount per corner, and a second
    gather of every corner for the offset dots."""
    c_out, c_in, kh, kw = wv.shape
    h, w = xv.shape[1], xv.shape[2]
    n = h * w
    x2 = xv.reshape(c_in, n)
    g2 = (g * (out > 0) if activation == "relu" else g).reshape(c_out, n)
    gx, gw, go = None, np.zeros(wv.shape), np.zeros(ov.shape)
    channel_base = (np.arange(c_in) * n)[:, None]
    for t in reversed(range(kh * kw)):
        index, inside, weights, (wy0, wy1), (wx0, wx1) = _tap_geometry(ov, t, kh, kw)
        gw[:, :, t // kw, t % kw] += g2 @ _per_tap_sample(x2, index, weights).T
        gs = np.ascontiguousarray(wv[:, :, t // kw, t % kw]).T @ g2
        for idx, wt in reversed(list(zip(index, weights))):
            part = np.bincount((channel_base + idx).reshape(-1), (gs * wt).reshape(-1),
                               minlength=c_in * n)
            gx = part if gx is None else gx + part
        g00, g01, g10, g11 = [(gs * np.take(x2, idx, axis=1)).sum(axis=0) * ins
                              for idx, ins in zip(index, inside)]
        go[2 * t] += ((g11 * wx1 + g10 * wx0) - (g01 * wx1 + g00 * wx0)).reshape(h, w)
        go[2 * t + 1] += ((g11 * wy1 + g01 * wy0) - (g10 * wy1 + g00 * wy0)).reshape(h, w)
    return gx.reshape(c_in, h, w), gw, g2.sum(axis=1), go


@pytest.mark.parametrize("activation", ["relu", "none"])
def test_deformable_matches_per_tap_sampling_bit_for_bit(activation):
    rng = np.random.default_rng(20)
    c_in, c_out, h, w = 3, 4, 6, 7
    xv = rng.uniform(-1.0, 1.0, (c_in, h, w))
    wv = rng.uniform(-0.5, 0.5, (c_out, c_in, 3, 3))
    bv = rng.uniform(-0.1, 0.1, c_out)
    # offsets of up to 4 pixels: corners leave the map, and samples of one
    # tap share source pixels, so bincount sums several terms per pixel
    ov = rng.uniform(-4.0, 4.0, (18, h, w))
    g = rng.uniform(-1.0, 1.0, (c_out, h, w))

    geometry = [_tap_geometry(ov, t, 3, 3) for t in range(9)]
    assert any(not ins.all() for _, inside, *_ in geometry for ins in inside)
    assert all(any(len(np.unique(idx[ins])) < ins.sum() for idx, ins in zip(index, inside))
               for index, inside, *_ in geometry)

    tape = T.Tape()
    leaves = [tape.leaf(T.tensor(v)) for v in (xv, wv, bv, ov)]
    out = deformable_conv2d_with_offsets(
        leaves[0], Conv2dParams(leaves[1], leaves[2]), leaves[3], activation)
    grads = tape.backward(out, T.tensor(g))

    want = _per_tap_forward(xv, wv, bv, ov, activation)
    assert _same_bits(T._val(out), want)
    if activation == "relu":
        assert (want == 0.0).any() and (want > 0.0).any()
    for name, leaf, ref in zip(("input", "weights", "bias", "offsets"), leaves,
                               _per_tap_vjp(xv, wv, ov, want, g, activation)):
        assert _same_bits(grads[leaf].array, ref), name


# -- relu --

_TINY = np.nextafter(0.0, 1.0)
# each infinity is followed by a finite value, so the bilinear corner that
# reads that value with weight zero leaves the infinity's own sample alone
_EDGES = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, 1.5, -np.inf, -2.5,
                   _TINY, -_TINY, 2.2e-310, -3.0e-310, 0.3])


@pytest.mark.parametrize("n", [1, 3, 7, 13, 37, 1001])
def test_relu_equals_masked_select_on_edge_values(n):
    pre = np.resize(np.roll(_EDGES, n), n)
    assert _same_bits(_activate(pre.copy(), "relu"), np.where(pre > 0, pre, 0.0))


def _edge_map(n):
    """[1, 2, n] map: the edge values, then a row of ordinary values below
    them for the bilinear corners that reach down."""
    return np.stack([np.resize(_EDGES, n), np.resize([0.5, -0.75, 1.25], n)])[None]


@pytest.mark.parametrize("n", [13, 37])
@pytest.mark.parametrize("conv", ["conv2d", "deformable"])
def test_convolution_relu_equals_masked_select(conv, n):
    x = T.tensor(_edge_map(n))
    p = Conv2dParams(T.tensor(np.ones((1, 1, 1, 1))), T.tensor(np.array([-0.0])))

    def run(activation):
        if conv == "conv2d":
            return conv2d(x, p, activation)
        return deformable_conv2d_with_offsets(x, p, T.tensor(np.zeros((2, 2, n))), activation)

    with np.errstate(invalid="ignore"):  # an infinity times a zero corner weight
        pre = T._val(run("none"))
        with count_macs() as record:
            got = T._val(run("relu"))
    flat = pre.reshape(-1)
    # the pre-activation holds every class the relu must handle
    assert np.isnan(flat).any() and np.signbit(flat[np.isnan(flat)]).any()
    assert (flat == np.inf).any() and (flat == -np.inf).any() and (flat == 0.0).any()
    assert ((flat != 0) & (np.abs(flat) < np.finfo(np.float64).tiny)).sum() >= 4
    assert ((flat < 0) & np.isfinite(flat)).any() and ((flat > 0) & np.isfinite(flat)).any()
    assert _same_bits(got, np.where(pre > 0, pre, 0.0))
    expect = RunRecord()
    expect.margin("relu", np.abs(pre))
    assert record.margins["relu"] == expect.margins["relu"]


def test_relu_margin_is_the_smallest_magnitude():
    x = T.tensor(np.array([[[0.5, -_TINY, 2.0, -0.25, 3e-310, 7.0, -1.0]]]))
    p = Conv2dParams(T.tensor(np.ones((1, 1, 1, 1))), T.tensor(np.array([-0.0])))
    with count_macs() as record:
        out = T._val(conv2d(x, p, "relu"))
    assert record.margins["relu"] == _TINY
    assert _same_bits(out, np.array([[[0.5, 0.0, 2.0, 0.0, 3e-310, 7.0, 0.0]]]))
