import numpy as np

from cafbifpn import tensor as T
from cafbifpn.convops import (Conv2dParams, DeformableParams, _depthwise, conv2d,
                              conv_output_extent, deformable_conv2d,
                              deformable_conv2d_with_offsets)
from cafbifpn.reference import ref_conv2d, ref_deformable, ref_depthwise

from conftest import arr, max_abs_diff


def _rand_conv(rng, c_out, c_in, kh, kw, **kw_args):
    return Conv2dParams(weights=rng.tensor([c_out, c_in, kh, kw], -1.0, 1.0),
                        bias=rng.tensor([c_out], -0.5, 0.5), **kw_args)


def test_conv_output_extent_formula():
    assert conv_output_extent(8, 1, 3, 1, 1) == 8
    assert conv_output_extent(9, 1, 3, 2, 1) == 5
    assert conv_output_extent(8, 2, 3, 1, 2) == 8
    assert conv_output_extent(5, 0, 5, 1, 1) == 1


def test_conv_agrees_with_vectorized_reference():
    rng = T.Rng(32)
    x = rng.tensor([3, 8, 8], -1.0, 1.0)
    p = _rand_conv(rng, 5, 3, 3, 3, padding=(2, 2), dilation=2)
    assert max_abs_diff(conv2d(x, p), T.tensor(ref_conv2d(x, p))) <= 1e-13


def test_depthwise_same_padding():
    rng = T.Rng(33)
    x = rng.tensor([4, 6, 6], -1.0, 1.0)
    kernel = rng.tensor([4, 5, 5], -1.0, 1.0)
    out, _ = _depthwise(arr(x), arr(kernel))
    assert out.shape == (4, 6, 6)
    assert max_abs_diff(out, ref_depthwise(x, kernel)) <= 1e-13


def test_depthwise_channel_blocks_change_no_bit(monkeypatch):
    """Channels are independent, so cutting them into blocks of two over
    five channels (the last block short) changes no bit of the output,
    the input gradient or the kernel gradient."""
    rng = T.Rng(34)
    x, kernel, g = (arr(rng.tensor(dims, -1.0, 1.0)) for dims in ([5, 6, 7], [5, 5, 5], [5, 6, 7]))

    def run():
        out, vjp = _depthwise(x, kernel)
        return (out,) + vjp(g, True, True)

    whole = run()
    monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * 8 * (6 + 4) * (7 + 4))
    assert T._block_rows((5, 6 + 4, 7 + 4)) == 2
    blocked = run()
    for name, a, b in zip(("output", "input gradient", "kernel gradient"), whole, blocked):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert max_abs_diff(blocked[0], ref_depthwise(x, kernel)) <= 1e-13


def test_deformable_agrees_with_reference():
    rng = T.Rng(35)
    x = rng.tensor([3, 6, 6], -1.0, 1.0)
    base = _rand_conv(rng, 2, 3, 3, 3, padding=1)
    pred = Conv2dParams(weights=rng.tensor([18, 3, 3, 3], -0.3, 0.3),
                        bias=rng.tensor([18], -0.2, 0.2), padding=1)
    p = DeformableParams(base, pred)
    assert max_abs_diff(deformable_conv2d(x, p), T.tensor(ref_deformable(x, p))) <= 1e-12


def test_bilinear_out_of_bounds_reads_zero():
    # one tap pushed far outside the map must contribute nothing
    x = T.full([1, 3, 3], 1.0)
    base = Conv2dParams(weights=T.full([1, 1, 1, 1], 1.0), bias=T.zeros([1]), padding=0)
    offsets = T.full([2, 3, 3], 100.0)
    out = arr(deformable_conv2d_with_offsets(x, base, offsets))
    assert np.all(out == 0.0)


def test_each_convolution_records_one_tape_node():
    rng = T.Rng(39)
    x = rng.tensor([2, 5, 5], -1.0, 1.0)
    base = _rand_conv(rng, 3, 2, 3, 3, padding=1)
    pred = _rand_conv(rng, 18, 2, 3, 3, padding=1)
    ops = (
        (lambda v: conv2d(v, _rand_conv(rng, 3, 2, 3, 3, padding=(1, 2), dilation=2, stride=2)), 1),
        (lambda v: deformable_conv2d_with_offsets(v, base, rng.tensor([18, 5, 5], -1.0, 1.0)), 1),
        (lambda v: deformable_conv2d(v, DeformableParams(base, pred)), 2),
    )
    for op, nodes in ops:
        tape = T.Tape()
        leaf = tape.leaf(x)
        out = op(leaf)
        assert len(tape.nodes) == 1 + nodes
        assert tape.nodes[-1] is out
