import numpy as np
import pytest

from cafbifpn import tensor as T
from cafbifpn.convops import (Conv2dParams, DeformableParams, _depthwise, conv2d,
                              deformable_conv2d, deformable_conv2d_with_offsets)
from cafbifpn.errors import ConfigError, KernelError, ShapeError
from cafbifpn.oracles import conv2d_reference
from cafbifpn.reference import ref_conv2d, ref_deformable, ref_depthwise

from conftest import arr, max_abs_diff


def _rand_conv(rng, c_out, c_in, kh, kw, **kw_args):
    return Conv2dParams(weights=rng.tensor([c_out, c_in, kh, kw], -1.0, 1.0),
                        bias=rng.tensor([c_out], -0.5, 0.5), **kw_args)


def test_conv_agrees_with_vectorized_reference():
    rng = T.Rng(32)
    x = rng.tensor([3, 8, 8], -1.0, 1.0)
    p = _rand_conv(rng, 5, 3, 3, 3, dilation=2)
    assert max_abs_diff(conv2d(x, p), T.tensor(ref_conv2d(x, p))) <= 1e-13


@pytest.mark.parametrize("conv", [
    pytest.param(conv2d, id="conv2d"),
    pytest.param(lambda x, p: deformable_conv2d_with_offsets(x, p, T.zeros([12, 5, 5])),
                 id="deformable"),
    pytest.param(conv2d_reference, id="loop-oracle"),
    pytest.param(ref_conv2d, id="reference"),
    pytest.param(lambda x, p: ref_depthwise(x, T.zeros([3, 2, 2])), id="reference-depthwise"),
])
def test_even_kernel_extent_refused(conv):
    """An even extent has no centre tap, so no padding keeps the map's
    extents; every route refuses it rather than run a shifted window."""
    p = Conv2dParams(weights=T.zeros([2, 3, 3, 2]), bias=T.zeros([2]))
    with pytest.raises(KernelError, match="odd"):
        conv(T.zeros([3, 5, 5]), p)


def test_depthwise_same_padding():
    rng = T.Rng(33)
    x = rng.tensor([4, 6, 6], -1.0, 1.0)
    kernel = rng.tensor([4, 5, 5], -1.0, 1.0)
    out, _ = _depthwise(arr(x).reshape(4, 1, 6, 1, 6), arr(kernel))
    assert out.shape == (4, 6, 6)
    assert max_abs_diff(out, ref_depthwise(x, kernel)) <= 1e-13


def test_depthwise_channel_blocks_change_no_bit(monkeypatch):
    """Channels are independent, so cutting them into blocks of two over
    five channels (the last block short) changes no bit of the output,
    the input gradient or the kernel gradient."""
    rng = T.Rng(34)
    x, kernel, g = (arr(rng.tensor(dims, -1.0, 1.0)) for dims in ([5, 6, 7], [5, 5, 5], [5, 6, 7]))

    def run():
        out, vjp = _depthwise(x.reshape(5, 1, 6, 1, 7), kernel)
        return (out,) + vjp(g, True, True)

    whole = run()
    monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * 8 * (6 + 4) * (7 + 4))
    assert T._block_rows((5, 6 + 4, 7 + 4)) == 2
    blocked = run()
    for name, a, b in zip(("output", "input gradient", "kernel gradient"), whole, blocked):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert max_abs_diff(blocked[0], ref_depthwise(x, kernel)) <= 1e-13


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("s", [1, 2], ids=["plain", "region-view"])
def test_depthwise_input_gradient_is_the_reference_adjoint(s, k):
    """The depthwise term is linear in x, so its input gradient gx at an
    output gradient g satisfies <g, conv(x)> = <gx, x>.  Taking conv from
    the reference route checks gx without _depthwise's own forward.  The
    region view reads x through S x S tiles of tokens, as the
    local-context term reads its values."""
    rng = T.Rng(37 + 2 * k + s)
    c, h, w = 3, 8, 12
    tokens = arr(rng.tensor([s * s, (h // s) * (w // s), c], -1.0, 1.0))
    view = tokens.reshape(s, s, h // s, w // s, c).transpose(4, 0, 2, 1, 3)
    x = view.reshape(c, h, w)
    kernel, g = arr(rng.tensor([c, k, k], -1.0, 1.0)), arr(rng.tensor([c, h, w], -1.0, 1.0))
    gx, _ = _depthwise(view, kernel)[1](g, True, False)
    forward, adjoint = np.vdot(g, ref_depthwise(x, kernel)), np.vdot(gx, x)
    assert abs(forward - adjoint) <= 1e-12 * abs(forward)


@pytest.mark.parametrize("conv, dilation", [
    pytest.param(conv2d, 0, id="0"),
    pytest.param(conv2d, -1, id="-1"),
    pytest.param(conv2d_reference, 0, id="loop-oracle-0"),
    pytest.param(conv2d_reference, -1, id="loop-oracle--1"),
    pytest.param(ref_conv2d, 0, id="reference-0"),
    pytest.param(ref_conv2d, -1, id="reference--1"),
])
def test_conv_refuses_a_dilation_below_one(conv, dilation):
    """At dilation 0 every tap would read the centre pixel, and below it
    the padding is negative; every route refuses it."""
    p = _rand_conv(T.Rng(36), 2, 3, 3, 3, dilation=dilation)
    with pytest.raises(ConfigError, match="dilation >= 1"):
        conv(T.zeros([3, 5, 5]), p)


def test_deformable_agrees_with_reference():
    rng = T.Rng(35)
    x = rng.tensor([3, 6, 6], -1.0, 1.0)
    base = _rand_conv(rng, 2, 3, 3, 3)
    pred = Conv2dParams(weights=rng.tensor([18, 3, 3, 3], -0.3, 0.3),
                        bias=rng.tensor([18], -0.2, 0.2))
    p = DeformableParams(base, pred)
    assert max_abs_diff(deformable_conv2d(x, p), T.tensor(ref_deformable(x, p))) <= 1e-12


@pytest.mark.parametrize("conv", [
    pytest.param(conv2d, id="conv2d"),
    pytest.param(lambda x, p: deformable_conv2d_with_offsets(x, p, T.zeros([18, 5, 5])),
                 id="deformable"),
])
@pytest.mark.parametrize("weights, bias", [
    ([2, 3, 3, 3], [1]), ([2, 3, 3], [2]), ([2, 4, 3, 3], [2]),
], ids=["bias-width", "rank-3-weights", "input-channels"])
def test_both_convolutions_refuse_mismatched_operands(conv, weights, bias):
    p = Conv2dParams(weights=T.zeros(weights), bias=T.zeros(bias))
    with pytest.raises(ShapeError):
        conv(T.zeros([3, 5, 5]), p)


@pytest.mark.parametrize("geometry", [{"dilation": 2}], ids=["dilation"])
def test_deformable_refuses_a_base_off_its_sampling_lattice(geometry):
    base = Conv2dParams(weights=T.zeros([2, 3, 3, 3]), bias=T.zeros([2]), **geometry)
    with pytest.raises(ConfigError, match="sampling lattice"):
        deformable_conv2d_with_offsets(T.zeros([3, 5, 5]), base, T.zeros([18, 5, 5]))


def test_bilinear_out_of_bounds_reads_zero():
    # one tap pushed far outside the map must contribute nothing
    x = T.full([1, 3, 3], 1.0)
    base = Conv2dParams(weights=T.full([1, 1, 1, 1], 1.0), bias=T.zeros([1]))
    offsets = T.full([2, 3, 3], 100.0)
    out = arr(deformable_conv2d_with_offsets(x, base, offsets))
    assert np.all(out == 0.0)


def test_each_convolution_records_one_tape_node():
    rng = T.Rng(39)
    x = rng.tensor([2, 5, 5], -1.0, 1.0)
    base = _rand_conv(rng, 3, 2, 3, 3)
    pred = _rand_conv(rng, 18, 2, 3, 3)
    ops = (
        (lambda v: conv2d(v, _rand_conv(rng, 3, 2, 3, 5, dilation=2)), 1),
        (lambda v: deformable_conv2d_with_offsets(v, base, rng.tensor([18, 5, 5], -1.0, 1.0)), 1),
        (lambda v: deformable_conv2d(v, DeformableParams(base, pred)), 2),
    )
    for op, nodes in ops:
        tape = T.Tape()
        leaf = tape.leaf(x)
        out = op(leaf)
        assert len(tape.nodes) == 1 + nodes
        assert tape.nodes[-1] is out
