"""The slow loop oracles are themselves validated here, against each other
and against closed forms, so the faster references they anchor inherit a
checked foundation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cafbifpn import tensor as T
from cafbifpn.convops import Conv2dParams
from cafbifpn.errors import ConfigError, NumericError, ShapeError
from cafbifpn.attention import make_bra_params
from cafbifpn.oracles import (attention_flops, conv2d_reference,
                              dense_attention_reference, directional_diffs,
                              topk_reference, _softmax_floats)
from cafbifpn.reference import ref_conv2d

from conftest import arr, max_abs_diff


# -- convolution oracle --------------------------------------------------

@pytest.mark.parametrize("cin,cout,hw,kh,kw,stride,pad,dil", [
    (1, 1, 5, 1, 1, 1, 0, 1),
    (2, 3, 6, 3, 3, 1, 1, 1),
    (3, 2, 7, 3, 1, 1, (1, 0), 1),
    (2, 2, 8, 3, 3, 2, 1, 1),
    (2, 2, 9, 3, 3, 1, 2, 2),
    (1, 4, 6, 1, 5, 1, (0, 2), 1),
])
def test_reference_convolutions_agree(cin, cout, hw, kh, kw, stride, pad, dil):
    rng = T.Rng(hash((cin, cout, hw, kh, kw, stride)) & 0xFFFF)
    x = rng.tensor([cin, hw, hw], -1.0, 1.0)
    p = Conv2dParams(weights=rng.tensor([cout, cin, kh, kw], -1.0, 1.0),
                     bias=rng.tensor([cout], -0.5, 0.5),
                     stride=stride, padding=pad, dilation=dil)
    assert max_abs_diff(conv2d_reference(x, p), ref_conv2d(x, p)) <= 1e-12


def test_conv_oracle_identity_kernel():
    x = T.Rng(11).tensor([2, 4, 4], -1.0, 1.0)
    w = np.zeros((2, 2, 1, 1))
    w[0, 0, 0, 0] = 1.0
    w[1, 1, 0, 0] = 1.0
    p = Conv2dParams(weights=T.tensor(w), bias=T.zeros([2]))
    assert np.array_equal(arr(conv2d_reference(x, p)), arr(x))


def test_conv_oracle_rejects_nonfitting_kernel():
    x = T.zeros([1, 2, 2])
    p = Conv2dParams(weights=T.zeros([1, 1, 5, 5]), bias=T.zeros([1]))
    with pytest.raises(ShapeError):
        conv2d_reference(x, p)


def test_conv_oracle_rejects_channel_mismatch():
    p = Conv2dParams(weights=T.zeros([1, 3, 1, 1]), bias=T.zeros([1]))
    with pytest.raises(ShapeError):
        conv2d_reference(T.zeros([2, 4, 4]), p)


# -- top-k oracle --------------------------------------------------------

@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12), st.data())
@settings(max_examples=60, deadline=None)
def test_topk_prefix_of_full_sort(vals, data):
    k = data.draw(st.integers(1, len(vals)))
    row = [float(v) for v in vals]
    sel = topk_reference(row, k)
    full = sorted(range(len(row)), key=lambda i: (-row[i], i))
    assert sel == full[:k]


def test_topk_breaks_ties_by_index():
    assert topk_reference([3.0, 5.0, 5.0, 3.0], 3) == [1, 2, 0]


def test_topk_range_checks():
    with pytest.raises(ConfigError):
        topk_reference([1.0, 2.0], 0)
    with pytest.raises(ConfigError):
        topk_reference([1.0, 2.0], 3)


# -- finite differences --------------------------------------------------

def test_finite_diff_on_quadratic():
    """Along every unit vector the difference is the gradient."""
    a = T.Rng(21).tensor([6], -2.0, 2.0)

    def f(x):
        xv = arr(x)
        return float((xv * xv * arr(a)).sum())

    x0 = T.Rng(22).tensor([6], -2.0, 2.0)
    g = directional_diffs(f, x0, np.eye(6))
    exact = 2.0 * arr(a) * arr(x0)
    assert np.abs(g - exact).max() <= 1e-6


def test_directional_diffs_on_quadratic():
    """Along each direction the difference equals <gradient, v>; a
    direction that moves one coordinate steps by that coordinate alone."""
    a = T.Rng(23).tensor([6], -2.0, 2.0)
    x0 = T.Rng(24).tensor([6], -2.0, 2.0)
    seen = []

    def f(x):
        seen.append(arr(x))
        return float((arr(x) * arr(x) * arr(a)).sum())

    vs = [arr(T.Rng(25).tensor([6], -1.0, 1.0)), np.eye(6)[2]]
    d = directional_diffs(f, x0, vs, 1e-5)
    assert np.abs(d - [2.0 * (arr(a) * arr(x0)) @ v for v in vs]).max() <= 1e-6
    assert seen[2][2] - arr(x0)[2] == pytest.approx(1e-5 * max(1.0, abs(arr(x0)[2])))


def test_finite_diff_rejects_nonfinite_probe():
    def f(x):
        return float("inf")

    with pytest.raises(NumericError):
        directional_diffs(f, T.tensor([1.0]), [np.ones(1)])


# -- dense attention oracle ----------------------------------------------

def test_dense_attention_uniform_when_query_key_zero():
    # zero q/k make every logit 0, so attention averages the v-projections;
    # with identity w_v that is the per-channel token mean everywhere
    c, h, w = 3, 3, 2
    x = T.Rng(31).tensor([c, h, w], -1.0, 1.0)
    p = make_bra_params(T.Rng(32), c, 1, 1, 1, 3)
    p = type(p)(w_q=T.zeros([c, c]), w_k=T.zeros([c, c]),
                w_v=T.tensor(np.eye(c)), lce_kernel=T.zeros([c, 3, 3]),
                regions_s=p.regions_s, topk_k=p.topk_k, heads=p.heads)
    out = arr(dense_attention_reference(x, p))
    means = arr(x).reshape(c, -1).mean(axis=1)
    for i in range(c):
        assert np.abs(out[i] - means[i]).max() <= 1e-12


def test_dense_attention_rejects_bad_heads():
    x = T.zeros([3, 2, 2])
    p = make_bra_params(T.Rng(35), 3, 1, 1, 1, 3)
    bad = type(p)(w_q=p.w_q, w_k=p.w_k, w_v=p.w_v, lce_kernel=p.lce_kernel,
                  regions_s=p.regions_s, topk_k=p.topk_k, heads=2)
    with pytest.raises(ConfigError):
        dense_attention_reference(x, bad)


def test_softmax_oracle_rejects_nonfinite():
    with pytest.raises(NumericError):
        _softmax_floats([0.0, float("inf")])


def test_softmax_oracle_normalizes():
    probs = _softmax_floats([0.0, 1.0, -2.0])
    assert abs(sum(probs) - 1.0) <= 1e-12
    assert all(v > 0 for v in probs)


# -- closed-form cost model ----------------------------------------------

def test_flops_hand_counted_case():
    fc = attention_flops(4, 4, 2, 2, 2, heads=1, lce_kernel=3)
    assert fc.routing == 16 * 2 + 16 * 2
    assert fc.gather == 2 * 4 * 2 * 4 * 2
    assert fc.qk_logits == 16 * 8 * 2
    assert fc.av_aggregation == 16 * 8 * 2
    assert fc.lce == 2 * 16 * 9


def test_flops_dense_mode():
    fc = attention_flops(4, 4, 3, 2, 2, mode="dense")
    assert fc.qk_logits == 16 * 16 * 3
    assert fc.av_aggregation == 16 * 16 * 3
    assert fc.routing == fc.gather == fc.lce == 0


def test_flops_head_count_cancels():
    a = attention_flops(8, 8, 4, 2, 2, heads=1)
    b = attention_flops(8, 8, 4, 2, 2, heads=2)
    assert a == b


def test_flops_config_rejects():
    with pytest.raises(ConfigError):
        attention_flops(6, 6, 2, 4, 1)       # 4 does not tile 6
    with pytest.raises(ConfigError):
        attention_flops(8, 8, 2, 2, 5)       # k > s^2
    with pytest.raises(ConfigError):
        attention_flops(8, 8, 3, 2, 2, heads=2)
    with pytest.raises(ConfigError):
        attention_flops(8, 8, 2, 2, 2, mode="blocked")
