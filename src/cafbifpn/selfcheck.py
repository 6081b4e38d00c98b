"""Named invariant suite at desk scale: one printed line per property,
PASS or FAIL with the reason, exit 0 only when everything holds.

Each check re-derives its expectation independently (loop oracles,
hand-computed values, published reference streams) rather than comparing
the implementation with itself.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tensor as T
from . import tensorio as IO
from .attention import (BraParams, RoutingResult, ba_forward, make_bra_params,
                        merge_lce, region_qkv, token_attention)
from .cfe import cfe_forward, cfe_receptive_probe, join_branches, make_cfe_params
from .convops import (Conv2dParams, DeformableParams, conv2d,
                      deformable_conv2d, deformable_conv2d_with_offsets)
from .errors import FormatError
from .gradcheck import _map_leaves, crosses_relu, first_smooth, max_rel_err, watched
from .instrumentation import count_macs
from .oracles import (conv2d_reference, dense_attention_reference, directional_diffs,
                      topk_reference)
from .pipeline import build_pipeline_params, c_afbifpn_forward, fuse
from .reference import ref_conv2d

TOL_TIGHT = 1e-12
TOL_ORACLE = 1e-10
TOL_GRAD = 1e-5


def _arr(x) -> np.ndarray:
    if isinstance(x, (T.Tensor, T.Node)):
        return T._val(x)
    return np.asarray(x, dtype=np.float64)


def _close(a, b, tol, what: str) -> None:
    a, b = _arr(a), _arr(b)
    if a.shape != b.shape:
        raise AssertionError(f"{what}: dims {list(a.shape)} vs {list(b.shape)}")
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    if not diff <= tol:
        raise AssertionError(f"{what}: max abs diff {diff:.3e} > {tol:.1e}")


def _tiles(x: np.ndarray, s: int) -> np.ndarray:
    c, h, w = x.shape
    th, tw = h // s, w // s
    return x.reshape(c, s, th, s, tw).transpose(1, 3, 2, 4, 0).reshape(s * s, th * tw, c)


def _untiles(t: np.ndarray, c: int, h: int, w: int, s: int) -> np.ndarray:
    th, tw = h // s, w // s
    return t.reshape(s, s, th, tw, c).transpose(4, 0, 2, 1, 3).reshape(c, h, w)


def _no_lce(p: BraParams) -> BraParams:
    """p with its drawn local-context kernel replaced by zeros."""
    return replace(p, lce_kernel=T.zeros(list(p.lce_kernel.dims)))


# -- tensor core ---------------------------------------------------------

def _swapped(items: list, i: int, v) -> list:
    """A copy of items with the i-th replaced by v."""
    return items[:i] + [v] + items[i + 1:]


def _weighted_sum(out):
    """A scalar whose gradient differs at every output element."""
    return T.sum_all(T.mul(out, T.Rng(99).tensor(list(T._val(out).shape), -1.0, 1.0)))


def check_op_gradients():
    def graph(xt):
        # x reaches the sum four ways, so backward sums its fan-out
        d = T.mul(xt, T.add(T.mul(xt, xt), T.full([2, 3], 2.0)))
        return T.add(T.sum_all(T.mul(d, d)), T.mul(T.sum_all(xt), T.tensor([0.3])))

    # the convolution, attention and fusion primitives, each operand on its own
    rng = T.Rng(26)
    x = rng.tensor([2, 7, 6], -1.0, 1.0)
    convs = [Conv2dParams(weights=rng.tensor([3, 2, 3, 2], -0.5, 0.5),
                          bias=rng.tensor([3], -0.2, 0.2), stride=s, padding=pad, dilation=d)
             for s, d, pad in ((2, 2, (1, 2)), (1, 2, (2, 0)))]
    kernel = rng.tensor([2, 3, 3], -0.5, 0.5)
    xd = rng.tensor([2, 4, 4], -1.0, 1.0)
    base = Conv2dParams(weights=rng.tensor([2, 2, 3, 3], -0.5, 0.5),
                        bias=rng.tensor([2], -0.2, 0.2), padding=1)
    # fractions held in [0.15, 0.55], off the lattice; whole-pixel shifts
    # of up to 2 put some samples partly or wholly outside the map
    shift = np.floor(_arr(rng.tensor([18, 4, 4], -2.0, 3.0)))
    offsets = T.tensor(_arr(rng.tensor([18, 4, 4], -0.2, 0.2)) + 0.35 + shift)
    # token attention over 4 regions of 2 tokens of width 4, 2 routed
    # regions each, 2 heads; region 3 is routed to three times, so its key
    # and value gradients sum over copies
    qkv_attend = rng.tensor([4, 2, 12], -1.0, 1.0)
    routing = RoutingResult(None, np.array([[1, 3], [3, 0], [2, 3], [0, 1]]))

    # a three-input fusion node; the negative weight is clamped to zero,
    # so its gradient goes through the clamp mask
    fused = [rng.tensor([2, 3, 2], -1.0, 1.0) for _ in range(3)]
    raw = [T.tensor([u]) for u in (0.9, 0.4, -0.3)]
    # fusion nodes that read their second input at half and at twice the
    # first's extent
    fine, coarse = rng.tensor([2, 4, 6], -1.0, 1.0), rng.tensor([2, 2, 3], -1.0, 1.0)
    # the attention pass's other two nodes on a 4x6 map of width 2 cut
    # into 2x2 regions of 2x3 tokens, merge_lce with the kernel above
    rng = T.Rng(28)
    bra = make_bra_params(rng, 2, 2, 2)
    xa, attended, qkv = (rng.tensor(dims, -1.0, 1.0) for dims in ([2, 4, 6], [4, 6, 2], [4, 6, 6]))

    cases = [("composite-op", graph, T.Rng(40).tensor([2, 3], -1.0, 1.0))] + [
        case for c in convs for case in (
            (f"conv2d stride {c.stride} input", lambda v, c=c: conv2d(v, c), x),
            (f"conv2d stride {c.stride} weights",
             lambda v, c=c: conv2d(x, replace(c, weights=v)), c.weights),
            (f"conv2d stride {c.stride} bias",
             lambda v, c=c: conv2d(x, replace(c, bias=v)), c.bias),
        )] + [
        ("deformable input", lambda v: deformable_conv2d_with_offsets(v, base, offsets), xd),
        ("deformable offsets", lambda v: deformable_conv2d_with_offsets(xd, base, v), offsets),
        ("deformable weights",
         lambda v: deformable_conv2d_with_offsets(xd, replace(base, weights=v), offsets),
         base.weights),
        ("deformable bias",
         lambda v: deformable_conv2d_with_offsets(xd, replace(base, bias=v), offsets), base.bias),
        ("region_qkv input", lambda v: region_qkv(v, bra), xa),
    ] + [(f"region_qkv {name}", lambda v, name=name: region_qkv(xa, replace(bra, **{name: v})),
          getattr(bra, name)) for name in ("w_q", "w_k", "w_v")] + [
        ("merge_lce attended", lambda v: merge_lce(v, qkv, kernel, 4, 6), attended),
        ("merge_lce qkv", lambda v: merge_lce(attended, v, kernel, 4, 6), qkv),
        ("merge_lce kernel", lambda v: merge_lce(attended, qkv, v, 4, 6), kernel),
        ("token_attention qkv", lambda v: token_attention(v, routing, 2), qkv_attend),
    ] + [(f"fuse input {i}", lambda v, i=i: fuse(_swapped(fused, i, v), raw, 1e-4), t)
         for i, t in enumerate(fused)] + [
        (f"fuse weight {i}", lambda v, i=i: fuse(fused, _swapped(raw, i, v), 1e-4), u)
        for i, u in enumerate(raw)] + [
        ("fuse upsampled input", lambda v: fuse([fine, v], raw[:2], 1e-4), coarse),
        ("fuse downsampled input", lambda v: fuse([coarse, v], raw[:2], 1e-4), fine),
    ] + _fused_cases()
    for what, op, x0 in cases:
        err = max_rel_err([("x", x0)], lambda v: _weighted_sum(op(v["x"])))[0]
        if not err <= TOL_GRAD:
            raise AssertionError(f"{what} gradient rel err {err:.3e}")


def _fused_cases() -> list:
    """(name, op, operand) for the relu-activated convolutions and the
    enhancement block's branch join.  The activated cases come from the
    first seed whose pre-activations keep the relu margin (and, for
    deformable sampling, the lattice margin); each must cross the relu,
    with some outputs clamped and some not."""
    def draw(seed):
        rng = T.Rng(seed)
        x = rng.tensor([2, 5, 4], -1.0, 1.0)
        conv = Conv2dParams(weights=rng.tensor([3, 2, 3, 3], -0.5, 0.5),
                            bias=rng.tensor([3], -0.2, 0.2), padding=1)
        base = Conv2dParams(weights=rng.tensor([2, 2, 3, 3], -0.5, 0.5),
                            bias=rng.tensor([2], -0.2, 0.2), padding=1)
        # off the lattice, with whole-pixel shifts that put some samples
        # partly or wholly outside the map
        offsets = T.tensor(_arr(rng.tensor([18, 5, 4], -0.2, 0.2)) + 0.35
                           + np.floor(_arr(rng.tensor([18, 5, 4], -2.0, 3.0))))

        def run():
            outs = [conv2d(x, conv, "relu"),
                    deformable_conv2d_with_offsets(x, base, offsets, "relu")]
            return x, conv, base, offsets, outs

        return watched(run, lattice=True)

    (x, conv, base, offsets, outs), _ = first_smooth(draw, range(80, 90))
    if not all(crosses_relu(o) for o in outs):
        raise AssertionError("an activated case does not cross the relu")
    rng = T.Rng(27)
    # three branches of widths 1, 2, 3 and the residual
    joined = [rng.tensor([c, 3, 4], -1.0, 1.0) for c in (1, 2, 3, 6)]

    def join_with(i):
        def op(v):
            args = _swapped(joined, i, v)
            return join_branches(args[:3], args[3])
        return op

    return [
        ("relu conv2d input", lambda v: conv2d(v, conv, "relu"), x),
        ("relu conv2d weights", lambda v: conv2d(x, replace(conv, weights=v), "relu"),
         conv.weights),
        ("relu conv2d bias", lambda v: conv2d(x, replace(conv, bias=v), "relu"), conv.bias),
        ("relu deformable input",
         lambda v: deformable_conv2d_with_offsets(v, base, offsets, "relu"), x),
        ("relu deformable offsets",
         lambda v: deformable_conv2d_with_offsets(x, base, v, "relu"), offsets),
        ("relu deformable weights",
         lambda v: deformable_conv2d_with_offsets(x, replace(base, weights=v), offsets, "relu"),
         base.weights),
        ("relu deformable bias",
         lambda v: deformable_conv2d_with_offsets(x, replace(base, bias=v), offsets, "relu"),
         base.bias),
    ] + [(f"join operand {i}", join_with(i), t) for i, t in enumerate(joined)]


def check_softmax_rows():
    rows = [T.Rng(6).tensor([4, 7], -5.0, 5.0),
            T.tensor([[1e3, -1e3, 0.0], [2.0, 2.0, 2.0]])]
    for r in rows:
        s = T.softmax_inplace(_arr(r).copy())
        if np.min(s) < 0.0:
            raise AssertionError("negative probability")
        _close(s.sum(axis=-1), np.ones(s.shape[:-1]), TOL_TIGHT, "row sums")


def check_region_layout_roundtrip():
    """On a 4x10 map cut into 2x2 regions of 2x5 tokens (every pipeline
    map is square, where a swap of the region's extents cannot show): with
    identity projections each column block of region_qkv is the map's
    tiles, and merge_lce of those tiles with a zero kernel is the map,
    bit for bit."""
    c, s = 3, 2
    x = T.Rng(7).tensor([c, 4, 10], -1.0, 1.0)
    eye = T.tensor(np.eye(c))
    qkv = _arr(region_qkv(x, BraParams(eye, eye, eye, None, s, 1)))
    tiles = _tiles(_arr(x), s)
    for i, block in enumerate(("query", "key", "value")):
        if not np.array_equal(qkv[:, :, i * c:(i + 1) * c], tiles):
            raise AssertionError(f"{block} columns are not the map's tiles")
    back = merge_lce(T.tensor(tiles), T.tensor(qkv), T.zeros([c, 3, 3]), 4, 10)
    if not np.array_equal(_arr(back), _arr(x)):
        raise AssertionError("merging the tiles does not give the map back bit for bit")


def check_rng_reference_stream():
    # published SplitMix64 outputs for seed 0
    expect = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    state = 0
    for want in expect:
        state, z = T.rng_next_raw(state)
        if z != want:
            raise AssertionError(f"raw stream {z:#x} != {want:#x}")


def check_rng_uniform_bounds():
    rng = T.Rng(11)
    vals = [rng.next_float() for _ in range(1000)]
    if not (min(vals) >= 0.0 and max(vals) < 1.0):
        raise AssertionError("unit draw outside [0, 1)")
    sym = _arr(T.Rng(12).tensor([64], -1.0, 1.0))
    if not (sym.min() > -1.0 and sym.max() < 1.0):
        raise AssertionError("symmetric draw outside (-1, 1)")


# -- convolution ---------------------------------------------------------

def check_conv_vs_loop_oracle():
    """Seven kernel, dilation and stride cases at one shape, then 100
    draws over nine kernel shapes, dilation 1 or 2, stride 1 or 2, widths
    1..4 and extents 5..16."""
    def params(rng, cout, cin, kh, kw, stride, pad, dil):
        return Conv2dParams(weights=rng.tensor([cout, cin, kh, kw], -1.0, 1.0),
                            bias=rng.tensor([cout], -0.5, 0.5), stride=stride, padding=pad,
                            dilation=dil)

    cases, rng = [], T.Rng(21)
    for kh, kw, dil, pad, stride in ((1, 1, 1, 0, 1), (3, 3, 1, 1, 1), (1, 5, 1, (0, 2), 1),
                                     (5, 1, 1, (2, 0), 1), (3, 1, 1, (1, 0), 1),
                                     (3, 3, 2, (2, 2), 1), (3, 3, 1, 1, 2)):
        x = rng.tensor([3, 7, 9], -1.0, 1.0)
        cases.append((x, params(rng, 4, 3, kh, kw, stride, pad, dil)))
    kernels = [(1, 1), (3, 3), (5, 5), (1, 3), (3, 1), (5, 3), (3, 5), (1, 5), (5, 1)]
    for i in range(100):
        kh, kw = kernels[i % len(kernels)]
        dil, cin = 2 if i % 3 == 0 else 1, 1 + i % 4
        draw = T.Rng(33000 + i)
        p = params(draw, 1 + (i // 2) % 4, cin, kh, kw, 2 if i % 4 == 0 else 1,
                   (dil * (kh - 1) // 2, dil * (kw - 1) // 2), dil)
        cases.append((draw.tensor([cin, 5 + i % 12, 5 + (i * 7) % 12], -1.0, 1.0), p))
    for x, p in cases:
        kh, kw = _arr(p.weights).shape[2:]
        _close(conv2d(x, p), conv2d_reference(x, p), TOL_TIGHT,
               f"kernel {kh}x{kw} dilation {p.dilation} stride {p.stride} input {list(x.dims)}")


def check_conv_receptive_field():
    rng = T.Rng(22)
    for k, d in ((3, 1), (3, 2), (5, 1)):
        pad = d * (k - 1) // 2
        p = Conv2dParams(weights=T.full([1, 1, k, k], 1.0), bias=T.zeros([1]),
                         padding=pad, dilation=d)
        buf = np.zeros((1, 13, 13))
        buf[0, 6, 6] = 1.0
        out = _arr(conv2d(T.tensor(buf), p))[0]
        ys, xs = np.nonzero(np.abs(out) > 1e-12)
        radius = int(max(np.abs(ys - 6).max(), np.abs(xs - 6).max()))
        if radius != d * (k - 1) // 2:
            raise AssertionError(f"kernel {k} dilation {d}: radius {radius}")


def check_deformable_zero_offsets():
    """One case of width 3 at 7x7, then 20 draws over widths 1..3 and
    extents 4..8."""
    def base(rng, cout, cin):
        return Conv2dParams(weights=rng.tensor([cout, cin, 3, 3], -1.0, 1.0),
                            bias=rng.tensor([cout], -0.5, 0.5), padding=1)

    rng = T.Rng(23)
    x = rng.tensor([3, 7, 7], -1.0, 1.0)
    cases = [(x, base(rng, 2, 3))]
    for i in range(20):
        rng, cin, hw = T.Rng(32000 + i), 1 + i % 3, 4 + i % 5
        b = base(rng, 1 + (i // 3) % 3, cin)
        cases.append((rng.tensor([cin, hw, hw], -1.0, 1.0), b))
    for x, b in cases:
        cin = x.dims[0]
        pred = Conv2dParams(weights=T.zeros([18, cin, 3, 3]), bias=T.zeros([18]), padding=1)
        _close(deformable_conv2d(x, DeformableParams(b, pred)), conv2d(x, b),
               TOL_TIGHT, f"zero-offset collapse, input {list(x.dims)}")


# -- routed attention ----------------------------------------------------

def check_sparse_equals_dense():
    """Four grid and head cases at width 6 on 8x8, then 20 draws over grids
    1, 2, 4, heads 1, 2, widths 2..5 per head and 2..4 tokens per region
    side."""
    cases, rng = [], T.Rng(31)
    for s, heads in ((2, 1), (2, 2), (1, 1), (4, 1)):
        x = rng.tensor([6, 8, 8], -1.0, 1.0)
        cases.append((x, _no_lce(make_bra_params(T.Rng(310 + s + heads), 6, s, s * s, heads))))
    for i in range(20):
        s, heads = (1, 2, 4)[i % 3], (1, 2)[i % 2]
        c, hw = heads * (2 + i % 4), s * (2 + i % 3)
        draw = T.Rng(31000 + i)
        p = _no_lce(make_bra_params(draw, c, s, s * s, heads, 3))
        cases.append((draw.tensor([c, hw, hw], -1.0, 1.0), p))
    for x, p in cases:
        _close(ba_forward(x, p), dense_attention_reference(x, p), TOL_ORACLE,
               f"grid {p.regions_s} heads {p.heads} input {list(x.dims)}")


def check_attention_rows_stochastic():
    rng = T.Rng(32)
    x = rng.tensor([4, 8, 8], -1.0, 1.0)
    p = make_bra_params(T.Rng(320), 4, 2, 2, heads=2)
    seen = []
    real = T.softmax_inplace

    def recording(rows):
        out = real(rows)
        seen.append(out.copy())
        return out

    T.softmax_inplace = recording
    try:
        ba_forward(x, p)
    finally:
        T.softmax_inplace = real
    if not seen:
        raise AssertionError("no attention rows observed")
    for mat in seen:
        if mat.min() < 0.0:
            raise AssertionError("negative attention weight")
        _close(mat.sum(axis=-1), np.ones(mat.shape[:-1]), TOL_TIGHT, "attention row sums")


def check_convex_combination():
    rng = T.Rng(33)
    c, s, k, heads = 4, 2, 2, 2
    x = rng.tensor([c, 8, 8], -1.0, 1.0)
    p = _no_lce(make_bra_params(T.Rng(330), c, s, k, heads=heads))
    kinks = {}
    out = _arr(ba_forward(x, p, kinks))
    tok = _tiles(_arr(x), s)
    v = tok @ _arr(p.w_v)
    idx = kinks["routing"].indices
    out_tok = _tiles(out, s)
    d = c // heads
    for r in range(s * s):
        gathered = v[idx[r]].reshape(-1, c)
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            lo = gathered[:, cols].min(axis=0) - TOL_TIGHT
            hi = gathered[:, cols].max(axis=0) + TOL_TIGHT
            got = out_tok[r][:, cols]
            if not (np.all(got >= lo) and np.all(got <= hi)):
                raise AssertionError(f"region {r} head {h} escapes the value hull")


def check_routing_matches_full_sort():
    # a constant map forces full ties, which is where a broken tie-break shows
    cases = [(T.Rng(34).tensor([5, 8, 8], -1.0, 1.0), 341),
             (T.full([5, 8, 8], 0.37), 342)]
    for x, pseed in cases:
        p = make_bra_params(T.Rng(pseed), 5, 2, 2)
        kinks = {}
        ba_forward(x, p, kinks)
        routing = kinks["routing"]
        aff = _arr(routing.affinity)
        for r in range(aff.shape[0]):
            want = topk_reference([float(v) for v in aff[r]], p.topk_k)
            got = [int(i) for i in routing.indices[r]]
            if got != list(want):
                raise AssertionError(f"row {r}: selection {got} != full sort {list(want)}")


def check_routing_permutation_equivariance():
    rng = T.Rng(35)
    c, s, k = 4, 2, 2
    x = _arr(rng.tensor([c, 8, 8], -1.0, 1.0))
    p = _no_lce(make_bra_params(T.Rng(350), c, s, k))
    sigma = np.array([2, 0, 3, 1])
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(sigma.size)

    xp = _untiles(_tiles(x, s)[sigma], c, 8, 8, s)
    k0, k1 = {}, {}
    o0 = _tiles(_arr(ba_forward(T.tensor(x), p, k0)), s)
    o1 = _tiles(_arr(ba_forward(T.tensor(xp), p, k1)), s)
    r0, r1 = k0["routing"], k1["routing"]
    a0, a1 = _arr(r0.affinity), _arr(r1.affinity)
    _close(a1, a0[np.ix_(sigma, sigma)], TOL_TIGHT, "affinity relabeling")
    if not np.array_equal(np.asarray(r1.indices), inv[np.asarray(r0.indices)[sigma]]):
        raise AssertionError("routed indices do not relabel with the regions")
    _close(o1, o0[sigma], TOL_TIGHT, "output tiles")


# -- enhancement block ---------------------------------------------------

def check_enh_spatial_dims():
    rng = T.Rng(41)
    for h, w in ((6, 6), (5, 9)):
        x = rng.tensor([4, h, w], -1.0, 1.0)
        out = cfe_forward(x, make_cfe_params(T.Rng(410), 4, 6))
        if _arr(out).shape != (6, h, w):
            raise AssertionError(f"dims {_arr(out).shape} for input {h}x{w}")


def _zero_stage(stage):
    if isinstance(stage, DeformableParams):
        return DeformableParams(_zero_stage(stage.base), _zero_stage(stage.offset_predictor))
    return replace(stage, weights=T.zeros(list(_arr(stage.weights).shape)),
                   bias=T.zeros([_arr(stage.bias).shape[0]]))


def check_enh_zero_branch():
    rng = T.Rng(42)
    x = rng.tensor([4, 6, 6], -1.0, 1.0)
    p = make_cfe_params(T.Rng(420), 4, 6)
    q = replace(p, branch1=tuple(_zero_stage(s) for s in p.branch1),
                branch2=tuple(_zero_stage(s) for s in p.branch2),
                branch3=tuple(_zero_stage(s) for s in p.branch3))
    if not np.array_equal(_arr(cfe_forward(x, q)), _arr(conv2d(x, p.residual))):
        raise AssertionError("zero branches do not collapse to the residual")


def check_enh_deformable_degeneracy():
    rng = T.Rng(43)
    x = rng.tensor([4, 6, 6], -1.0, 1.0)
    p = make_cfe_params(T.Rng(430), 4, 6)
    base, predictor = p.branch3[3].base, _zero_stage(p.branch3[3].offset_predictor)
    p = replace(p, branch3=p.branch3[:3] + (DeformableParams(base, predictor),))
    q = replace(p, branch3=p.branch3[:3] + (base,))
    _close(cfe_forward(x, p), cfe_forward(x, q), TOL_TIGHT, "zero-predictor collapse")


def check_enh_channel_accounting():
    p = make_cfe_params(T.Rng(450), 5, 9)
    widths = [_arr(b[-1].base.weights).shape[0] if isinstance(b[-1], DeformableParams)
              else _arr(b[-1].weights).shape[0]
              for b in (p.branch1, p.branch2, p.branch3)]
    if widths != [3, 3, 3] or _arr(p.residual.weights).shape[0] != 9:
        raise AssertionError(f"branch widths {widths} vs residual "
                             f"{_arr(p.residual.weights).shape[0]}")
    out = cfe_forward(T.Rng(45).tensor([5, 6, 6], -1.0, 1.0), p)
    if _arr(out).shape[0] != 9:
        raise AssertionError("forward width disagrees with configuration")


def check_enh_receptive_radii():
    p = make_cfe_params(T.Rng(460), 3, 6)
    zero1 = {"branch1": tuple(_zero_stage(s) for s in p.branch1)}
    zero2 = {"branch2": tuple(_zero_stage(s) for s in p.branch2)}
    zero3 = {"branch3": tuple(_zero_stage(s) for s in p.branch3)}
    full = cfe_receptive_probe(p)
    only1 = cfe_receptive_probe(replace(p, **zero2, **zero3))
    only2 = cfe_receptive_probe(replace(p, **zero1, **zero3))
    # with every branch zeroed only the 1x1 residual is left
    none = cfe_receptive_probe(replace(p, **zero1, **zero2, **zero3))
    if (full, only1, only2, none) != (4, 3, 4, 0):
        raise AssertionError(f"radii (full, b1, b2, none) = {(full, only1, only2, none)}, "
                             f"want (4, 3, 4, 0)")


# -- fusion pyramid ------------------------------------------------------

def _tiny_backbone(seed: int, h2: int = 16):
    channels = {2: 3, 3: 3, 4: 4, 5: 4}
    rng = T.Rng(seed)
    return channels, {lvl: rng.tensor([channels[lvl], h2 >> (lvl - 2), h2 >> (lvl - 2)], -1.0, 1.0)
                      for lvl in (2, 3, 4, 5)}


def _tiny_cfg(**overrides):
    base = dict(fusion_width=6, seed=90, lce_kernel=3)
    base.update(overrides)
    return replace(IO.RunConfig(), **base)


def check_fuse_bounded():
    """Five draws of three inputs and weights in [0.1, 2], then three sets of
    inputs under every weight triple from {0, 0.25, 1, 2}."""
    rng = T.Rng(51)
    cases = []
    for _ in range(5):
        inputs = [rng.tensor([2, 3], -2.0, 2.0) for _ in range(3)]
        cases.append((inputs, rng.tensor([3], 0.1, 2.0).array.tolist()))
    for seed in (90, 91, 92):
        inputs = [T.Rng(seed * 7 + j).tensor([2, 2], -2.0, 2.0) for j in range(3)]
        cases += [(inputs, list(ws)) for ws in itertools.product((0.0, 0.25, 1.0, 2.0), repeat=3)]
    for inputs, weights in cases:
        out = _arr(fuse(inputs, weights, 1e-4))
        bound = max(float(np.abs(_arr(x)).max()) for x in inputs)
        if not float(np.abs(out).max()) <= bound + 1e-15:
            raise AssertionError(f"weights {weights}: |out| {float(np.abs(out).max()):.6f} "
                                 f"exceeds {bound:.6f}")


def check_fuse_clamps_negative_weights():
    """A negative weight counts as zero: bit for bit the output of the
    clamped weights, on one hand-picked triple and, for two sets of inputs,
    every triple from {-1, -0.25, 0.5, 1.5} that keeps a positive weight."""
    rng = T.Rng(82)
    cases = [([rng.tensor([2, 2], -1.0, 1.0) for _ in range(3)], (0.8, -0.5, 0.3))]
    for seed in (93, 94):
        inputs = [T.Rng(seed * 7 + j).tensor([2, 2], -1.0, 1.0) for j in range(3)]
        cases += [(inputs, ws) for ws in itertools.product((-1.0, -0.25, 0.5, 1.5), repeat=3)
                  if max(ws) > 0.0]
    for inputs, ws in cases:
        clamped = [max(w, 0.0) for w in ws]
        got, want = fuse(inputs, list(ws), 1e-4), fuse(inputs, clamped, 1e-4)
        if not np.array_equal(_arr(got), _arr(want)):
            raise AssertionError(f"weights {list(ws)} differ from their clamp {clamped}")


def check_fuse_epsilon_limit():
    """As epsilon falls through 1e-1, 1e-2, 1e-4 to 0 the output approaches
    the weighted mean strictly, within 1e-4 at 1e-4 and to 1e-12 at 0."""
    rng, rng95 = T.Rng(52), T.Rng(95)
    cases = [([rng.tensor([3, 3], -1.0, 1.0) for _ in range(2)], (1.3, 0.7)),
             ([rng95.tensor([3, 3], -1.0, 1.0) for _ in range(2)], (1.2, 0.6))]
    for inputs, weights in cases:
        mean = sum(w * _arr(x) for w, x in zip(weights, inputs)) / sum(weights)
        errs = [float(np.abs(_arr(fuse(inputs, list(weights), eps)) - mean).max())
                for eps in (1e-1, 1e-2, 1e-4, 0.0)]
        if not (errs[0] > errs[1] > errs[2] > errs[3]):
            raise AssertionError(f"weights {weights}: approach not monotone: {errs}")
        if errs[2] > 1e-4 or errs[3] > TOL_TIGHT:
            raise AssertionError(f"weights {weights}: residual gaps {errs[2]:.3e} at 1e-4, "
                                 f"{errs[3]:.3e} at 0")


def check_two_attention_invocations():
    """A tiny pyramid and the seed-0 fixture at the default config: two
    attention passes per forward, and output dims at the fusion width that
    halve per level from the level-2 input's."""
    _, tiny = _tiny_backbone(53)
    with tempfile.TemporaryDirectory() as d:
        IO.gen_fixture(0, d)
        fixture = IO.load_backbone(d)
    for backbone, cfg in ((tiny, _tiny_cfg()), (fixture, IO.RunConfig())):
        channels = {lvl: t.dims[0] for lvl, t in backbone.items()}
        with count_macs() as mc:
            out = c_afbifpn_forward(backbone, build_pipeline_params(cfg, channels))
        if mc.ba_invocations != 2:
            raise AssertionError(f"{mc.ba_invocations} attention invocations, want 2")
        h2 = backbone[2].dims[1]
        for lvl in (2, 3, 4, 5):
            want = (cfg.fusion_width, h2 >> (lvl - 2), h2 >> (lvl - 2))
            if _arr(out[lvl]).shape != want:
                raise AssertionError(f"level {lvl} dims {_arr(out[lvl]).shape}, want {want}")


def check_ablation_grid():
    channels, backbone = _tiny_backbone(54)
    dims = None
    for cfe_on in (True, False):
        for att_on in (True, False):
            cfg = _tiny_cfg(cfe_enabled=cfe_on, attention_fusion_enabled=att_on)
            out = c_afbifpn_forward(backbone, build_pipeline_params(cfg, channels))
            got = {lvl: _arr(t).shape for lvl, t in out.items()}
            if dims is None:
                dims = got
            elif got != dims:
                raise AssertionError(f"dims drift at cfe={cfe_on} attention={att_on}")


def check_fusion_weight_gradients():
    rng = T.Rng(55)
    eps = 1e-4
    x1, x2 = rng.tensor([2, 2], -1.0, 1.0), rng.tensor([2, 2], -1.0, 1.0)
    w1, w2 = 0.9, 0.4

    tape = T.Tape()
    leaf = tape.leaf(T.tensor([w1]))
    loss = T.sum_all(fuse([x1, x2], [leaf, w2], eps))
    analytic = float(_arr(tape.backward(loss, T.tensor([1.0]))[leaf]).reshape(-1)[0])

    # quotient rule on sum((w1 x1 + w2 x2) / (w1 + w2 + eps))
    a1, a2 = _arr(x1), _arr(x2)
    denom = w1 + w2 + eps
    hand = float(((a1 * denom - (w1 * a1 + w2 * a2)) / denom**2).sum())
    fd = directional_diffs(
        lambda v: float(_arr(T.sum_all(fuse([x1, x2], [v, w2], eps))).reshape(-1)[0]),
        T.tensor([w1]), [np.ones(1)])[0]
    if not (abs(analytic - hand) <= 1e-10 and abs(analytic - fd) / max(abs(fd), 1e-3) <= TOL_GRAD):
        raise AssertionError(f"analytic {analytic}, hand {hand}, fd {fd}")


def check_fusion_homogeneity():
    channels, backbone = _tiny_backbone(56)
    cfg = _tiny_cfg(cfe_enabled=False, attention_fusion_enabled=False, epsilon=0.0)
    params = build_pipeline_params(cfg, channels)
    out1 = c_afbifpn_forward(backbone, params)
    scaled = _map_leaves(params.fusion, lambda _, w: 4.0 * w)
    out2 = c_afbifpn_forward(backbone, replace(params, fusion=scaled))
    for lvl in (2, 3, 4, 5):
        if not np.array_equal(_arr(out1[lvl]), _arr(out2[lvl])):
            raise AssertionError(f"level {lvl} changed under uniform weight scaling")


def check_resize_roundtrip():
    """fuse pixel-replicates a half-extent input and averages it back
    from twice the extent, exactly, when it is weighted alone."""
    x = T.Rng(57).tensor([3, 6, 6], -1.0, 1.0)
    up = fuse([T.zeros([3, 12, 12]), x], [0.0, 1.0], 0.0)
    back = fuse([T.zeros([3, 6, 6]), up], [0.0, 1.0], 0.0)
    if not np.array_equal(_arr(back), _arr(x)):
        raise AssertionError("averaging the replicated x does not give x")


# -- oracles and serialization ------------------------------------------

def check_oracle_determinism():
    rng = T.Rng(61)
    x = rng.tensor([2, 6, 6], -1.0, 1.0)
    p = Conv2dParams(weights=rng.tensor([2, 2, 3, 3], -1.0, 1.0),
                     bias=rng.tensor([2], -0.5, 0.5), padding=1)
    if not np.array_equal(_arr(conv2d_reference(x, p)), _arr(conv2d_reference(x, p))):
        raise AssertionError("loop convolution oracle not deterministic")
    y = rng.tensor([4, 4, 4], -1.0, 1.0)
    for heads in (1, 2):
        bp = _no_lce(make_bra_params(T.Rng(610), 4, 2, 4, heads=heads))
        if not np.array_equal(_arr(dense_attention_reference(y, bp)),
                              _arr(dense_attention_reference(y, bp))):
            raise AssertionError(f"dense attention oracle not deterministic at {heads} heads")
    row = [float(v) for v in _arr(rng.tensor([9], -1.0, 1.0))]
    if topk_reference(row, 4) != topk_reference(row, 4):
        raise AssertionError("selection oracle not deterministic")


def check_reference_vs_loop_oracle():
    rng = T.Rng(62)
    x = rng.tensor([3, 6, 6], -1.0, 1.0)
    p = Conv2dParams(weights=rng.tensor([4, 3, 3, 3], -1.0, 1.0),
                     bias=rng.tensor([4], -0.5, 0.5), padding=(2, 2), dilation=2)
    _close(T.tensor(ref_conv2d(x, p)), conv2d_reference(x, p), 1e-13,
           "vectorized vs loop convolution")


def check_tensor_roundtrip():
    """Ten float64 files of rank 1..3 and extents 1..4, then 1,000 of rank
    1..4 and extents 1..5, every other one float32: dims, dtype and values
    come back exactly, and rewriting what was read gives the same bytes."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tnsr")
        for seed, count, rank, extent, bound, mixed in ((71, 10, 3, 4, 10.0, False),
                                                        (100, 1000, 4, 5, 4.0, True)):
            rng = T.Rng(seed)
            for i in range(count):
                n = int(rng.tensor([1], 0.0, rank).array[0]) + 1
                dims = (rng.tensor([n], 0.0, extent).array.astype(int) + 1).tolist()
                t = rng.tensor(dims, -bound, bound)
                if mixed and i % 2:
                    t = t.astype("float32")
                IO.tensor_write(path, t)
                first = Path(path).read_bytes()
                back = IO.tensor_read(path)
                if not (back.dims == t.dims and back.dtype == t.dtype
                        and np.array_equal(back.array, t.array)):
                    raise AssertionError(f"seed {seed} round-trip {i} not identical")
                IO.tensor_write(path, back)
                if Path(path).read_bytes() != first:
                    raise AssertionError(f"seed {seed} round-trip {i} not byte-stable")


def check_malformed_rejected():
    """Eight malformed files cut from two good ones: bad magic, an unknown
    dtype code, and a header, extents or payload cut short."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tnsr")
        bad = {}
        for name, t, cut in (("pair", T.tensor([1.0, 2.0]), 4),
                             ("2x3", T.Rng(101).tensor([2, 3], -1.0, 1.0), 10)):
            IO.tensor_write(path, t)
            good = Path(path).read_bytes()
            bad.update({f"{name} bad-magic": b"NOPE" + good[4:],
                        f"{name} bad-dtype": good[:5] + b"\x09" + good[6:],
                        f"{name} payload-truncated": good[:-cut]})
        # cut from the rank-2 file, the last one written
        bad.update({"2x3 header-truncated": good[:6], "2x3 extents-truncated": good[:14]})
        for tag, raw in bad.items():
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                IO.tensor_read(path)
            except FormatError:
                continue
            raise AssertionError(f"{tag} file was accepted")


def check_fixture_determinism():
    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
        IO.gen_fixture(3, d1)
        IO.gen_fixture(3, d2)
        for name in sorted(os.listdir(d1)):
            a, b = (Path(d, name).read_bytes() for d in (d1, d2))
            if a != b:
                raise AssertionError(f"{name} differs between runs")
        IO.gen_fixture(4, d2)
        c2 = [Path(d, "backbone_c2.tnsr").read_bytes() for d in (d1, d2)]
        if c2[0] == c2[1]:
            raise AssertionError("seeds 3 and 4 give the same backbone_c2.tnsr")


CHECKS = [
    ("op-gradients-match-finite-differences", check_op_gradients),
    ("softmax-rows-sum-to-one", check_softmax_rows),
    ("region-layout-round-trip", check_region_layout_roundtrip),
    ("rng-reference-stream", check_rng_reference_stream),
    ("rng-uniform-bounds", check_rng_uniform_bounds),
    ("conv-matches-loop-oracle", check_conv_vs_loop_oracle),
    ("conv-dilated-receptive-field", check_conv_receptive_field),
    ("deformable-zero-offset-degeneracy", check_deformable_zero_offsets),
    ("sparse-equals-dense-at-full-routing", check_sparse_equals_dense),
    ("attention-rows-stochastic", check_attention_rows_stochastic),
    ("attention-output-convex-combination", check_convex_combination),
    ("routing-matches-full-sort", check_routing_matches_full_sort),
    ("routing-permutation-equivariance", check_routing_permutation_equivariance),
    ("enhancement-preserves-spatial-dims", check_enh_spatial_dims),
    ("enhancement-zero-branch-degeneracy", check_enh_zero_branch),
    ("enhancement-deformable-degeneracy", check_enh_deformable_degeneracy),
    ("enhancement-channel-accounting", check_enh_channel_accounting),
    ("enhancement-receptive-radii", check_enh_receptive_radii),
    ("fusion-output-bounded-by-inputs", check_fuse_bounded),
    ("fusion-clamps-negative-weights", check_fuse_clamps_negative_weights),
    ("fusion-epsilon-limit", check_fuse_epsilon_limit),
    ("attention-invoked-twice-per-forward", check_two_attention_invocations),
    ("ablation-grid-constructible", check_ablation_grid),
    ("fusion-weight-gradients", check_fusion_weight_gradients),
    ("fusion-homogeneity-without-attention", check_fusion_homogeneity),
    ("resize-round-trip", check_resize_roundtrip),
    ("oracle-determinism", check_oracle_determinism),
    ("reference-agrees-with-loop-oracle", check_reference_vs_loop_oracle),
    ("tensor-file-round-trip", check_tensor_roundtrip),
    ("malformed-tensor-files-rejected", check_malformed_rejected),
    ("fixture-generation-deterministic", check_fixture_determinism),
]


def run_selfcheck() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # a failed property must not stop the suite
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 0 if failures == 0 else 1
