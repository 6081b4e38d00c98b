"""The fused tape nodes against the composed chains they replace: the
relu-activated convolutions, the enhancement block's branch join, fusion
with the pixel replication (up2) or the 2x2 block means (down2) of its
resampled inputs inside, routed token attention, whose backward
recomputes the attention weights instead of keeping them, and the
attention pass's region-order projection (region_qkv) and its merge back
to map order plus the local-context term (merge_lce).  Each records one
tape node and gives the composed chain's forward bits and input-gradient
bits; token attention does so at every stacking of its
blocks, and the blocked fusion nodes at several blocks.  Their gradients
against central finite differences are selfcheck's
op-gradients-match-finite-differences."""

import tracemalloc

import numpy as np
import pytest

from cafbifpn import attention as A
from cafbifpn import pipeline as P
from cafbifpn import tensor as T
from cafbifpn.cfe import join_branches
from cafbifpn.convops import Conv2dParams, _depthwise, conv2d, deformable_conv2d_with_offsets
from cafbifpn.errors import NumericError, ShapeError
from cafbifpn.pipeline import fuse


# -- the composed chains, rebuilt from the primitives they were made of --

def _relu(a):
    av = T._val(a)
    mask = av > 0
    return T._emit((a,), np.where(mask, av, 0.0), lambda g: (g * mask,))


def _concat(parts, axis=0):
    vals = [T._val(p) for p in parts]
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])

    def grads(g):
        return tuple(np.ascontiguousarray(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis))
                     for i in range(len(vals)))

    return T._emit(tuple(parts), np.concatenate(vals, axis=axis), grads)


def _columns(a, lo, hi):
    """Columns lo..hi of the last axis; the gradient is zero elsewhere."""
    av = T._val(a)

    def grads(g):
        full = np.zeros(av.shape)
        full[..., lo:hi] = g
        return (full,)

    return T._emit((a,), np.ascontiguousarray(av[..., lo:hi]), grads)


def _reshape(a, dims):
    av = T._val(a)
    return T._emit((a,), av.reshape(dims), lambda g: (g.reshape(av.shape),))


def _permute(a, axes):
    inverse = np.argsort(axes)
    return T._emit((a,), np.ascontiguousarray(T._val(a).transpose(axes)),
                   lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def _matmul(a, b):
    av, bv = T._val(a), T._val(b)
    return T._emit((a, b), av @ bv, lambda g: (g @ bv.T, av.T @ g))


def _mean_axis(a, axis):
    av = T._val(a)
    return T._emit((a,), av.mean(axis=axis), lambda g: (
        np.ascontiguousarray(np.broadcast_to(np.expand_dims(g, axis), av.shape)) / av.shape[axis],))


def _depthwise_node(x, kernel):
    c, h, w = T._val(x).shape
    out, vjp = _depthwise(T._val(x).reshape(c, 1, h, 1, w), T._val(kernel))
    return T._emit((x, kernel), out, lambda g: vjp(g, True, True))


def _expand(a, dims):
    av = T._val(a)
    summed = tuple(i for i, e in enumerate(av.shape) if e == 1 and dims[i] != 1)
    shape = av.shape
    return T._emit((a,), np.ascontiguousarray(np.broadcast_to(av, dims)),
                   lambda g: ((g.sum(axis=summed) if summed else g).reshape(shape),))


def _composed_resize(f, direction):
    c, h, w = T._val(f).shape
    if direction == "up2":
        x = _expand(_reshape(f, [c, h, 1, w, 1]), (c, h, 2, w, 2))
        return _reshape(x, [c, 2 * h, 2 * w])
    x = _mean_axis(_reshape(f, [c, h // 2, 2, w]), axis=2)
    return _mean_axis(_reshape(x, [c, h // 2, w // 2, 2]), axis=3)


def _composed_region_qkv(f, w_q, w_k, w_v):
    """Partition (reshape, permute, reshape), then one product and reshape
    per projection, concatenated along the columns."""
    c, h, w = T._val(f).shape
    th, tw = h // _S, w // _S
    x = _reshape(_permute(_reshape(f, [c, _S, th, _S, tw]), (1, 3, 2, 4, 0)),
                 [_S * _S, th * tw, c])
    flat = _reshape(x, [_S * _S * th * tw, c])
    return _concat([_reshape(_matmul(flat, m), [_S * _S, th * tw, c]) for m in (w_q, w_k, w_v)],
                   axis=2)


def _region_merge(tokens):
    """[S^2, tokens, C] back to a [C, H, W] map of extents _MAP."""
    c, (h, w) = T._val(tokens).shape[2], _MAP
    x = _permute(_reshape(tokens, [_S, _S, h // _S, w // _S, c]), (4, 0, 2, 1, 3))
    return _reshape(x, [c, h, w])


def _composed_merge_lce(attended, qkv, kernel):
    """The attended tokens merged to map order, plus the depthwise term of
    the value columns merged to map order."""
    c = T._val(attended).shape[2]
    merged = _region_merge(attended)
    return T.add(merged, _depthwise_node(_region_merge(_columns(qkv, 2 * c, 3 * c)), kernel))


def _stored_weights_attention(qkv, routing, heads):
    """Token attention that keeps its [S^2, heads, n, G] weights for the
    backward, inline, as the node was before it recomputed them."""
    x = T._val(qkv)
    n_regions, n_tokens, c = x.shape[0], x.shape[1], x.shape[2] // 3
    qv, kv, vv = x[:, :, :c], x[:, :, c:2 * c], x[:, :, 2 * c:]
    idx = np.asarray(routing.indices, dtype=np.int64)
    d = c // heads
    n_gathered = idx.shape[1] * kv.shape[1]
    inv_scale = 1.0 / np.sqrt(d)
    weights = np.empty((n_regions, heads, n_tokens, n_gathered))
    out = np.empty((n_regions, n_tokens, c))

    def blocks(r, cols):
        k_r, v_r = kv[idx[r]].reshape(n_gathered, c), vv[idx[r]].reshape(n_gathered, c)
        return (np.ascontiguousarray(qv[r, :, cols]), np.ascontiguousarray(k_r[:, cols].T),
                np.ascontiguousarray(v_r[:, cols]))

    for r in range(n_regions):
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            q, kt, v = blocks(r, cols)
            s = weights[r, h]
            np.matmul(q, kt, out=s)
            s *= inv_scale
            T.softmax_inplace(s)
            out[r, :, cols] = s @ v

    def grads(g):
        gq = np.zeros_like(qv)
        gk = np.zeros((n_regions, n_gathered, c))
        gv = np.zeros((n_regions, n_gathered, c))
        for r in range(n_regions):
            for h in range(heads):
                cols = slice(h * d, (h + 1) * d)
                s = weights[r, h]
                go = np.ascontiguousarray(g[r, :, cols])
                gv[r, :, cols] += s.T @ go
                q, kt, v = blocks(r, cols)
                gs = go @ v.T
                gs -= (gs * s).sum(axis=-1, keepdims=True)
                gs *= s
                gs *= inv_scale
                gq[r, :, cols] += gs @ kt.T
                gk[r, :, cols] += (q.T @ gs).T

        def scatter(gathered_grad):
            buf = np.zeros(qv.shape)
            np.add.at(buf, idx.reshape(-1), gathered_grad.reshape((idx.size,) + qv.shape[1:]))
            return buf

        return (np.concatenate([gq, scatter(gk), scatter(gv)], axis=2),)

    return T._emit((qkv,), out, grads)


# -- cases: (fused op, composed op, operands) -----------------------------

_rng = T.Rng(91)
_X = _rng.tensor([2, 5, 4], -1.0, 1.0)
_CONV = (_rng.tensor([3, 2, 3, 3], -0.5, 0.5), _rng.tensor([3], -0.2, 0.2))
_BASE = (_rng.tensor([2, 2, 3, 3], -0.5, 0.5), _rng.tensor([2], -0.2, 0.2))
# fractions in [0.15, 0.55], off the lattice; whole-pixel shifts of up to 2
# put some samples partly or wholly outside the map
_OFFSETS = T.tensor(T._val(_rng.tensor([18, 5, 4], -0.2, 0.2)) + 0.35
                    + np.floor(T._val(_rng.tensor([18, 5, 4], -2.0, 3.0))))
_PARTS = [_rng.tensor([c, 3, 4], -1.0, 1.0) for c in (1, 2, 3)]
_RESIDUAL = _rng.tensor([6, 3, 4], -1.0, 1.0)
_FINE = _rng.tensor([3, 4, 6], -1.0, 1.0)
_QKV = _rng.tensor([4, 3, 12], -1.0, 1.0)
# region 3 is routed to three times, so its key and value gradients sum
# over copies
_ROUTING = A.RoutingResult(None, np.array([[1, 3], [3, 0], [2, 3], [0, 1]]))
# fuse-up2 replicates its last two inputs and fuse-down2 averages its last;
# the middle weight is clamped away
_HALF = [_rng.tensor([3, 2, 3], -1.0, 1.0) for _ in range(2)]
_FUSE_WEIGHTS = [T.tensor([u]) for u in (0.7, -0.3, 0.4)]
# a 4x6 map of width 4 (2 heads) cut into 2x2 regions of 2x3 tokens, so a
# swap of the region's extents shows
_S, _MAP = 2, (4, 6)
_BRA = A.make_bra_params(_rng, 4, _S, 2, heads=2, lce_kernel=3)
_F = _rng.tensor([4, *_MAP], -1.0, 1.0)
_ATTENDED, _QKV_MAP = _rng.tensor([4, 6, 4], -1.0, 1.0), _rng.tensor([4, 6, 12], -1.0, 1.0)


def _conv(w, b):
    return Conv2dParams(weights=w, bias=b)


def _attend(fn):
    return lambda qkv: fn(qkv, _ROUTING, 2)


def _fused_region_qkv(f, w_q, w_k, w_v):
    return A.region_qkv(f, A.BraParams(w_q, w_k, w_v, _BRA.lce_kernel, _S, 2, heads=2))


CASES = {
    "relu-conv2d": (lambda x, w, b: conv2d(x, _conv(w, b), "relu"),
                    lambda x, w, b: _relu(conv2d(x, _conv(w, b))),
                    (_X,) + _CONV),
    "relu-deformable": (
        lambda x, w, b, o: deformable_conv2d_with_offsets(x, _conv(w, b), o, "relu"),
        lambda x, w, b, o: _relu(deformable_conv2d_with_offsets(x, _conv(w, b), o)),
        (_X,) + _BASE + (_OFFSETS,)),
    "join": (lambda a, b, c, r: join_branches([a, b, c], r),
             lambda a, b, c, r: T.add(_concat([a, b, c]), r),
             tuple(_PARTS) + (_RESIDUAL,)),
    "fuse-up2": (
        lambda a, b, c, *w: fuse([a, b, c], w, 1e-4),
        lambda a, b, c, *w: fuse([a, _composed_resize(b, "up2"), _composed_resize(c, "up2")],
                                 w, 1e-4),
        (_FINE,) + tuple(_HALF) + tuple(_FUSE_WEIGHTS)),
    "fuse-down2": (
        lambda a, b, c, *w: fuse([a, b, c], w, 1e-4),
        lambda a, b, c, *w: fuse([a, b, _composed_resize(c, "down2")], w, 1e-4),
        tuple(_HALF) + (_FINE,) + tuple(_FUSE_WEIGHTS)),
    "token-attention": (_attend(A.token_attention), _attend(_stored_weights_attention), (_QKV,)),
    "region-qkv": (_fused_region_qkv, _composed_region_qkv, (_F, _BRA.w_q, _BRA.w_k, _BRA.w_v)),
    "merge-lce": (lambda a, x, k: A.merge_lce(a, x, k, *_MAP), _composed_merge_lce,
                  (_ATTENDED, _QKV_MAP, _BRA.lce_kernel)),
}


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(T._val(a)).view(np.uint64)


def _taped(op, operands, cotangent_seed=None):
    """op on a fresh tape over leaves of operands: (tape, output node,
    leaf gradients in operand order, or None when no cotangent is given)."""
    tape = T.Tape()
    leaves = [tape.leaf(t) for t in operands]
    out = op(*leaves)
    grads = None
    if cotangent_seed is not None:
        seed = T.Rng(cotangent_seed).tensor(list(out.dims), -1.0, 1.0)
        got = tape.backward(out, seed)
        grads = [got[leaf] for leaf in leaves]
    return tape, out, grads


@pytest.mark.parametrize("name", CASES)
def test_fused_node_records_one_tape_node(name):
    fused, _, operands = CASES[name]
    tape, out, _ = _taped(fused, operands)
    assert len(tape.nodes) == len(operands) + 1
    assert out is tape.nodes[-1]


@pytest.mark.parametrize("name", CASES)
def test_fused_node_matches_composed_chain_bit_for_bit(name):
    fused, composed, operands = CASES[name]
    _, out, grads = _taped(fused, operands, cotangent_seed=17)
    _, want, want_grads = _taped(composed, operands, cotangent_seed=17)
    assert np.array_equal(_bits(out), _bits(want))
    for got, expect in zip(grads, want_grads):
        assert np.array_equal(_bits(got), _bits(expect))
    # the untaped forward gives the same bits
    assert np.array_equal(_bits(fused(*operands)), _bits(want))


@pytest.mark.parametrize("name", ["fuse-up2", "fuse-down2"])
def test_blocked_node_matches_composed_chain_at_small_blocks(monkeypatch, name):
    """Two channels per block over three channels: a full block, then a
    short last one."""
    shape = T._val(CASES[name][2][0]).shape
    monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * 8 * shape[1] * shape[2])
    assert T._block_rows(shape) == 2
    test_fused_node_matches_composed_chain_bit_for_bit(name)


@pytest.mark.parametrize("first, other", [
    ([3, 4, 6], [3, 3, 3]), ([3, 4, 6], [3, 2, 6]), ([3, 4, 6], [3, 8, 3]),  # extents
    ([3, 8, 12], [3, 2, 3]),                                                 # a quarter
    ([3, 4, 6], [2, 4, 6]), ([3, 4, 6], [2, 2, 3]), ([3, 4, 6], [6, 8, 12]),  # channels
    ([3, 4, 6], [12, 2]), ([4, 6], [2, 3]), ([2, 3], [4, 6])])               # rank 2
def test_fuse_rejects_inputs_neither_equal_half_nor_double(first, other):
    with pytest.raises(ShapeError, match="fuse input dims"):
        fuse([T.zeros(first), T.zeros(other)], [1.0, 1.0], 1e-4)


def test_attention_tape_keeps_no_weights():
    """After a taped forward, the memory still held is about the output,
    not the [S^2, heads, n, G] weights the composed node kept."""
    rng = T.Rng(92)
    qkv = [rng.tensor([4, 64, 12], -1.0, 1.0)]
    weight_bytes = 4 * 2 * 64 * 128 * 8

    def held(fn):
        tracemalloc.start()
        try:
            tape, out, _ = _taped(_attend(fn), qkv)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert held(_stored_weights_attention) - held(A.token_attention) >= 0.9 * weight_bytes


# -- stacked attention blocks against the per-block loop -------------------

def _stack_case(regions_s, heads):
    """q, k, v of width 8 over a 16x16 map cut into S x S regions, and a
    routing of three regions per row that names region r + 1 twice."""
    n_regions, tokens = regions_s ** 2, (16 // regions_s) ** 2
    rng = T.Rng(100 + regions_s * heads)
    operands = (rng.tensor([n_regions, tokens, 24], -1.0, 1.0),)
    routing = A.RoutingResult(None, np.array([[(r + 1) % n_regions, r, (r + 1) % n_regions]
                                              for r in range(n_regions)]))

    def attend(fn):
        return lambda qkv: fn(qkv, routing, heads)

    return operands, attend, tokens * 3 * tokens * 8  # one block's logits bytes


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("regions_s", [1, 2, 4, 8, 16])
def test_stacked_attention_matches_the_block_loop(monkeypatch, regions_s, heads):
    """Forward and qkv gradients, bit for bit, at budgets of one block
    per stack, two blocks (part of a region's heads when there are more),
    three regions (a short last stack), and the default."""
    operands, attend, block = _stack_case(regions_s, heads)
    _, want, want_grads = _taped(attend(_stored_weights_attention), operands, cotangent_seed=18)
    for budget in (0, 2 * block, 3 * heads * block, A._STACK_BYTES):
        monkeypatch.setattr(A, "_STACK_BYTES", budget)
        _, out, grads = _taped(attend(A.token_attention), operands, cotangent_seed=18)
        assert np.array_equal(_bits(out), _bits(want)), budget
        for got, expect in zip(grads, want_grads):
            assert np.array_equal(_bits(got), _bits(expect)), budget


def test_non_finite_logit_in_one_block_of_a_stack_raises():
    operands, attend, block = _stack_case(4, 2)
    assert 16 * 2 * block <= A._STACK_BYTES  # all 32 blocks in one stack
    q = T._val(operands[0]).copy()
    q[5, 3, 4] = np.inf  # region 5, query 3, head 1
    with pytest.raises(NumericError, match="softmax input contains non-finite values"):
        attend(A.token_attention)(T.tensor(q))
