import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from cafbifpn import attention as A
from cafbifpn import tensor as T
from cafbifpn.errors import ConfigError, NumericError, PartitionError, ShapeError
from cafbifpn.instrumentation import count_macs
from cafbifpn.reference import ref_ba

from conftest import arr, max_abs_diff, topk_ties_descending


def _tiles(x: np.ndarray, s: int) -> np.ndarray:
    c, h, w = x.shape
    th, tw = h // s, w // s
    return x.reshape(c, s, th, s, tw).transpose(1, 3, 2, 4, 0).reshape(s * s, th * tw, c)


def _identity(c: int, s: int) -> A.BraParams:
    """Identity projections and a zero local-context kernel."""
    eye = T.tensor(np.eye(c))
    return A.BraParams(eye, eye, eye, T.zeros([c, 3, 3]), s, 1)


@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_partition_merge_roundtrip(s, c, th, tw, seed):
    """region_qkv's value columns under identity projections, merged with
    a zero kernel, are the map again."""
    x = T.Rng(seed).tensor([c, s * th, s * tw], -1.0, 1.0)
    p = _identity(c, s)
    qkv = A.region_qkv(x, p)
    assert arr(qkv).shape == (s * s, th * tw, 3 * c)
    values = T.tensor(arr(qkv)[:, :, 2 * c:])
    assert np.array_equal(arr(A.merge_lce(values, qkv, p.lce_kernel, s * th, s * tw)), arr(x))


def test_partition_rejects_indivisible():
    with pytest.raises(PartitionError):
        A.region_qkv(T.zeros([2, 5, 6]), _identity(2, 2))


def test_partition_matches_numpy_tiles():
    x = T.Rng(41).tensor([3, 4, 6], -1.0, 1.0)
    qkv = arr(A.region_qkv(x, _identity(3, 2)))
    for block in range(3):
        assert np.array_equal(qkv[:, :, 3 * block:3 * (block + 1)], _tiles(arr(x), 2))


def test_routed_agrees_with_reference():
    rng = T.Rng(43)
    x = rng.tensor([6, 8, 8], -1.0, 1.0)
    p = A.make_bra_params(T.Rng(430), 6, 4, 3, heads=2)
    assert max_abs_diff(A.ba_forward(x, p), T.tensor(ref_ba(x, p))) <= 1e-12


def test_corrupt_tiebreak_hook_changes_tied_selection(monkeypatch):
    x = T.full([5, 8, 8], 0.37)  # constant map forces full score ties
    p = A.make_bra_params(T.Rng(45), 5, 2, 2)
    clean, corrupted = {}, {}
    A.ba_forward(x, p, clean)
    monkeypatch.setattr(A, "_topk_indices_row", topk_ties_descending)
    A.ba_forward(x, p, corrupted)
    assert not np.array_equal(clean["routing"].indices, corrupted["routing"].indices)


def test_topk_rejects_out_of_range():
    q = arr(T.Rng(48).tensor([4, 6], -1.0, 1.0))
    with pytest.raises(ConfigError):
        A.topk_routing(q, q, 0)
    with pytest.raises(ConfigError):
        A.topk_routing(q, q, 5)


def test_heads_must_divide_width():
    with pytest.raises(ConfigError):
        A.make_bra_params(T.Rng(49), 5, 2, 2, heads=2)
    p = A.make_bra_params(T.Rng(49), 4, 2, 2)
    with pytest.raises(ConfigError):
        A.ba_forward(T.zeros([4, 4, 4]), replace(p, heads=3))


def test_routing_margin_recorded():
    x = T.Rng(51).tensor([4, 8, 8], -1.0, 1.0)
    p = A.make_bra_params(T.Rng(510), 4, 2, 2)
    kinks = {}
    with count_macs() as record:
        A.ba_forward(x, p, kinks)
    routing = kinks["routing"]
    assert np.isfinite(record.margins["routing"])
    assert record.margins["routing"] >= 0.0
    # the per-row loop the recorded margin replaced: k-th minus (k+1)-th affinity
    ranked = [sorted(row, reverse=True) for row in arr(routing.affinity)]
    assert record.margins["routing"] == min(r[1] - r[2] for r in ranked)


def test_frozen_routing_reused():
    x = T.Rng(52).tensor([4, 8, 8], -1.0, 1.0)
    p = A.make_bra_params(T.Rng(520), 4, 2, 2)
    kinks = {}
    a = A.ba_forward(x, p, kinks)
    pinned = kinks["routing"]
    b = A.ba_forward(x, p, kinks)
    assert kinks["routing"] is pinned
    assert np.array_equal(arr(a), arr(b))
    assert np.array_equal(arr(a), arr(A.ba_forward(x, p)))


def test_token_attention_records_one_tape_node():
    rng = T.Rng(53)
    tape = T.Tape()
    qkv = tape.leaf(rng.tensor([4, 2, 12], -1.0, 1.0))
    routing = A.RoutingResult(None, np.array([[1, 3], [3, 0], [2, 3], [0, 1]]))
    before = len(tape.nodes)
    out = A.token_attention(qkv, routing, heads=2)
    assert len(tape.nodes) == before + 1
    assert out is tape.nodes[-1]
    assert set(tape.backward(T.sum_all(out), T.tensor([1.0]))) == {qkv}


def test_token_attention_equals_attention_over_stacked_routed_regions():
    qkv = arr(T.Rng(54).tensor([4, 3, 12], -1.0, 1.0))
    q, k, v = qkv[:, :, :4], qkv[:, :, 4:8], qkv[:, :, 8:]
    idx = np.array([[2, 0], [2, 3], [1, 2], [0, 3]])
    out = arr(A.token_attention(T.tensor(qkv), A.RoutingResult(None, idx), heads=2))
    for r in range(4):
        kg, vg = k[idx[r]].reshape(6, 4), v[idx[r]].reshape(6, 4)
        for cols in (slice(0, 2), slice(2, 4)):
            logits = q[r][:, cols] @ kg[:, cols].T / np.sqrt(2.0)
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            assert max_abs_diff(out[r][:, cols], w @ vg[:, cols]) <= 1e-14


def test_token_attention_rejects_bad_routing():
    qkv = T.zeros([4, 2, 12])
    with pytest.raises(IndexError):
        A.token_attention(qkv, A.RoutingResult(None, np.array([[4]] * 4)), 1)
    with pytest.raises(ShapeError):
        A.token_attention(qkv, A.RoutingResult(None, np.array([[0]] * 3)), 1)


def test_token_attention_rejects_non_finite_logits():
    qkv = np.full((1, 2, 6), 1.0)
    qkv[:, :, 2:4] = np.nan  # the keys
    with pytest.raises(NumericError, match="non-finite"):
        A.token_attention(T.tensor(qkv), A.RoutingResult(None, np.array([[0]])), heads=1)
