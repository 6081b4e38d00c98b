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


@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_partition_merge_roundtrip(s, c, tile, seed):
    x = T.Rng(seed).tensor([c, s * tile, s * tile], -1.0, 1.0)
    rt = A.region_partition(x, s)
    assert arr(rt.data).shape == (s * s, tile * tile, c)
    assert np.array_equal(arr(A.region_merge(rt)), arr(x))


def test_partition_rejects_indivisible():
    with pytest.raises(PartitionError):
        A.region_partition(T.zeros([2, 5, 6]), 2)


def test_partition_matches_numpy_tiles():
    x = T.Rng(41).tensor([3, 6, 6], -1.0, 1.0)
    rt = A.region_partition(x, 2)
    assert np.array_equal(arr(rt.data), _tiles(arr(x), 2))


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
    q = T.Rng(48).tensor([4, 6], -1.0, 1.0)
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


def _tokens(*tensors):
    return [A.RegionTokens(t, 2, 4, 2) for t in tensors]


def test_token_attention_records_one_tape_node():
    rng = T.Rng(53)
    tape = T.Tape()
    q = tape.leaf(rng.tensor([4, 2, 4], -1.0, 1.0))
    k = tape.leaf(rng.tensor([4, 2, 4], -1.0, 1.0))
    v = tape.leaf(rng.tensor([4, 2, 4], -1.0, 1.0))
    routing = A.RoutingResult(None, np.array([[1, 3], [3, 0], [2, 3], [0, 1]]))
    before = len(tape.nodes)
    out = A.token_attention(*_tokens(q, k, v), routing, heads=2)
    assert len(tape.nodes) == before + 1
    assert out.data is tape.nodes[-1]
    assert set(tape.backward(T.sum_all(out.data), T.tensor([1.0]))) == {q, k, v}


def test_token_attention_equals_attention_over_stacked_routed_regions():
    rng = T.Rng(54)
    q, k, v = (rng.tensor([4, 3, 4], -1.0, 1.0) for _ in range(3))
    idx = np.array([[2, 0], [2, 3], [1, 2], [0, 3]])
    out = arr(A.token_attention(*_tokens(q, k, v), A.RoutingResult(None, idx), heads=2).data)
    for r in range(4):
        kg, vg = arr(k)[idx[r]].reshape(6, 4), arr(v)[idx[r]].reshape(6, 4)
        for cols in (slice(0, 2), slice(2, 4)):
            logits = arr(q)[r][:, cols] @ kg[:, cols].T / np.sqrt(2.0)
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            assert max_abs_diff(out[r][:, cols], w @ vg[:, cols]) <= 1e-14


def test_token_attention_rejects_bad_routing():
    q = T.zeros([4, 2, 4])
    with pytest.raises(IndexError):
        A.token_attention(*_tokens(q, q, q), A.RoutingResult(None, np.array([[4]] * 4)), 1)
    with pytest.raises(ShapeError):
        A.token_attention(*_tokens(q, q, q), A.RoutingResult(None, np.array([[0]] * 3)), 1)


def test_token_attention_rejects_non_finite_logits():
    q = T.full([1, 2, 2], 1.0)
    k = T.tensor(np.full((1, 3, 2), np.nan))
    with pytest.raises(NumericError, match="non-finite"):
        A.token_attention(A.RegionTokens(q, 1, 2, 1), A.RegionTokens(k, 1, 3, 1),
                          A.RegionTokens(k, 1, 3, 1), A.RoutingResult(None, np.array([[0]])),
                          heads=1)
