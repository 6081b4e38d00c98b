import tracemalloc
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from cafbifpn import tensor as T
from cafbifpn.errors import (ConfigError, FormatError, NumericError, PipelineError,
                             ShapeError)
from cafbifpn.instrumentation import count_macs
from cafbifpn.pipeline import (build_pipeline_params, c_afbifpn_forward,
                               afbifpn_forward, fuse)
from cafbifpn.reference import ref_afbifpn, ref_c_afbifpn
from cafbifpn.tensorio import RunConfig, load_backbone

from conftest import (arr, assert_reruns_byte_identical, full_forward_error, max_abs_diff,
                      plain_reduction_error, tiny_cfg, tiny_pyramid)


# -- the resampling inside fuse --------------------------------------------

def _resampled(x, dims):
    """x read by fuse at dims, weighted alone."""
    return fuse([T.zeros(dims), x], [0.0, 1.0], 0.0)


@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_resize_roundtrip(c, h, w, seed):
    x = T.Rng(seed).tensor([c, 2 * h, 2 * w], -1.0, 1.0)
    assert np.array_equal(arr(_resampled(_resampled(x, [c, 4 * h, 4 * w]), x.dims)), arr(x))


def test_up2_repeats_nearest():
    x = T.tensor([[[1.0, 2.0], [3.0, 4.0]]])
    up = arr(_resampled(x, [1, 4, 4]))
    assert up[0].tolist() == [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]


def test_down2_averages_blocks():
    x = T.tensor([[[1.0, 3.0], [5.0, 7.0]]])
    assert arr(_resampled(x, [1, 1, 1]))[0].tolist() == [[4.0]]


def test_resize_rejects_odd_extents():
    for dims in ([1, 1, 2], [1, 2, 2]):  # a height of 3 is neither twice nor half of 1 or 2
        with pytest.raises(ShapeError):
            _resampled(T.zeros([1, 3, 4]), dims)


# -- fuse ----------------------------------------------------------------

def test_fuse_weighted_combination():
    a, b = T.tensor([[2.0]]), T.tensor([[6.0]])
    out = arr(fuse([a, b], [1.0, 3.0], 0.0))[0, 0]
    assert abs(out - 5.0) <= 1e-12  # (2 + 18) / 4


def test_fuse_clamp_recorded():
    with count_macs() as record:
        fuse([T.tensor([[1.0]]), T.tensor([[2.0]])], [0.5, -0.2], 1e-4)
    assert record.margins["clamp"] <= 0.2 + 1e-15


def test_fuse_zero_denominator_rejected():
    with pytest.raises(NumericError):
        fuse([T.tensor([[1.0]]), T.tensor([[2.0]])], [0.0, -1.0], 0.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_non_finite_epsilon_rejected(eps):
    # unchecked, a NaN epsilon makes every output NaN and an infinite one zero
    with pytest.raises(ConfigError, match="epsilon"):
        fuse([T.tensor([[1.0]]), T.tensor([[2.0]])], [1.0, 1.0], eps)
    channels, backbone = tiny_pyramid(96)
    params = build_pipeline_params(tiny_cfg(), channels)
    with pytest.raises(ConfigError, match="epsilon"):
        c_afbifpn_forward(backbone, replace(params, fusion=replace(params.fusion, epsilon=eps)))


# -- assembled pyramid ---------------------------------------------------

def test_forward_deterministic(tmp_path):
    assert_reruns_byte_identical(tiny_pyramid(85)[1], tiny_cfg(), tmp_path)


@pytest.mark.parametrize("overrides", [{}, {"regions_s": 8, "topk_k": 4, "heads": 4}])
def test_run_record_leaves_outputs_bit_identical(fixture_dir, overrides):
    backbone = load_backbone(fixture_dir)
    channels = {lvl: t.dims[0] for lvl, t in backbone.items()}
    params = build_pipeline_params(replace(RunConfig(), **overrides), channels)
    bare = c_afbifpn_forward(backbone, params)
    with count_macs() as record:
        recorded = c_afbifpn_forward(backbone, params)
    assert record.ba_invocations == 2
    for lvl in (2, 3, 4, 5):
        assert arr(bare[lvl]).tobytes() == arr(recorded[lvl]).tobytes()


def test_default_forward_records_every_margin(fixture_dir):
    backbone = load_backbone(fixture_dir)
    channels = {lvl: t.dims[0] for lvl, t in backbone.items()}
    with count_macs() as record:
        c_afbifpn_forward(backbone, build_pipeline_params(RunConfig(), channels))
    assert sorted(record.margins) == ["clamp", "lattice", "relu", "routing"]
    for kink, gap in record.margins.items():
        assert np.isfinite(gap) and gap >= 0.0, kink


def test_frozen_routing_substitution_is_identity():
    """The frozen-kink record, routing at the refined levels and sampling
    offsets at every level, replays the unrecorded forward's bits."""
    channels, backbone = tiny_pyramid(86)
    params = build_pipeline_params(tiny_cfg(), channels)
    kinks = {}
    a = c_afbifpn_forward(backbone, params, kinks=kinks)
    assert {lvl: sorted(k) for lvl, k in kinks.items()} == {
        2: ["offsets"], 3: ["offsets", "routing"], 4: ["offsets", "routing"], 5: ["offsets"]}
    pinned = {lvl: dict(k) for lvl, k in kinks.items()}
    b = c_afbifpn_forward(backbone, params, kinks=kinks)
    assert all(kinks[lvl][key] is pinned[lvl][key] for lvl in pinned for key in pinned[lvl])
    for lvl in (2, 3, 4, 5):
        assert arr(a[lvl]).tobytes() == arr(b[lvl]).tobytes() == \
            arr(c_afbifpn_forward(backbone, params)[lvl]).tobytes()


def test_every_tape_node_is_reachable_from_the_outputs():
    """A taped forward records nothing that no output depends on: the
    routing is decided off the tape."""
    channels, backbone = tiny_pyramid(87)
    params = build_pipeline_params(tiny_cfg(), channels)
    tape = T.Tape()
    out = c_afbifpn_forward({lvl: tape.leaf(t) for lvl, t in backbone.items()}, params)
    reached, todo = set(), list(out.values())
    while todo:
        node = todo.pop()
        if node.index not in reached:
            reached.add(node.index)
            todo.extend(p for p in node.parents if isinstance(p, T.Node))
    assert sorted(set(range(len(tape.nodes))) - reached) == []


def test_untaped_forward_peak_under_three_and_a_half_level_2_maps():
    """The attn256 shape (enhancement block off, S=8, k=4, 4 heads) with
    level 2 at 128: the forward's traced peak, output maps included, stays
    under 3.5 level-2 maps (about 3.0 measured).  Fusion with the up2
    resize outside the node, down2's full-size temporary, attention's
    token-layout intermediates kept to the end of the pass and stage-I
    level 2 kept to the end of the forward peaked at 4.05."""
    widths = {2: 16, 3: 32, 4: 64, 5: 128}
    rng = T.Rng(31)
    backbone = {lvl: rng.tensor([c, 128 >> (lvl - 2), 128 >> (lvl - 2)], -1.0, 1.0)
                for lvl, c in widths.items()}
    cfg = replace(RunConfig(), regions_s=8, topk_k=4, heads=4, cfe_enabled=False)
    params = build_pipeline_params(cfg, widths)
    c_afbifpn_forward(backbone, params)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        c_afbifpn_forward(backbone, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 48 * 128 * 128 * 8


def test_plain_reduction_matches_reference():
    cfg = tiny_cfg(cfe_enabled=False, attention_fusion_enabled=False)
    assert plain_reduction_error(tiny_pyramid(88)[1], cfg) <= 1e-12


def test_full_forward_matches_reference():
    assert full_forward_error(tiny_pyramid(89)[1], tiny_cfg()) <= 1e-10


@pytest.mark.parametrize("dilation", [1, 3])
def test_full_forward_matches_reference_off_the_default_dilation(dilation):
    """Each route derives the dilated stages' padding itself; at dilation 3
    the 2x2 level-5 map reads only the centre tap of each dilated 3x3."""
    assert full_forward_error(tiny_pyramid(89)[1], tiny_cfg(dilation=dilation)) <= 1e-10


def test_reference_casts_no_far_sampling_position(fixture_dir):
    """The fixture times 1e150 predicts sampling positions near 1e149, far
    off every map.  The reference route clips them before its own cast to
    integer corners, so with every warning raised as an error it runs, and
    it still agrees with the forward."""
    maps = {lvl: T.tensor(t.array * 1e150) for lvl, t in load_backbone(fixture_dir).items()}
    params = build_pipeline_params(RunConfig(), {lvl: t.dims[0] for lvl, t in maps.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = ref_c_afbifpn(maps, params)
    out = c_afbifpn_forward(maps, params)
    for lvl in (2, 3, 4, 5):
        assert max_abs_diff(out[lvl], ref[lvl]) <= 1e-10 * np.abs(ref[lvl]).max()


def test_fusion_stage_alone_matches_reference():
    # enter at stage I directly: every level already at the shared width
    rng = T.Rng(95)
    stage_i = {lvl: rng.tensor([6, 16 >> (lvl - 2), 16 >> (lvl - 2)], -1.0, 1.0)
               for lvl in (2, 3, 4, 5)}
    params = build_pipeline_params(tiny_cfg(seed=95), {2: 3, 3: 3, 4: 4, 5: 4})
    given = dict(stage_i)
    out = afbifpn_forward(stage_i, params)
    assert stage_i == given  # the caller's maps are left in place
    ref = ref_afbifpn(stage_i, params)
    for lvl in (2, 3, 4, 5):
        assert max_abs_diff(out[lvl], ref[lvl]) <= 1e-10


def test_missing_level_named_in_error():
    channels, backbone = tiny_pyramid(91)
    params = build_pipeline_params(tiny_cfg(), channels)
    del backbone[4]
    with pytest.raises(FormatError, match="4"):
        c_afbifpn_forward(backbone, params)


def test_bad_halving_rejected():
    channels, backbone = tiny_pyramid(92)
    params = build_pipeline_params(tiny_cfg(), channels)
    backbone[3] = T.Rng(920).tensor([3, 7, 7], -1.0, 1.0)
    with pytest.raises(FormatError):  # an input problem
        c_afbifpn_forward(backbone, params)
    stage_i = {lvl: T.zeros([6, 16 >> (lvl - 2), 16 >> (lvl - 2)]) for lvl in (2, 3, 4, 5)}
    stage_i[3] = T.zeros([6, 7, 7])
    with pytest.raises(PipelineError, match="stage-I level 3"):  # an internal one
        afbifpn_forward(stage_i, params)


def test_stage_i_width_mismatch_names_the_fusion_node():
    """Each level meets another inside a fusion node, which rejects a map
    of another width: attention off, so the level-4 intermediate is the
    first node to see level 4 or 5, the level-3 one level 3, and the
    level-2 output level 2."""
    params = build_pipeline_params(tiny_cfg(attention_fusion_enabled=False),
                                   {2: 3, 3: 3, 4: 4, 5: 4})
    for lvl, name in ((2, "level-2 output"), (3, "level-3 intermediate"),
                      (4, "level-4 intermediate"), (5, "level-4 intermediate")):
        stage_i = {k: T.zeros([5 if k == lvl else 6, 16 >> (k - 2), 16 >> (k - 2)])
                   for k in (2, 3, 4, 5)}
        with pytest.raises(PipelineError, match=f"node {name}: fuse input dims"):
            afbifpn_forward(stage_i, params)


def test_stage_params_presence_enforced():
    channels, backbone = tiny_pyramid(93)
    params = build_pipeline_params(tiny_cfg(), channels)
    for bad in (replace(params, cfe=None), replace(params, projection=params.cfe),
                replace(params, bra={4: params.bra[4]})):
        with pytest.raises(ConfigError):
            c_afbifpn_forward(backbone, bad)


def test_fusion_weight_arity_enforced():
    channels, backbone = tiny_pyramid(94)
    params = build_pipeline_params(tiny_cfg(), channels)
    bad = replace(params, fusion=replace(params.fusion, p3_out=(1.0, 1.0)))
    with pytest.raises((ConfigError, PipelineError, ShapeError)):
        c_afbifpn_forward(backbone, bad)
