import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from cafbifpn import tensor as T
from cafbifpn.cfe import cfe_forward, cfe_receptive_probe, join_branches, make_cfe_params
from cafbifpn.errors import ConfigError, ShapeError
from cafbifpn.reference import ref_cfe

from conftest import arr, max_abs_diff


@given(st.integers(4, 9), st.integers(4, 9), st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_spatial_dims_preserved(h, w, seed):
    x = T.Rng(seed).tensor([3, h, w], -1.0, 1.0)
    out = cfe_forward(x, make_cfe_params(T.Rng(60), 3, 6))
    assert arr(out).shape == (6, h, w)


def test_width_not_divisible_rejected():
    with pytest.raises(ConfigError):
        make_cfe_params(T.Rng(61), 3, 7)


def test_concat_width_mismatch_rejected():
    p = make_cfe_params(T.Rng(62), 3, 6)
    with pytest.raises(ShapeError):
        cfe_forward(T.zeros([3, 4, 4]),
                    replace(p, residual=make_cfe_params(T.Rng(62), 3, 9).residual))


def test_join_concatenates_branches_then_adds_residual():
    a = T.tensor([[[1.0, 2.0]]])
    b = T.tensor([[[3.0, 4.0]], [[5.0, 6.0]]])
    residual = T.tensor([[[0.5, 0.5]], [[1.0, 1.0]], [[-1.0, 0.0]]])
    out = join_branches([a, b], residual)
    assert arr(out).tolist() == [[[1.5, 2.5]], [[4.0, 5.0]], [[4.0, 6.0]]]
    with pytest.raises(ShapeError, match="branch concat width 1 != residual width 3"):
        join_branches([a], residual)
    with pytest.raises(ShapeError):
        join_branches([a, T.tensor([[[3.0, 4.0, 5.0]]])], residual)


def test_agrees_with_vectorized_reference():
    for activation in ("relu", "none"):
        x = T.Rng(65).tensor([4, 7, 7], -1.0, 1.0)
        p = replace(make_cfe_params(T.Rng(650), 4, 9), activation=activation)
        assert max_abs_diff(cfe_forward(x, p), T.tensor(ref_cfe(x, p))) <= 1e-12


def test_unknown_activation_rejected():
    p = replace(make_cfe_params(T.Rng(66), 3, 6), activation="gelu")
    with pytest.raises(ConfigError):
        cfe_forward(T.zeros([3, 4, 4]), p)


def test_probe_invariant_to_sign_and_activation():
    # the magnitude surrogate measures connectivity, so neither kernel
    # signs nor the configured activation may change the radius
    p = make_cfe_params(T.Rng(69), 3, 6)
    one, two, three = p.branches
    flipped = replace(p, branches=(one, tuple(
        replace(s, weights=T.tensor(-arr(s.weights))) for s in two), three))
    assert cfe_receptive_probe(flipped) == cfe_receptive_probe(p)
    assert cfe_receptive_probe(replace(p, activation="relu")) == \
        cfe_receptive_probe(replace(p, activation="none"))


@pytest.mark.parametrize("dilation", range(1, 9))
def test_probe_radius_is_two_plus_the_dilation(dilation):
    """The 1x5/5x1 pair of branch 2 spreads a response 2 pixels and its
    dilated 3x3 another d, the furthest of the three branches."""
    p = make_cfe_params(T.Rng(1), 3, 6, dilation=dilation)
    assert cfe_receptive_probe(p) == 2 + dilation
