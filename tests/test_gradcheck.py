"""The shared gradient comparison that selfcheck and gradcheck both rely on:
it must report agreement on an exact gradient and must report a VJP that
is off by a relative 1e-4, also in one tap of the sampling offsets.  The
pipeline walk must direct one difference at every leaf of the parameters."""

from dataclasses import replace

import numpy as np
import pytest

from cafbifpn import convops, gradcheck, selfcheck
from cafbifpn import tensor as T
from cafbifpn.errors import NumericError
from cafbifpn.gradcheck import first_smooth, max_rel_err
from cafbifpn.pipeline import build_pipeline_params
from cafbifpn.tensorio import RunConfig

from conftest import scaled_vjp


def _square(a, vjp_factor: float):
    """Elementwise a^2 whose VJP is scaled by vjp_factor."""
    v = T._val(a)
    return T._emit((a,), v * v, lambda g: (vjp_factor * 2.0 * v * g,))


def _quadratic_loss(weights):
    def loss_of(values, vjp_factor=1.0):
        return T.sum_all(T.mul(_square(values["x"], vjp_factor), weights))
    return loss_of


def test_exact_gradient_reports_round_off_only():
    w = T.Rng(1).tensor([3, 4], 0.5, 2.0)
    x = T.Rng(2).tensor([3, 4], -2.0, 2.0)
    worst, count = max_rel_err([("x", x)], _quadratic_loss(w))
    assert count == 12
    assert worst <= 1e-8


def test_scaled_vjp_is_reported():
    w = T.Rng(1).tensor([3, 4], 0.5, 2.0)
    x = T.Rng(2).tensor([3, 4], -2.0, 2.0)
    loss = _quadratic_loss(w)
    worst, _ = max_rel_err([("x", x)], lambda v: loss(v, vjp_factor=1.0001))
    assert worst == pytest.approx(1e-4 / 1.0001, rel=1e-3)


def test_first_smooth_records_rejected_seeds():
    events = []
    case, seed = first_smooth(lambda s: (s * 10, None if s == 3 else f"gap {s}"),
                              range(1, 9), events)
    assert (case, seed) == (30, 3)
    assert events == [{"seed": 1, "reason": "gap 1"}, {"seed": 2, "reason": "gap 2"}]
    with pytest.raises(NumericError, match="gap 8"):
        first_smooth(lambda s: (s, f"gap {s}"), range(5, 9))



def test_tap_zero_offset_fault_fails_op_gradients_and_offset_predictor(monkeypatch):
    """A fault confined to tap 0's offset gradient fails selfcheck's
    every-coordinate deformable offset cases and gradcheck's predictor
    walk, and no other gradcheck group."""
    real = convops.deformable_conv2d_with_offsets
    tap0 = np.ones((18, 1, 1))
    tap0[:2] = 1.0001  # tap 0's y and x offsets

    def faulty(x, base, offsets, activation="none"):
        return real(x, base, scaled_vjp(offsets, tap0), activation)

    for module in (selfcheck, convops):
        monkeypatch.setattr(module, "deformable_conv2d_with_offsets", faulty)
    with pytest.raises(AssertionError, match="^deformable offsets gradient rel err"):
        selfcheck.check_op_gradients()
    groups = gradcheck.run_gradcheck(RunConfig(), 7)["groups"]
    assert [name for name, g in groups.items() if not g["pass"]] == ["offset-predictor"]


def test_relu_path_fails_a_relu_that_never_clamps(monkeypatch):
    """A relu made the identity forward and backward keeps the relu case's
    gradient consistent with its loss; only the crossing check sees it."""
    monkeypatch.setattr(convops, "_activate", lambda out, activation: out)
    monkeypatch.setattr(convops, "_deactivate", lambda g, out, activation: g)
    groups = gradcheck.run_gradcheck(RunConfig(), 7)["groups"]
    assert [name for name, g in groups.items() if not g["pass"]] == ["relu-path"]
    assert groups["relu-path"]["reason"] == "a branch's leading stage does not cross the relu"


def _leaf_count(obj) -> int:
    """Tensors and floats reachable through attributes, dict values, tuples
    and lists, leaving out the fusion epsilon and the offset predictors."""
    if isinstance(obj, (T.Tensor, float)):
        return 1
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_leaf_count(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(_leaf_count(v) for k, v in vars(obj).items()
                   if k not in ("epsilon", "offset_predictor"))
    return 0


@pytest.mark.parametrize("overrides, leaves", [
    ({}, 126), ({"attention_fusion_enabled": False}, 118), ({"cfe_enabled": False}, 30),
], ids=["default", "no-attention", "no-enhancement"])
def test_walk_directs_one_difference_at_every_leaf(monkeypatch, overrides, leaves):
    """Each pipeline group's direction count equals the leaves of its kind;
    the differences themselves are stubbed out, only the count is read."""
    monkeypatch.setattr(gradcheck, "directional_diffs",
                        lambda fn, x, directions, h: np.zeros(len(directions)))
    cfg = replace(RunConfig(), **overrides)
    report = gradcheck.run_gradcheck(cfg, 7)
    walked = {name: report["groups"][name]["directions"]
              for name in gradcheck.PIPELINE_GROUPS if name in report["groups"]}
    params = build_pipeline_params(cfg, {2: 3, 3: 3, 4: 4, 5: 4})
    convs = [c for block in (params.cfe or {}).values()
             for c in block.branch1 + block.branch2 + block.branch3[:3]
             + (block.branch3[3].base, block.residual)]
    want = {"cfe-kernels": len(convs), "cfe-biases": len(convs),
            "projections": 2 * len(params.projection or {}),
            "bra-projections": 3 * len(params.bra or {}), "lce": len(params.bra or {}),
            "fusion-weights": sum(len(getattr(params.fusion, node))
                                  for node in ("p2_out", "p3_mid", "p3_out",
                                               "p4_mid", "p4_out", "p5_out"))}
    assert walked == {name: n for name, n in want.items() if n}
    assert sum(walked.values()) == _leaf_count(params) == leaves


def _deformable_input_fault(real):
    def faulty(x, base, offsets, activation="none"):
        return real(scaled_vjp(x, 1.0001), base, offsets, activation)
    return faulty


def _deformable_tap00_weight_fault(real):
    tap00 = np.ones((1, 1, 3, 3))
    tap00[..., 0, 0] = 1.0001

    def faulty(x, base, offsets, activation="none"):
        return real(x, replace(base, weights=scaled_vjp(base.weights, tap00)), offsets, activation)
    return faulty


@pytest.mark.parametrize("fault, failing", [
    (_deformable_input_fault, ["cfe-kernels", "cfe-biases", "relu-path"]),
    (_deformable_tap00_weight_fault, ["cfe-kernels", "relu-path"]),
], ids=["input", "base-weight-tap-00"])
def test_walk_fails_a_deformable_vjp_fault(monkeypatch, fault, failing):
    """Two 1.0001 faults in the deformable VJP: the input gradient, and the
    base weight gradient at tap (0,0) alone.  The walk differences every
    level's enhancement block with its offsets frozen, so both fail."""
    monkeypatch.setattr(convops, "deformable_conv2d_with_offsets",
                        fault(convops.deformable_conv2d_with_offsets))
    groups = gradcheck.run_gradcheck(RunConfig(), 7)["groups"]
    assert [name for name, g in groups.items() if not g["pass"]] == failing
