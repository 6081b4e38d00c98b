"""The shared gradient comparison that selfcheck and gradcheck both rely on:
it must report agreement on an exact gradient and must report a VJP that
is off by a relative 1e-4, in any coordinate of the offsets group."""

import numpy as np
import pytest

from cafbifpn import convops, gradcheck
from cafbifpn import tensor as T
from cafbifpn.errors import NumericError
from cafbifpn.gradcheck import first_smooth, max_rel_err
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


def test_coords_pick_the_differenced_coordinates():
    w = T.Rng(1).tensor([3, 4], 0.5, 2.0)
    x = T.Rng(2).tensor([3, 4], -2.0, 2.0)
    y = T.Rng(3).tensor([2], -2.0, 2.0)
    seen = []

    def coords(t):
        seen.append(t.size)
        return [0, t.size - 1]

    def loss_of(values):
        return T.add(_quadratic_loss(w)(values), T.sum_all(_square(values["y"], 1.0)))

    worst, count = max_rel_err([("x", x), ("y", y)], loss_of, coords)
    assert seen == [12, 2] and count == 4
    assert worst <= 1e-8


def test_first_smooth_records_rejected_seeds():
    events = []
    case, seed = first_smooth(lambda s: (s * 10, None if s == 3 else f"gap {s}"),
                              range(1, 9), events)
    assert (case, seed) == (30, 3)
    assert events == [{"seed": 1, "reason": "gap 1"}, {"seed": 2, "reason": "gap 2"}]
    with pytest.raises(NumericError, match="gap 8"):
        first_smooth(lambda s: (s, f"gap {s}"), range(5, 9))



def test_offsets_group_fails_a_fault_confined_to_tap_zero(monkeypatch):
    real = gradcheck.deformable_conv2d_with_offsets
    tap0 = np.ones((18, 1, 1))
    tap0[:2] = 1.0001  # tap 0's y and x offsets

    def faulty(x, base, offsets, activation="none"):
        return real(x, base, scaled_vjp(offsets, tap0), activation)

    monkeypatch.setattr(gradcheck, "deformable_conv2d_with_offsets", faulty)
    groups = gradcheck.run_gradcheck(RunConfig(), 7)["groups"]
    assert groups["offsets"]["pass"] is False
    assert [name for name, g in groups.items() if not g["pass"]] == ["offsets"]


def test_relu_path_fails_a_relu_that_never_clamps(monkeypatch):
    """A relu made the identity forward and backward keeps the relu case's
    gradient consistent with its loss; only the crossing check sees it."""
    monkeypatch.setattr(convops, "_activate", lambda out, activation: out)
    monkeypatch.setattr(convops, "_deactivate", lambda g, out, activation: g)
    groups = gradcheck.run_gradcheck(RunConfig(), 7)["groups"]
    assert [name for name, g in groups.items() if not g["pass"]] == ["relu-path"]
    assert groups["relu-path"]["reason"] == "the differenced stage does not cross the relu"
