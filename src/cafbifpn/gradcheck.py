"""Analytic gradients versus central finite differences.

A case's parameters are walked leaf by leaf (walk): one taped backward
gives every gradient, and each leaf is differenced along one random
direction.  selfcheck's small operands are differenced in every
coordinate (max_rel_err).  One kinks record, filled on the unperturbed
forward, freezes what a perturbation could flip: each refined level's
routing and each deformable stage's sampling offsets.  A case is accepted
only when its forward keeps a margin from every other non-smooth point
(watched); a violated margin reseeds the case and the event is reported,
not failed.  The pipeline case runs with activation "none"; a small
dedicated case covers the relu path, where the margin is achievable at
desk scale.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from functools import reduce

import numpy as np

from . import tensor as T
from .convops import Conv2dParams, DeformableParams, conv2d, deformable_conv2d
from .errors import ConfigError, NumericError
from .cfe import cfe_forward, make_cfe_params
from .instrumentation import count_macs
from .oracles import directional_diffs
from .pipeline import build_pipeline_params, c_afbifpn_forward
from .tensorio import _MAX_VALUES, config_check_extents

RELU_MARGIN = 1e-4
LATTICE_MARGIN = 1e-3
CLAMP_MARGIN = 1e-3
ROUTING_MARGIN = 1e-3
PASS_THRESHOLD = 1e-5
REL_FLOOR = 1e-3
MAX_RESEEDS = 32

# Fields that are not leaves: epsilon is a constant of the fusion formula,
# and the predictor feeds only the frozen offsets (offset-predictor case).
_NOT_LEAVES = ("epsilon", "offset_predictor")


def watched(run, lattice: bool = False):
    """run() under a run record: (its result, the first margin it broke
    or None).  A margin is demanded only for kinks whose argument can move
    under the perturbations the case applies.  Sampling positions move only
    when offset-making parameters are differenced, so the lattice margin
    is enforced just in the cases that move offsets; positions exactly on
    the lattice (identically zero offsets) stay put and are exempt."""
    with count_macs() as record:
        out = run()
    m = record.margins
    if m["relu"] < RELU_MARGIN:
        return out, f"relu pre-activation gap {m['relu']:.2e}"
    if lattice and 0.0 < m["lattice"] < LATTICE_MARGIN:
        return out, f"sampling position {m['lattice']:.2e} from the lattice"
    if m["clamp"] < CLAMP_MARGIN:
        return out, f"fusion weight {m['clamp']:.2e} from the clamp"
    if m["routing"] < ROUTING_MARGIN:
        return out, f"routing margin {m['routing']:.2e}"
    return out, None


def crosses_relu(out) -> bool:
    """Whether a relu-activated output crosses the relu: some values
    clamped to exactly zero and some above it.  A case that does not
    cannot tell a relu from the identity."""
    v = T._val(out)
    return bool((v == 0).any() and (v > 0).any())


def first_smooth(draw, seeds, events: list | None = None):
    """(case, seed) for the first seed whose draw(seed) -> (case, reason)
    keeps every margin (reason None).  Each rejected seed is appended to
    events with its reason."""
    reason = None
    for seed in seeds:
        case, reason = draw(seed)
        if reason is None:
            return case, seed
        if events is not None:
            events.append({"seed": seed, "reason": reason})
    raise NumericError(f"no smooth case found in {len(seeds)} reseeds: {reason}")


def _map_leaves(record, fn, path=()):
    """record with every float leaf replaced by fn(path, leaf).  The leaves
    are the Tensors and floats reached through dataclass fields (except
    _NOT_LEAVES), dict values and tuple items; path lists the field names,
    keys and indices that lead to one.  The containers are rebuilt; ints,
    strings and None stay as they are."""
    if isinstance(record, (T.Tensor, float)):
        return fn(path, record)
    if isinstance(record, dict):
        return {k: _map_leaves(v, fn, path + (k,)) for k, v in record.items()}
    if isinstance(record, tuple):
        return tuple(_map_leaves(v, fn, path + (i,)) for i, v in enumerate(record))
    if is_dataclass(record):
        return replace(record, **{f.name: _map_leaves(getattr(record, f.name), fn, path + (f.name,))
                                  for f in fields(record) if f.name not in _NOT_LEAVES})
    return record


def _compare(record, loss, directions) -> dict:
    """{path: relative errors} for every float leaf of record, one per
    array v that directions(leaf) yields: <gradient, v>, the gradient from
    one taped backward of the scalar loss(record), against the central
    difference of loss along v, the other leaves at their base values.
    Each error is |a - f| / max(|a|, |f|, REL_FLOOR)."""
    found = []
    _map_leaves(record, lambda path, leaf: found.append(
        (path, leaf if isinstance(leaf, T.Tensor) else T.tensor([leaf]))))
    tape = T.Tape()
    nodes = {path: tape.leaf(t) for path, t in found}
    grads = tape.backward(loss(_map_leaves(record, lambda path, _: nodes[path])), T.tensor([1.0]))
    errs = {}
    for path, t in found:
        vs = list(directions(t))
        g = T._val(grads[nodes[path]]) if nodes[path] in grads else np.zeros(t.dims)
        fd = directional_diffs(lambda u, path=path: T._val(loss(_map_leaves(
            record, lambda p, leaf: u if p == path else leaf)))[0], t, vs)
        along = np.array([np.vdot(g, v) for v in vs])
        errs[path] = np.abs(along - fd) / np.maximum(np.maximum(np.abs(along), np.abs(fd)),
                                                     REL_FLOOR)
    return errs


def max_rel_err(entries, loss_of) -> tuple[float, int]:
    """The worst relative error in every coordinate of the (name, Tensor)
    entries, and the number of coordinates; loss_of maps {name: Tensor or
    Node} to a one-element loss."""
    errs = np.concatenate(list(_compare(dict(entries), loss_of,
                                        lambda t: np.eye(t.size).reshape((-1,) + t.dims)).values()))
    return float(np.max(errs)), errs.size  # a NaN error stays NaN


def walk(record, loss, rng: T.Rng) -> dict:
    """{path: relative error} for every float leaf of record, each along
    one direction drawn from rng, uniform in [-1, 1] per coordinate: one
    backward, then two forwards per leaf."""
    return {path: float(rel[0]) for path, rel in
            _compare(record, loss, lambda t: [T._val(rng.tensor(t.dims, -1.0, 1.0))]).items()}


def _walked(errs: dict) -> dict:
    """A walked group's report: its worst relative error and its number of
    directions."""
    worst = float(np.max(list(errs.values())))  # a NaN error stays NaN
    return {"max_rel_err": worst, "directions": len(errs), "pass": worst <= PASS_THRESHOLD}


# The pipeline case's report groups in report order; _group picks a leaf's
PIPELINE_GROUPS = ("cfe-kernels", "cfe-biases", "projections", "bra-projections", "lce",
                   "fusion-weights")


def _group(path) -> str:
    """The report group of the PipelineParams leaf at path."""
    if path[0] == "cfe":
        return "cfe-kernels" if path[-1] == "weights" else "cfe-biases"
    if path[0] == "bra":
        return "lce" if path[-1] == "lce_kernel" else "bra-projections"
    return {"projection": "projections", "fusion": "fusion-weights"}[path[0]]


def _loss_of(out: dict):
    return reduce(T.add, [T.sum_all(out[lvl]) for lvl in (2, 3, 4, 5)])


def _pipeline_case(cfg, case_seed: int):
    """Desk-scale backbone sized so the region grid tiles every refined
    level: level 4 is S x S, level 3 is 2S x 2S."""
    h2 = 8 * cfg.regions_s
    if cfg.fusion_width * h2 ** 2 > _MAX_VALUES:  # checked before anything is drawn
        raise ConfigError(f"config violates fusion_width * (8 * regions_s)^2 fits in one numpy "
                          f"array (a level-2 map of the gradient check): got regions_s {cfg.regions_s}")
    channels = {2: 3, 3: 3, 4: 4, 5: 4}
    rng = T.Rng(case_seed ^ 0x5DEECE66D)
    backbone = {lvl: rng.tensor([channels[lvl], h2 >> (lvl - 2), h2 >> (lvl - 2)], -1.0, 1.0)
                for lvl in (2, 3, 4, 5)}
    config_check_extents(cfg, backbone)
    params = build_pipeline_params(replace(cfg, seed=case_seed), channels)
    if params.cfe is not None:
        params = replace(params, cfe={lvl: replace(block, activation="none")
                                      for lvl, block in params.cfe.items()})
    # The production draw keeps projections small, which squeezes the
    # affinity gaps below the absolute resampling margin.  Boost them
    # for the check; the math under test is unchanged.
    params = _map_leaves(params, lambda path, leaf: T.tensor(T._val(leaf) * 10.0)
                         if _group(path) == "bra-projections" else leaf)
    kinks = {}
    _, reason = watched(lambda: c_afbifpn_forward(backbone, params, kinks=kinks))
    return (params, backbone, kinks), reason


def _predictor_case(case_seed: int):
    """Gradient through the offset-predicting convolution, the one chain
    where differencing a weight moves the sampling positions.  Kept at
    desk scale so a real lattice margin is attainable by reseeding."""
    rng = T.Rng(case_seed)
    x = rng.tensor([3, 6, 6], -1.0, 1.0)
    base = Conv2dParams(weights=rng.tensor([2, 3, 3, 3], -0.5, 0.5),
                        bias=rng.tensor([2], -0.1, 0.1))
    predictor = Conv2dParams(weights=rng.tensor([18, 3, 3, 3], -0.6, 0.6),
                             bias=rng.tensor([18], -0.4, 0.4))

    def loss(pred):
        return T.sum_all(deformable_conv2d(x, DeformableParams(base, pred)))

    _, reason = watched(lambda: loss(predictor), lattice=True)
    return (predictor, loss), reason and f"predictor case: {reason}"


def _relu_case(case_seed: int):
    """Small relu-active block where the pre-activation margin is
    attainable, its sampling offsets frozen; reseeds like the main case.
    The case also carries whether each branch's leading 1x1 convolution
    crosses the relu, so its walked parameters are differenced through a
    relu that clamps some outputs and passes others."""
    rng = T.Rng(case_seed)
    record = make_cfe_params(rng, 3, 6)
    x = rng.tensor([3, 4, 4], -1.0, 1.0)
    kinks = {}

    def loss(p):
        return T.sum_all(cfe_forward(x, p, kinks))

    _, reason = watched(lambda: loss(record))
    crossed = all(crosses_relu(conv2d(x, stages[0], "relu")) for stages in record.branches)
    return (record, loss, crossed), reason and f"relu case: {reason}"


def run_gradcheck(cfg, seed: int) -> dict:
    """Check every parameter the config builds; returns a report with the
    worst relative error of each group of leaves.  The predictor and relu
    cases exercise the enhancement block, so they run only when it is
    enabled.  Groups the config leaves out are listed under "skipped", a
    key the report carries only when some group is absent."""
    events = []
    (params, backbone, kinks), case_seed = first_smooth(
        lambda s: _pipeline_case(cfg, s), range(seed, seed + MAX_RESEEDS), events)
    directions = T.Rng(seed ^ 0xC0FFEE)
    by_group = {}
    for path, rel in walk(params, lambda p: _loss_of(c_afbifpn_forward(backbone, p, kinks=kinks)),
                          directions).items():
        by_group.setdefault(_group(path), {})[path] = rel
    groups = {name: _walked(by_group[name]) for name in PIPELINE_GROUPS if name in by_group}
    skipped = [name for name in PIPELINE_GROUPS if name not in by_group]
    if params.cfe is not None:
        predictor, _ = first_smooth(_predictor_case,
                                    range(seed + 2000, seed + 2000 + MAX_RESEEDS), events)
        groups["offset-predictor"] = _walked(walk(*predictor, directions))
        (*relu, crossed), _ = first_smooth(_relu_case,
                                           range(seed + 1000, seed + 1000 + MAX_RESEEDS), events)
        groups["relu-path"] = _walked(walk(*relu, directions))
        if not crossed:
            groups["relu-path"].update({"pass": False,
                                        "reason": "a branch's leading stage does not cross the relu"})
    else:
        skipped += ["offset-predictor", "relu-path"]

    ok = all(g["pass"] for g in groups.values())
    report = {"seed": seed, "case_seed": case_seed, "threshold": PASS_THRESHOLD,
              "resample_events": events, "groups": groups, "pass": ok}
    if skipped:
        report["skipped"] = skipped
    return report
