"""Analytic gradients versus central finite differences.

Routing is captured once on the unperturbed forward and pinned for every
evaluation afterwards, so the region selection cannot flip between the
two sides of a difference step.  A case is accepted only when the forward
pass keeps a margin from every non-smooth point: relu pre-activations and
fusion-weight clamps away from zero, routing score gaps above the cut,
and bilinear sampling positions off the integer lattice.  Positions that
land exactly on the lattice are exempt: they come from identically zero
offsets (dead patches feeding the offset predictor), so perturbations do
not move them.  A violated margin reseeds the case and the event is
reported, not failed.

The pipeline-wide groups run with activation "none"; a small dedicated
case covers the relu path, where the margin is achievable at desk scale.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import tensor as T
from .convops import (Conv2dParams, DeformableParams, conv2d, deformable_conv2d,
                      deformable_conv2d_with_offsets)
from .errors import ConfigError, NumericError
from .cfe import cfe_forward, make_cfe_params
from .instrumentation import count_macs
from .oracles import finite_diff_grad
from .pipeline import _WEIGHT_ARITY, build_pipeline_params, c_afbifpn_forward
from .tensorio import _MAX_VALUES, config_check_extents

RELU_MARGIN = 1e-4
LATTICE_MARGIN = 1e-3
CLAMP_MARGIN = 1e-3
ROUTING_MARGIN = 1e-3
FD_STEP = 1e-5
PASS_THRESHOLD = 1e-5
REL_FLOOR = 1e-3
MAX_RESEEDS = 32
COORDS_PER_TENSOR = 5

# Pipeline-wide groups: (entry name, path into PipelineParams) per tensor.
GROUPS = {
    "cfe-kernels": (("b1-row-conv", ("cfe", 2, "branch1", 1, "weights")),
                    ("b1-dilated", ("cfe", 2, "branch1", 3, "weights")),
                    ("b2-row-conv", ("cfe", 2, "branch2", 1, "weights")),
                    ("b3-deform-base", ("cfe", 2, "branch3", 3, "base", "weights")),
                    ("residual", ("cfe", 2, "residual", "weights"))),
    "cfe-biases": (("b1-reduce-bias", ("cfe", 2, "branch1", 0, "bias")),
                   ("b3-deform-bias", ("cfe", 2, "branch3", 3, "base", "bias")),
                   ("residual-bias", ("cfe", 2, "residual", "bias"))),
    "bra-projections": (("l3-query", ("bra", 3, "w_q")), ("l3-key", ("bra", 3, "w_k")),
                        ("l3-value", ("bra", 3, "w_v")), ("l4-query", ("bra", 4, "w_q"))),
    "lce": (("l3-lce", ("bra", 3, "lce_kernel")), ("l4-lce", ("bra", 4, "lce_kernel"))),
    "fusion-weights": tuple((f"{node}[{j}]", ("fusion", node, j))
                            for node, arity in _WEIGHT_ARITY.items() for j in range(arity)),
}


def watched(run, lattice: bool = False):
    """run() under a run record: (its result, the first margin it broke
    or None).  A margin is demanded only for kinks whose argument can move
    under the perturbations the case applies.  Sampling positions move only
    when offset-making parameters are differenced, so the lattice margin
    is enforced just in the dedicated offset cases; positions exactly on
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


def max_rel_err(entries, loss_of, coords=None) -> tuple[float, int]:
    """Worst relative error of tape gradients against central differences.

    entries are (name, Tensor) pairs, recorded as leaves of one tape for a
    single backward pass of loss_of(values); values maps every name to a
    Tensor or Node and the loss has one element.  coords(t), if given,
    picks the flat coordinates of t to difference (default: all), each
    with the other entries at their base values.  Returns the worst
    |a - f| / max(|a|, |f|, REL_FLOOR) and the number of coordinates.
    """
    tape = T.Tape()
    leaves = {name: tape.leaf(t) for name, t in entries}
    grads = tape.backward(loss_of(leaves), T.tensor([1.0]))
    base = dict(entries)
    worst, count = 0.0, 0
    for name, t in entries:
        picked = None if coords is None else list(coords(t))
        fd = T._val(finite_diff_grad(
            lambda v, name=name: float(T._val(loss_of({**base, name: v})).reshape(-1)[0]),
            t, FD_STEP, picked)).reshape(-1)
        a = T._val(grads[leaves[name]]).reshape(-1)
        if picked is not None:
            a = a[picked]
        rel = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), REL_FLOOR)
        worst = float(np.max([worst, rel.max()]))  # a NaN error stays NaN
        count += rel.size
    return worst, count


def _at(record, path):
    for key in path:
        record = record[key] if isinstance(record, (dict, tuple)) else getattr(record, key)
    return record


def _replaced(record, path, value):
    """record with the item at path set to value; the dicts, tuples and
    dataclasses along the path are rebuilt, everything else is shared."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(record, dict):
        return {**record, key: _replaced(record[key], rest, value)}
    if isinstance(record, tuple):
        return record[:key] + (_replaced(record[key], rest, value),) + record[key + 1:]
    return replace(record, **{key: _replaced(getattr(record, key), rest, value)})


def _check_group(record, rows, loss, coords) -> dict:
    """Differences the tensors that rows (entry name, path) pick out of
    record, where loss(record) is the scalar under test."""
    entries = [(name, _at(record, path)) for name, path in rows]
    entries = [(name, t if isinstance(t, T.Tensor) else T.tensor([float(t)]))
               for name, t in entries]  # raw fusion weights are floats

    def loss_of(values):
        rec = record
        for name, path in rows:
            rec = _replaced(rec, path, values[name])
        return loss(rec)

    worst, count = max_rel_err(entries, loss_of, coords)
    return {"max_rel_err": worst, "coords": count, "pass": worst <= PASS_THRESHOLD}


def _sample_coords(rng: T.Rng, size: int, count: int) -> list:
    if size <= count:
        return list(range(size))
    picked = []
    while len(picked) < count:
        i = rng.randint(size)
        if i not in picked:
            picked.append(i)
    return picked


def _loss_of(out: dict):
    tot = None
    for lvl in (2, 3, 4, 5):
        s = T.sum_all(out[lvl])
        tot = s if tot is None else T.add(tot, s)
    return tot


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
    params = build_pipeline_params(replace(cfg, activation="none", seed=case_seed), channels)
    # The production draw keeps projections small, which squeezes the
    # affinity gaps below the absolute resampling margin.  Boost them
    # for the check; the math under test is unchanged.
    if params.bra is not None:
        boosted = {lvl: replace(bp,
                                w_q=T.tensor(T._val(bp.w_q) * 10.0),
                                w_k=T.tensor(T._val(bp.w_k) * 10.0),
                                w_v=T.tensor(T._val(bp.w_v) * 10.0))
                   for lvl, bp in params.bra.items()}
        params = replace(params, bra=boosted)
    routing = {}
    _, reason = watched(lambda: c_afbifpn_forward(backbone, params, routing=routing))
    return (params, backbone, routing), reason


def _offsets_case(seed: int):
    """Gradient through the sampling positions themselves, with an explicit
    offset field held strictly off the lattice."""
    rng = T.Rng(seed ^ 0x0FF5E75)
    x = rng.tensor([3, 5, 5], -1.0, 1.0)
    base = Conv2dParams(weights=rng.tensor([2, 3, 3, 3], -0.5, 0.5),
                        bias=rng.tensor([2], -0.1, 0.1), padding=1)
    off = T._val(rng.tensor([18, 5, 5], -0.2, 0.2)) + 0.35  # fractions in [0.15, 0.55]

    def loss(offsets):
        return T.sum_all(deformable_conv2d_with_offsets(x, base, offsets))

    if watched(lambda: loss(T.tensor(off)), lattice=True)[1] is not None:
        raise NumericError("constructed offsets sit near the lattice")
    return T.tensor(off), (("offsets", ()),), loss


def _predictor_case(case_seed: int):
    """Gradient through the offset-predicting convolution, the one chain
    where differencing a weight moves the sampling positions.  Kept at
    desk scale so a real lattice margin is attainable by reseeding."""
    rng = T.Rng(case_seed)
    x = rng.tensor([3, 6, 6], -1.0, 1.0)
    base = Conv2dParams(weights=rng.tensor([2, 3, 3, 3], -0.5, 0.5),
                        bias=rng.tensor([2], -0.1, 0.1), padding=1)
    predictor = Conv2dParams(weights=rng.tensor([18, 3, 3, 3], -0.6, 0.6),
                             bias=rng.tensor([18], -0.4, 0.4), padding=1)
    record = DeformableParams(base, predictor)

    def loss(p):
        return T.sum_all(deformable_conv2d(x, p))

    _, reason = watched(lambda: loss(record), lattice=True)
    rows = (("pred-weights", ("offset_predictor", "weights")),
            ("pred-bias", ("offset_predictor", "bias")))
    return (record, rows, loss), reason and f"predictor case: {reason}"


def _relu_case(case_seed: int):
    """Small relu-active block where the pre-activation margin is
    attainable; reseeds like the main case.  The case also carries whether
    the activated stage it differences, branch 1's 1x3 convolution, crosses
    the relu."""
    rng = T.Rng(case_seed)
    record = make_cfe_params(rng, 3, 6, activation="relu", offset_scale=1.0)
    x = rng.tensor([3, 4, 4], -1.0, 1.0)

    def loss(p):
        return T.sum_all(cfe_forward(x, p))

    _, reason = watched(lambda: loss(record))
    stage = conv2d(conv2d(x, record.branch1[0], "relu"), record.branch1[1], "relu")
    rows = (("kernel", ("branch1", 1, "weights")), ("bias", ("residual", "bias")))
    return (record, rows, loss, crosses_relu(stage)), reason and f"relu case: {reason}"


def run_gradcheck(cfg, seed: int) -> dict:
    """Check every parameter group that the config builds; returns a report
    with per-group worst relative errors.

    A group whose tensors the config leaves out (the enhancement block or
    the attention parameters of an ablation) is not checked; the dedicated
    offset, predictor and relu cases exercise the enhancement block, so
    they run only when it is enabled.  Absent groups are listed under
    "skipped", a key the report carries only when some group is absent.
    """
    events = []
    (params, backbone, routing), case_seed = first_smooth(
        lambda s: _pipeline_case(cfg, s), range(seed, seed + MAX_RESEEDS), events)
    coord_rng = T.Rng(seed ^ 0xC0FFEE)

    def coords(t):
        return _sample_coords(coord_rng, t.size, COORDS_PER_TENSOR)

    def pipeline_loss(p):
        return _loss_of(c_afbifpn_forward(backbone, p, routing=routing))

    groups, skipped = {}, []
    for name, rows in GROUPS.items():
        if any(getattr(params, path[0]) is None for _, path in rows):
            skipped.append(name)
        else:
            groups[name] = _check_group(params, rows, pipeline_loss, coords)
    if params.cfe is not None:
        # every coordinate: a fault confined to one tap's offsets shows
        groups["offsets"] = _check_group(*_offsets_case(seed), None)
        predictor, _ = first_smooth(_predictor_case,
                                    range(seed + 2000, seed + 2000 + MAX_RESEEDS), events)
        groups["offset-predictor"] = _check_group(*predictor, coords)
        (*relu, crossed), _ = first_smooth(_relu_case,
                                           range(seed + 1000, seed + 1000 + MAX_RESEEDS), events)
        groups["relu-path"] = _check_group(*relu, coords)
        if not crossed:
            groups["relu-path"].update({"pass": False,
                                        "reason": "the differenced stage does not cross the relu"})
    else:
        skipped += ["offsets", "offset-predictor", "relu-path"]

    ok = all(g["pass"] for g in groups.values())
    report = {"seed": seed, "case_seed": case_seed, "threshold": PASS_THRESHOLD,
              "resample_events": events, "groups": groups, "pass": ok}
    if skipped:
        report["skipped"] = skipped
    return report
