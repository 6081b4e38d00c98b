"""The workloads: their inputs, made from a seed and written as tensor
files, the op each one times, and the checks that prove its outputs right.

Inputs come from this module's own SplitMix64 stream and tensor-file
writer, so they do not change when the package under test does.  At
extent 64 the stream reproduces `cafbifpn gen-fixture --seed n` exactly.

The package is imported lazily (`Package`), after the caller has put the
checkout's `src` on `sys.path`.  Ops reach package functions through
module attributes at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LEVELS = (2, 3, 4, 5)
REF_TOLERANCE = 1e-10  # acceptance criterion 6
WARMUP_OPS = 2         # the first two forwards in a process run several times slower


@dataclass(frozen=True)
class Workload:
    name: str
    taped: bool          # op is a taped forward plus backward, else an untaped forward
    extent: int          # level-2 height and width; each level halves it
    widths: tuple        # backbone channels of levels 2..5
    config: dict = field(default_factory=dict)
    cli_runs: int = 17   # cold CLI forwards behind cli_forward_s


WORKLOADS = {w.name: w for w in (
    Workload("fixture64", False, 64, (16, 32, 64, 128)),
    Workload("attn256", False, 256, (16, 32, 64, 128),
             config={"regions_s": 8, "topk_k": 4, "heads": 4, "cfe_enabled": False},
             cli_runs=8),
    Workload("taped64", True, 64, (16, 32, 64, 128)),
)}


# ---------------------------------------------------------------------------
# Inputs

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix_unit(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of the SplitMix64 stream seeded with
    `seed`, as float64 uniforms in [0, 1); uint64 arithmetic wraps."""
    i = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + i * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def write_tensor(path: Path, arr: np.ndarray) -> None:
    """TNSR version 1, float64, little-endian (the package's file format)."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"TNSR" + struct.pack("<BBBB", 1, 2, arr.ndim, 0))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes())


def read_tensor(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != b"TNSR" or blob[5] != 2:
        raise ValueError(f"{path}: not a float64 tensor file")
    rank = blob[6]
    dims = struct.unpack(f"<{rank}Q", blob[8:8 + 8 * rank])
    return np.frombuffer(blob, dtype="<f8", offset=8 + 8 * rank).reshape(dims)


def make_inputs(w: Workload, seed: int, out_dir: Path) -> None:
    """One value stream from the seed, levels 2..5 in order, values 2u - 1,
    written under the names `load_backbone` reads; plus config.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    start = 0
    for lvl, c in zip(LEVELS, w.widths):
        e = w.extent >> (lvl - 2)
        n = c * e * e
        vals = 2.0 * splitmix_unit(seed, start, n) - 1.0
        start += n
        write_tensor(out_dir / f"backbone_c{lvl}.tnsr", vals.reshape(c, e, e))
    (out_dir / "config.json").write_text(json.dumps(w.config, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Package access

class Package:
    """The package modules the workloads call, imported once."""

    def __init__(self):
        import cafbifpn
        from cafbifpn import instrumentation, oracles, pipeline, reference, tensor, tensorio
        self.root = cafbifpn
        self.T = tensor
        self.IO = tensorio
        self.P = pipeline
        self.M = instrumentation
        self.O = oracles
        self.R = reference


class Setup:
    """What an op needs: the backbone read from the input files, the
    parsed config and the parameters built from it."""

    def __init__(self, pkg: Package, in_dir: Path):
        self.cfg = pkg.IO.config_parse((in_dir / "config.json").read_text())
        self.backbone = pkg.IO.load_backbone(in_dir)
        channels = {lvl: t.dims[0] for lvl, t in self.backbone.items()}
        self.params = pkg.P.build_pipeline_params(self.cfg, channels)


# ---------------------------------------------------------------------------
# Ops.  Each returns only arrays, so nothing it built (a tape in
# particular) stays reachable from the caller.

def forward_op(pkg: Package, s: Setup) -> dict:
    out = pkg.P.c_afbifpn_forward(s.backbone, s.params)
    return {f"p{lvl}": out[lvl].array for lvl in LEVELS}


def taped_op(pkg: Package, s: Setup) -> dict:
    """Taped forward with the backbone maps as leaves, then backward of the
    sum of the four outputs."""
    T = pkg.T
    tape = T.Tape()
    leaves = {lvl: tape.leaf(x) for lvl, x in s.backbone.items()}
    out = pkg.P.c_afbifpn_forward(leaves, s.params)
    loss = None
    for lvl in LEVELS:
        part = T.sum_all(out[lvl])
        loss = part if loss is None else T.add(loss, part)
    grads = tape.backward(loss, T.tensor([1.0]))
    result = {f"p{lvl}": out[lvl].value for lvl in LEVELS}
    result.update({f"grad_c{lvl}": grads[leaves[lvl]].array for lvl in LEVELS})
    return result


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of failure messages; empty means correct.

def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                               np.ascontiguousarray(b).view(np.uint64)))


def compare_results(first: dict, other: dict, what: str) -> list:
    """Bit-for-bit equality of every array in `first` with its namesake."""
    return [f"{key} differs from {what}" for key in first
            if key not in other or not same_bits(first[key], other[key])]


def check_macs(pkg: Package, s: Setup, counter) -> list:
    """count_macs() tallies of one forward against oracles.attention_flops,
    summed over the two refined levels (4, then 3), and qk, av exactly
    k/S^2 of the dense counts."""
    cfg = s.cfg
    errors = []
    if counter.ba_invocations != 2:
        errors.append(f"ba_invocations {counter.ba_invocations} != 2")
    _, h2, w2 = s.backbone[2].dims
    routed = {}
    dense = {}
    for lvl in (4, 3):
        args = (h2 >> (lvl - 2), w2 >> (lvl - 2), cfg.fusion_width, cfg.regions_s, cfg.topk_k)
        r = pkg.O.attention_flops(*args, heads=cfg.heads, mode="routed",
                                  lce_kernel=cfg.lce_kernel).as_dict()
        d = pkg.O.attention_flops(*args, heads=cfg.heads, mode="dense").as_dict()
        for key in r:
            routed[key] = routed.get(key, 0) + r[key]
            dense[key] = dense.get(key, 0) + d[key]
    counted = counter.as_dict()
    expect = {"routing": routed["routing"], "gather": routed["gather"],
              "qk": routed["qk_logits"], "av": routed["av_aggregation"],
              "lce": routed["lce"]}
    if counted != expect:
        errors.append(f"counted MACs {counted} != closed form {expect}")
    s2, k = cfg.regions_s ** 2, cfg.topk_k
    for stage, dense_key in (("qk", "qk_logits"), ("av", "av_aggregation")):
        if counted[stage] * s2 != dense[dense_key] * k:
            errors.append(f"{stage} count {counted[stage]} is not k/S^2 of dense "
                          f"{dense[dense_key]}")
    return errors


def check_reference(pkg: Package, s: Setup, outputs: dict) -> list:
    """The forward against the vectorized reference route, to criterion 6's
    tolerance."""
    ref = pkg.R.ref_c_afbifpn(s.backbone, s.params)
    errors = []
    for lvl in LEVELS:
        got = outputs[f"p{lvl}"]
        if got.shape != ref[lvl].shape:
            errors.append(f"level {lvl} dims {got.shape} != reference {ref[lvl].shape}")
            continue
        worst = float(np.max(np.abs(got - ref[lvl])))
        if not worst <= REF_TOLERANCE:  # also catches NaN
            errors.append(f"level {lvl} differs from the reference by {worst:.3e}")
    return errors


def check_cli_outputs(out_dir: Path, outputs: dict) -> list:
    """The CLI's written maps against the in-process forward, bit for bit."""
    errors = []
    for lvl in LEVELS:
        path = out_dir / f"out_p{lvl}.tnsr"
        try:
            got = read_tensor(path).astype("=f8")
        except (OSError, ValueError) as exc:
            errors.append(f"cli output {path.name}: {exc}")
            continue
        if not same_bits(got, outputs[f"p{lvl}"]):
            errors.append(f"cli output {path.name} differs from the in-process forward")
    return errors
