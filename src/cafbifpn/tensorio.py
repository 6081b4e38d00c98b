"""Bit-exact tensor files, flat JSON run configuration, and deterministic
fixture generation.

File layout: magic "TNSR", version byte 1, dtype byte (1 float32,
2 float64), rank byte (at least 1), reserved zero byte, then rank u64
little-endian extents, then the row-major payload little-endian.  Every
malformed input is a FormatError naming the byte offset.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, FormatError

_MAGIC = b"TNSR"
_VERSION = 1
_DTYPE_CODE = {"float32": 1, "float64": 2}
_CODE_DTYPE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def tensor_write(path, t: T.Tensor) -> None:
    arr = t.array
    code = _DTYPE_CODE[t.dtype]
    dims = arr.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BBBB", _VERSION, code, len(dims), 0))
        fh.write(struct.pack(f"<{len(dims)}Q", *dims))
        fh.write(np.ascontiguousarray(arr, dtype=_CODE_DTYPE[code]).data)


def tensor_read(path) -> T.Tensor:
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise FormatError(f"offset 0: header needs 8 bytes, file has {len(blob)}")
    if blob[:4] != _MAGIC:
        raise FormatError(f"offset 0: bad magic {blob[:4]!r}")
    version, code, rank, reserved = struct.unpack("<BBBB", blob[4:8])
    if version != _VERSION:
        raise FormatError(f"offset 4: unsupported version {version}")
    if code not in _CODE_DTYPE:
        raise FormatError(f"offset 5: unknown dtype code {code}")
    if rank == 0:
        raise FormatError("offset 6: rank 0, want at least 1 (a scalar has dims [1])")
    if reserved != 0:
        raise FormatError(f"offset 7: reserved byte is {reserved}, want 0")
    dims_end = 8 + 8 * rank
    if len(blob) < dims_end:
        raise FormatError(f"offset 8: rank {rank} needs {8 * rank} extent bytes, "
                          f"file has {len(blob) - 8} after the header")
    dims = struct.unpack(f"<{rank}Q", blob[8:dims_end])
    if any(d < 1 for d in dims):
        raise FormatError(f"offset 8: extents must all be >= 1, got {list(dims)}")
    dt = _CODE_DTYPE[code]
    count = 1
    for d in dims:
        count *= d
    expected = count * dt.itemsize
    actual = len(blob) - dims_end
    if actual != expected:
        raise FormatError(f"offset {dims_end}: payload is {actual} bytes, want {expected}")
    arr = np.frombuffer(blob, dtype=dt, count=count, offset=dims_end)
    # astype makes the one native-order copy the tensor then owns
    return T.Tensor(arr.reshape(dims).astype(arr.dtype.newbyteorder("=")), copy=False)


@dataclass(frozen=True)
class RunConfig:
    regions_s: int = 2
    topk_k: int = 2
    heads: int = 1
    fusion_width: int = 48
    epsilon: float = 1e-4
    dilation: int = 2
    lce_kernel: int = 5
    activation: str = "relu"
    cfe_enabled: bool = True
    attention_fusion_enabled: bool = True
    seed: int = 0


# The most float64 values one numpy array can hold: its byte count must fit
# in a signed pointer-sized integer.
_MAX_VALUES = np.iinfo(np.intp).max // 8


def config_validate(cfg: RunConfig) -> RunConfig:
    def want(cond: bool, rule: str):
        if not cond:
            raise ConfigError(f"config violates {rule}")

    want(cfg.regions_s >= 1, "regions_s >= 1")
    want(cfg.topk_k >= 1, "topk_k >= 1")
    want(cfg.topk_k <= cfg.regions_s ** 2, "topk_k <= regions_s^2")
    want(cfg.heads >= 1, "heads >= 1")
    want(cfg.fusion_width >= 3, "fusion_width >= 3")
    want(cfg.fusion_width % 3 == 0, "fusion_width % 3 == 0")
    want(cfg.fusion_width % cfg.heads == 0, "heads divides fusion_width")
    want(cfg.epsilon >= 0.0, "epsilon >= 0")
    want(math.isfinite(cfg.epsilon), "epsilon finite")
    want(cfg.dilation >= 1, "dilation >= 1")
    want(cfg.lce_kernel >= 1 and cfg.lce_kernel % 2 == 1, "lce_kernel odd and >= 1")
    # the [width, width] attention projections and the [width, k, k]
    # local-context kernel are the widest parameter arrays
    want(cfg.fusion_width ** 2 <= _MAX_VALUES, "fusion_width^2 fits in one numpy array")
    want(cfg.fusion_width * cfg.lce_kernel ** 2 <= _MAX_VALUES,
         "fusion_width * lce_kernel^2 fits in one numpy array")
    want(cfg.activation in ("none", "relu"), "activation in {none, relu}")
    check_seed(cfg.seed, "config")
    return cfg


def check_seed(seed: int, source: str) -> int:
    """The one seed rule, for the config key and the --seed flags alike."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{source} violates seed fits in u64 (0 <= seed < 2^64): got {seed}")
    return seed


def config_check_extents(cfg: RunConfig, backbone: dict) -> None:
    """Bounds that depend on the loaded maps {level: [C, H, W]}.  A
    dilation or a local-context kernel radius of at least a map's largest
    extent puts taps in the zero padding at every position of that map;
    past the largest map that feeds each, the value is refused.  Maps
    that are not [C, H, W] are left for the forward to reject."""
    def extent(levels):
        return max((max(backbone[lvl].dims[1:]) for lvl in levels
                    if len(backbone[lvl].dims) == 3), default=math.inf)

    if cfg.cfe_enabled and cfg.dilation >= extent((2, 3, 4, 5)):
        raise ConfigError(f"config violates dilation < {extent((2, 3, 4, 5))}, the largest "
                          f"loaded extent: got {cfg.dilation}")
    if cfg.attention_fusion_enabled and (cfg.lce_kernel - 1) // 2 >= extent((3, 4)):
        raise ConfigError(f"config violates (lce_kernel - 1) / 2 < {extent((3, 4))}, the largest "
                          f"refined extent: got lce_kernel {cfg.lce_kernel}")


def config_parse(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep or too many digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a flat JSON object, got {type(raw).__name__}")
    kinds = {f.name: type(f.default) for f in fields(RunConfig)}
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    vals = {}
    for key, value in raw.items():
        if kinds[key] is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"config key {key} must be an integer, got {value!r}")
        elif kinds[key] is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key} must be a boolean, got {value!r}")
        elif kinds[key] is str:
            if not isinstance(value, str):
                raise ConfigError(f"config key {key} must be a string, got {value!r}")
        else:  # epsilon
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config key {key} must be a number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
        vals[key] = value
    return config_validate(RunConfig(**vals))


FIXTURE_DIMS = {2: (16, 64, 64), 3: (32, 32, 32), 4: (64, 16, 16), 5: (128, 8, 8)}

_FIXTURE_NAMES = {lvl: f"backbone_c{lvl}.tnsr" for lvl in (2, 3, 4, 5)}


def gen_fixture(seed: int, out_dir) -> dict:
    """Write the four backbone maps plus a manifest; one value stream from
    the seed, levels in ascending order, values 2u - 1 in (-1, 1)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = T.Rng(seed)
    entries = []
    for lvl in (2, 3, 4, 5):
        dims = FIXTURE_DIMS[lvl]
        t = rng.tensor(dims, -1.0, 1.0)
        name = _FIXTURE_NAMES[lvl]
        tensor_write(out / name, t)
        entries.append({"name": name, "level": lvl, "dims": list(dims)})
    manifest = {"seed": int(seed), "files": entries}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def load_backbone(in_dir) -> dict:
    """Read the four per-level input maps by their conventional names; no
    manifest needed, so any directory holding the files works.  A float32
    map is upcast to float64, the compute dtype, which is exact.  A map
    holding a NaN or an infinity is rejected, naming its file and level."""
    maps = {}
    for lvl, name in _FIXTURE_NAMES.items():
        path = Path(in_dir) / name
        if not path.exists():
            raise FormatError(f"missing input map {name} in {in_dir}")
        maps[lvl] = tensor_read(path)
        if maps[lvl].dtype != "float64":
            maps[lvl] = maps[lvl].astype("float64")
        if not np.isfinite(maps[lvl].array).all():
            raise FormatError(f"input map {name} (level {lvl}) in {in_dir} "
                              "holds non-finite values")
    return maps
