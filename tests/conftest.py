from dataclasses import replace

import numpy as np
import pytest

from cafbifpn import tensor as T
from cafbifpn import tensorio as IO
from cafbifpn.convops import conv2d
from cafbifpn.pipeline import build_pipeline_params, c_afbifpn_forward
from cafbifpn.reference import ref_afbifpn, ref_c_afbifpn


def arr(x) -> np.ndarray:
    if isinstance(x, (T.Tensor, T.Node)):
        return np.asarray(T._val(x), dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def max_abs_diff(a, b) -> float:
    da, db = arr(a), arr(b)
    assert da.shape == db.shape, f"shape mismatch {da.shape} vs {db.shape}"
    return float(np.max(np.abs(da - db))) if da.size else 0.0


def tiny_cfg(**overrides) -> IO.RunConfig:
    """The desk-scale config: fusion width 6, seed 80, local-context kernel
    3, with overrides on top."""
    return replace(IO.RunConfig(), **{"fusion_width": 6, "seed": 80, "lce_kernel": 3, **overrides})


def tiny_pyramid(seed: int):
    """(channels, maps): backbone widths 3, 3, 4, 4 drawn from seed, level 2
    at 16 pixels, extents halving per level."""
    channels = {2: 3, 3: 3, 4: 4, 5: 4}
    rng = T.Rng(seed)
    return channels, {lvl: rng.tensor([c, 16 >> (lvl - 2), 16 >> (lvl - 2)], -1.0, 1.0)
                      for lvl, c in channels.items()}


def pyramid_params(maps, cfg):
    return build_pipeline_params(cfg, {lvl: t.dims[0] for lvl, t in maps.items()})


def plain_reduction_error(maps, cfg) -> float:
    """Worst abs diff between the pyramid (run with cfg, which should have
    enhancement and attention off) and the plain weighted-fusion reference
    fed the projected maps."""
    params = pyramid_params(maps, IO.config_validate(cfg))
    out = c_afbifpn_forward(maps, params)
    ref = ref_afbifpn({lvl: conv2d(maps[lvl], params.projection[lvl])
                       for lvl in (2, 3, 4, 5)}, params)
    return max(max_abs_diff(out[lvl], ref[lvl]) for lvl in (2, 3, 4, 5))


def full_forward_error(maps, cfg) -> float:
    """Worst abs diff between the full pyramid and the stage-by-stage
    reference composition."""
    params = pyramid_params(maps, cfg)
    out, ref = c_afbifpn_forward(maps, params), ref_c_afbifpn(maps, params)
    return max(max_abs_diff(out[lvl], ref[lvl]) for lvl in (2, 3, 4, 5))


def assert_reruns_byte_identical(maps, cfg, tmp_path):
    """Two forwards with the same parameters write byte-identical files."""
    params = pyramid_params(maps, cfg)
    runs = []
    for _ in range(2):
        out = c_afbifpn_forward(maps, params)
        for lvl in (2, 3, 4, 5):
            IO.tensor_write(tmp_path / f"p{lvl}.tnsr", out[lvl])
        runs.append([(tmp_path / f"p{lvl}.tnsr").read_bytes() for lvl in (2, 3, 4, 5)])
    assert runs[0] == runs[1]


def topk_ties_descending(row, k: int) -> np.ndarray:
    """A deliberately wrong routing selection: ties broken by descending
    region id instead of ascending.  Tests patch it over
    attention._topk_indices_row to show the checks catch it."""
    order = sorted(range(len(row)), key=lambda i: (-row[i], -i))
    return np.asarray(order[:k], dtype=np.int64)


def scaled_vjp(a, factor):
    """a unchanged on the forward, its gradient times factor on the
    backward: a deliberately wrong VJP that tests put in front of an
    operand to show the gradient checks catch it."""
    return T._emit((a,), T._val(a).copy(), lambda g: (g * factor,))


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixture")
    IO.gen_fixture(0, d)
    return d
