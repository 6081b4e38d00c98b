import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cafbifpn import tensor as T
from cafbifpn.errors import ConfigError, FormatError
from cafbifpn.tensorio import (FIXTURE_DIMS, RunConfig, config_check_extents,
                               config_parse, config_validate, gen_fixture, load_backbone,
                               tensor_read, tensor_write)


# -- tensor files --------------------------------------------------------

@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.sampled_from(["float32", "float64"]),
       st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_round_trip_bit_identical(tmp_path_factory, dims, dtype, seed):
    path = tmp_path_factory.mktemp("rt") / "t.tnsr"
    t = T.Rng(seed).tensor(dims, -3.0, 3.0).astype(dtype)
    tensor_write(path, t)
    back = tensor_read(path)
    assert back.dtype == dtype
    assert np.array_equal(back.array, t.array)
    first = path.read_bytes()
    tensor_write(path, back)
    assert path.read_bytes() == first


def _good_bytes(tmp_path):
    path = tmp_path / "g.tnsr"
    tensor_write(path, T.Rng(5).tensor([2, 3], -1.0, 1.0))
    return path, bytearray(path.read_bytes())


@pytest.mark.parametrize("mutate,offset_word", [
    (lambda b: b[:5], "offset 0"),                          # header cut short
    (lambda b: b"XXXX" + bytes(b[4:]), "bad magic"),
    (lambda b: b[:4] + bytes([9]) + bytes(b[5:]), "version"),
    (lambda b: b[:5] + bytes([7]) + bytes(b[6:]), "dtype"),
    (lambda b: b[:7] + bytes([1]) + bytes(b[8:]), "reserved"),
    (lambda b: b[:12], "extent bytes"),                     # rank 2 needs 16
    (lambda b: b[:-8], "payload"),
    (lambda b: bytes(b) + b"\x00" * 4, "payload"),
])
def test_malformed_files_rejected(tmp_path, mutate, offset_word):
    path, blob = _good_bytes(tmp_path)
    path.write_bytes(bytes(mutate(blob)))
    with pytest.raises(FormatError, match=offset_word):
        tensor_read(path)


def test_zero_extent_rejected(tmp_path):
    path, blob = _good_bytes(tmp_path)
    blob[8:16] = (0).to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="extents"):
        tensor_read(path)


def test_errors_name_byte_offsets(tmp_path):
    path, blob = _good_bytes(tmp_path)
    path.write_bytes(bytes(blob[:-8]))
    with pytest.raises(FormatError, match=r"offset 24"):
        tensor_read(path)


def test_rank_zero_rejected(tmp_path):
    path = tmp_path / "r0.tnsr"
    path.write_bytes(b"TNSR" + bytes([1, 2, 0, 0]) + np.float64(3.0).tobytes())
    with pytest.raises(FormatError, match="offset 6: rank 0"):
        tensor_read(path)


_HEADED = st.builds(lambda code, rank, tail: b"TNSR\x01" + bytes([code, rank, 0]) + tail,
                    st.integers(0, 3), st.integers(0, 3), st.binary(max_size=48))


@given(st.binary(max_size=64) | _HEADED)
@settings(max_examples=300, deadline=None)
def test_any_bytes_read_or_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "t.tnsr"
    path.write_bytes(blob)
    try:
        t = tensor_read(path)
    except FormatError:
        return
    tensor_write(path, t)  # whatever reads back must round-trip exactly
    assert path.read_bytes() == blob


# -- run configuration ---------------------------------------------------

def test_empty_config_is_defaults():
    assert config_parse("{}") == RunConfig()


def test_config_round_trips_every_field():
    text = json.dumps({"regions_s": 4, "topk_k": 8, "heads": 2,
                       "fusion_width": 12, "epsilon": 0.01, "dilation": 1,
                       "lce_kernel": 3, "cfe_enabled": False,
                       "attention_fusion_enabled": False, "seed": 9})
    cfg = config_parse(text)
    assert cfg == RunConfig(regions_s=4, topk_k=8, heads=2, fusion_width=12,
                            epsilon=0.01, dilation=1, lce_kernel=3, cfe_enabled=False,
                            attention_fusion_enabled=False, seed=9)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: nope"):
        config_parse('{"nope": 1}')
    with pytest.raises(ConfigError, match="unknown config keys: topdown_source"):
        config_parse('{"topdown_source": "input"}')  # a removed key
    with pytest.raises(ConfigError, match="unknown config keys: activation"):
        config_parse('{"activation": "relu"}')  # a removed key


def test_config_rejects_non_object():
    with pytest.raises(ConfigError):
        config_parse("[1, 2]")
    with pytest.raises(ConfigError):
        config_parse("{not json")


def test_config_type_guards():
    with pytest.raises(ConfigError, match="must be an integer"):
        config_parse('{"heads": true}')
    with pytest.raises(ConfigError, match="must be an integer"):
        config_parse('{"seed": "7"}')
    with pytest.raises(ConfigError, match="must be a boolean"):
        config_parse('{"cfe_enabled": 1}')
    with pytest.raises(ConfigError, match="must be a number"):
        config_parse('{"epsilon": "small"}')


@pytest.mark.parametrize("overrides,rule", [
    ({"regions_s": 0}, "regions_s >= 1"),
    ({"topk_k": 0}, "topk_k >= 1"),
    ({"regions_s": 2, "topk_k": 5}, "topk_k <= regions_s"),
    ({"heads": 0}, "heads >= 1"),
    ({"fusion_width": 0}, "fusion_width >= 3"),
    ({"fusion_width": 10}, "fusion_width % 3"),
    ({"fusion_width": 9, "heads": 2}, "heads divides fusion_width"),
    ({"epsilon": -1.0}, "epsilon >= 0"),
    ({"dilation": 0}, "dilation >= 1"),
    ({"lce_kernel": 4}, "lce_kernel odd"),
    ({"lce_kernel": -1}, "lce_kernel odd and >= 1"),
    ({"seed": -1}, "seed fits"),
])
def test_config_invariants_enforced(overrides, rule):
    with pytest.raises(ConfigError, match=rule):
        config_parse(json.dumps(overrides))


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=8)
_CONFIG_VALUES = st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)]),
                                 _JSON, max_size=4)


@given(st.text(max_size=64) | _CONFIG_VALUES.map(json.dumps) | _JSON.map(json.dumps))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_config_error(text):
    try:
        cfg = config_parse(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig) and math.isfinite(cfg.epsilon)


def test_extent_bounds_accept_the_last_value_and_refuse_the_next():
    backbone = {lvl: T.zeros([1, 64 >> (lvl - 2), 64 >> (lvl - 2)]) for lvl in (2, 3, 4, 5)}
    cfg = RunConfig()
    for key, last, refused in (("dilation", 63, 64), ("lce_kernel", 63, 65)):
        config_check_extents(replace(cfg, **{key: last}), backbone)
        with pytest.raises(ConfigError, match=key):
            config_check_extents(replace(cfg, **{key: refused}), backbone)
    # a stage that is off does not use its value, so it is not bounded
    config_check_extents(replace(cfg, dilation=64, cfe_enabled=False), backbone)
    config_check_extents(replace(cfg, lce_kernel=65, attention_fusion_enabled=False), backbone)
    # a map that is not [C, H, W] bounds nothing; the forward rejects it
    config_check_extents(cfg, {**backbone, 2: T.zeros([64, 64])})


def test_validate_accepts_defaults():
    assert config_validate(RunConfig()) == RunConfig()


# -- fixture generation --------------------------------------------------

def test_fixture_dims_and_manifest(fixture_dir):
    maps = load_backbone(fixture_dir)
    manifest = json.loads((fixture_dir / "manifest.json").read_text())
    assert sorted(manifest.keys()) == ["files", "seed"]
    assert manifest["seed"] == 0
    assert [e["level"] for e in manifest["files"]] == [2, 3, 4, 5]
    for lvl, dims in FIXTURE_DIMS.items():
        assert maps[lvl].dims == dims
        va = maps[lvl].array
        assert va.min() > -1.0 and va.max() < 1.0


def test_load_backbone_needs_no_manifest(tmp_path):
    gen_fixture(1, tmp_path)
    (tmp_path / "manifest.json").unlink()
    maps = load_backbone(tmp_path)
    assert sorted(maps.keys()) == [2, 3, 4, 5]


def test_load_backbone_names_missing_file(tmp_path):
    gen_fixture(1, tmp_path)
    (tmp_path / "backbone_c3.tnsr").unlink()
    with pytest.raises(FormatError, match="backbone_c3.tnsr"):
        load_backbone(tmp_path)
