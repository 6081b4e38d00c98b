"""End-to-end runs of every subcommand through main(argv), asserting on
exit codes, report structure, and byte-level determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cafbifpn
from cafbifpn import attention, cli, pipeline, selfcheck
from cafbifpn import tensor as T
from cafbifpn import tensorio as IO
from cafbifpn.cli import main
from cafbifpn.selfcheck import CHECKS

from conftest import scaled_vjp, topk_ties_descending

CHECK = dict(CHECKS)


@pytest.fixture()
def default_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    return str(path)


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    assert capsys.readouterr().out == "".join(f"PASS {name}\n" for name, _ in CHECKS)


def _fuse_scaling_input_gradients(inputs, raw_weights, epsilon):
    return pipeline.fuse([scaled_vjp(x, 1.0001) for x in inputs], raw_weights, epsilon)


def _fuse_without_clamp(inputs, raw_weights, epsilon):
    """The weighted mean with negative weights left as they are."""
    ws = [T._val(pipeline._as_scalar(w)) for w in raw_weights]
    return T.tensor(sum(w * T._val(x) for w, x in zip(ws, inputs)) / (sum(ws) + epsilon))


_tensor_read = IO.tensor_read


def _tensor_read_upcasting(path):
    """Float32 files come back as float64: the values survive, the dtype
    does not.  Only the round-trip check's float32 draws can see it."""
    t = _tensor_read(path)
    return t.astype("float64") if t.dtype == "float32" else t


def _fuse_swapping_weights(inputs, raw_weights, epsilon):
    return pipeline.fuse(inputs, list(raw_weights)[::-1], epsilon)


@pytest.mark.parametrize("target, replacement, item", [
    pytest.param((attention, "_topk_indices_row"), topk_ties_descending,
                 "routing-matches-full-sort", id="routing-tie-order"),
    pytest.param((selfcheck, "fuse"), _fuse_scaling_input_gradients,
                 "op-gradients-match-finite-differences", id="fuse-input-gradient"),
    pytest.param((selfcheck, "fuse"), _fuse_without_clamp,
                 "fusion-clamps-negative-weights", id="fuse-without-clamp"),
    pytest.param((IO, "tensor_read"), _tensor_read_upcasting,
                 "tensor-file-round-trip", id="float32-read-as-float64"),
    pytest.param((selfcheck, "fuse"), _fuse_swapping_weights,
                 "fusion-epsilon-limit", id="fuse-swapping-weights"),
])
def test_selfcheck_reports_injected_fault(monkeypatch, target, replacement, item):
    """Each planted fault fails the selfcheck item that targets it; the
    routing fault also runs the whole suite through the CLI, which exits 1
    with that item's FAIL line."""
    monkeypatch.setattr(*target, replacement)
    with pytest.raises(AssertionError):
        CHECK[item]()


def test_selfcheck_cli_prints_the_fail_line_of_a_fault(capsys, monkeypatch):
    """The CLI runs the suite past a failed item and exits 1 with its FAIL
    line; the suite is cut to its two routing items (test_selfcheck_passes
    runs all of them)."""
    monkeypatch.setattr(attention, "_topk_indices_row", topk_ties_descending)
    monkeypatch.setattr(selfcheck, "CHECKS", [c for c in CHECKS if c[0].startswith("routing-")])
    assert main(["selfcheck"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL routing-matches-full-sort: ")
    assert lines[1:] == ["PASS routing-permutation-equivariance"]


def test_forward_report(capsys, tmp_path, default_cfg, fixture_dir):
    out_dir = tmp_path / "out"
    rc = main(["forward", "--config", default_cfg,
               "--input", str(fixture_dir), "--output", str(out_dir)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ba_invocations"] == 2
    assert sorted(report["mac"].keys()) == ["av", "gather", "lce", "qk", "routing"]
    for lvl in (2, 3, 4, 5):
        stats = report["levels"][str(lvl)]
        assert stats["dims"] == [48, 64 >> (lvl - 2), 64 >> (lvl - 2)]
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["l2"] >= 0.0
        assert (out_dir / f"out_p{lvl}.tnsr").exists()


def test_forward_byte_deterministic(capsys, tmp_path, default_cfg, fixture_dir):
    outs = []
    for name in ("a", "b"):
        rc = main(["forward", "--config", default_cfg,
                   "--input", str(fixture_dir), "--output", str(tmp_path / name)])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert ((tmp_path / "a" / "out_p3.tnsr").read_bytes()
            == (tmp_path / "b" / "out_p3.tnsr").read_bytes())


def test_forward_ablated_runs_no_attention(capsys, tmp_path, fixture_dir):
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps({"cfe_enabled": False,
                               "attention_fusion_enabled": False}))
    rc = main(["forward", "--config", cfg.as_posix(),
               "--input", str(fixture_dir), "--output", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ba_invocations"] == 0
    assert report["mac"]["qk"] == 0


def test_forward_missing_inputs_exit_2(capsys, tmp_path, default_cfg):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["forward", "--config", default_cfg,
               "--input", str(empty), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert "backbone_c2.tnsr" in capsys.readouterr().err


def test_forward_invalid_config_exit_2(capsys, tmp_path, fixture_dir):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"fusion_width": 10}')
    rc = main(["forward", "--config", cfg.as_posix(),
               "--input", str(fixture_dir), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert "fusion_width" in capsys.readouterr().err


@pytest.mark.parametrize("text, rule", [
    ("[" * 100000, "not valid JSON"),
    ('{"seed": ' + "1" * 5000 + "}", "not valid JSON"),
    ('{"epsilon": Infinity}', "epsilon finite"),
    ('{"epsilon": 1e400}', "epsilon finite"),
    ('{"epsilon": 1' + "0" * 400 + "}", "epsilon finite"),
    ('{"fusion_width": 3000000000000000000000000000000}', "fusion_width^2 fits in one numpy array"),
    ('{"lce_kernel": 100000000001}', "fusion_width * lce_kernel^2 fits in one numpy array"),
    ('{"dilation": 1000000000000}', "dilation < 64, the largest loaded extent"),
], ids=["nested-past-parser-depth", "integer-past-digit-limit", "epsilon-infinity",
        "epsilon-overflowing-float", "epsilon-integer-beyond-float-range",
        "fusion-width-past-array-size", "lce-kernel-past-array-size", "dilation-past-extents"])
def test_forward_config_boundary_exit_2(capsys, tmp_path, fixture_dir, text, rule):
    cfg = tmp_path / "edge.json"
    cfg.write_text(text)
    rc = main(["forward", "--config", str(cfg),
               "--input", str(fixture_dir), "--output", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert rule in captured.err
    assert not (tmp_path / "out").exists()


def test_forward_extent_problems_exit_2(capsys, tmp_path, default_cfg, fixture_dir):
    """Level extents that do not halve are an input problem; a region grid
    that does not tile a refined level is a config problem.  Both exit 2."""
    maps = tmp_path / "maps"
    shutil.copytree(fixture_dir, maps)
    c2 = IO.tensor_read(maps / "backbone_c2.tnsr").array
    IO.tensor_write(maps / "backbone_c2.tnsr", T.tensor(c2[:, :62, :62]))
    rc = main(["forward", "--config", default_cfg, "--input", str(maps),
               "--output", str(tmp_path / "a")])
    assert rc == 2
    assert ("level 3 extents 32x32 do not halve the previous level's 62x62"
            in capsys.readouterr().err)

    cfg = tmp_path / "s3.json"
    cfg.write_text(json.dumps({"regions_s": 3, "topk_k": 2}))
    rc = main(["forward", "--config", str(cfg), "--input", str(fixture_dir),
               "--output", str(tmp_path / "b")])
    assert rc == 2
    assert ("level-4 refinement: region grid 3x3 does not tile H=16, W=16"
            in capsys.readouterr().err)
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_cli_import_leaves_check_routes_unloaded():
    """A cold `import cafbifpn.cli` (what `cafbifpn forward` pays for)
    loads none of the check routes; the commands that use them import them."""
    src = str(Path(cafbifpn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import sys, cafbifpn.cli; print(sorted(m for m in sys.modules if m in "
            "('cafbifpn.selfcheck', 'cafbifpn.gradcheck', 'cafbifpn.oracles', "
            "'cafbifpn.reference')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert cafbifpn.run_selfcheck is cafbifpn.selfcheck.run_selfcheck


def test_missing_config_file_exit_2(capsys, tmp_path, fixture_dir):
    absent = str(tmp_path / "absent.json")
    for argv in (["forward", "--config", absent, "--input", str(fixture_dir),
                  "--output", str(tmp_path / "out")],
                 ["gradcheck", "--config", absent]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, argv[0]
        assert captured.out == ""
        assert f"config file not found: {absent}" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["minus-one", "two-to-the-64"])
@pytest.mark.parametrize("command", ["gen-fixture", "gradcheck"])
def test_seed_flag_outside_u64_exit_2(capsys, tmp_path, default_cfg, command, seed):
    """A --seed is held to the config's seed rule: -1 and 2^64 would wrap
    to valid streams and be reported under a seed that never ran."""
    argv = {"gen-fixture": ["gen-fixture", "--out", str(tmp_path / "fx")],
            "gradcheck": ["gradcheck", "--config", default_cfg]}[command]
    rc = main(argv + ["--seed", str(seed)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"--seed violates seed fits in u64 (0 <= seed < 2^64): got {seed}" in captured.err
    assert not (tmp_path / "fx").exists()


def test_out_of_memory_exit_1_without_traceback(tmp_path, fixture_dir):
    """An allocation that the config bounds allow but the address space
    does not ends in one classified line.  The child runs under an
    RLIMIT_AS of 2 GB, so drawing the width-30000 parameters fails there
    instead of being probed in this process."""
    resource = pytest.importorskip("resource")
    limit = 2_000_000 * 1024
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"fusion_width": 30000}))
    src = str(Path(cafbifpn.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "cafbifpn.cli", "forward", "--config", str(cfg),
                           "--input", str(fixture_dir), "--output", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory: ")
    assert done.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_gradcheck_cli(capsys, default_cfg):
    rc = main(["gradcheck", "--config", default_cfg, "--seed", "7"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["threshold"] == 1e-5
    assert len(report["groups"]) == 7
    assert report["skipped"] == ["projections"]
    for group in report["groups"].values():
        assert group["max_rel_err"] <= 1e-5


@pytest.mark.parametrize("overrides, skipped", [
    ({"attention_fusion_enabled": False}, ["projections", "bra-projections", "lce"]),
    ({"cfe_enabled": False},
     ["cfe-kernels", "cfe-biases", "offset-predictor", "relu-path"]),
])
def test_gradcheck_ablation_reports_present_groups(capsys, tmp_path, overrides, skipped):
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(overrides))
    rc = main(["gradcheck", "--config", str(cfg), "--seed", "7"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["skipped"] == skipped
    assert "fusion-weights" in report["groups"]
    assert len(report["groups"]) + len(skipped) == 8
    assert not set(skipped) & set(report["groups"])


# the smallest regions_s whose [fusion_width, 8S, 8S] map is past numpy's
# array size at the default fusion_width; one less would be accepted
_FIRST_REFUSED_S = math.isqrt(IO._MAX_VALUES // (IO.RunConfig().fusion_width * 64)) + 1


@pytest.mark.parametrize("regions_s", [1000000000000, _FIRST_REFUSED_S],
                         ids=["one-trillion", "first-past-array-size"])
def test_gradcheck_refuses_unallocatable_regions_s_exit_2(capsys, tmp_path, regions_s):
    """The gradient check's desk maps are 8*regions_s square; a value whose
    level-2 map cannot be one numpy array is refused before anything is
    drawn (values just inside the bound would allocate, so none is run)."""
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"regions_s": regions_s, "topk_k": 1}))
    rc = main(["gradcheck", "--config", str(cfg), "--seed", "7"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"got regions_s {regions_s}" in captured.err
    assert "fusion_width * (8 * regions_s)^2 fits in one numpy array" in captured.err


@pytest.mark.parametrize("overrides", [{}, {"attention_fusion_enabled": False}])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forward_rejects_non_finite_input_exit_2(capsys, tmp_path, fixture_dir, overrides, bad):
    maps = tmp_path / "maps"
    shutil.copytree(fixture_dir, maps)
    c3 = IO.tensor_read(maps / "backbone_c3.tnsr").array.copy()
    c3[5, 7, 11] = bad
    IO.tensor_write(maps / "backbone_c3.tnsr", T.tensor(c3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    rc = main(["forward", "--config", str(cfg), "--input", str(maps),
               "--output", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "backbone_c3.tnsr (level 3)" in captured.err
    assert "non-finite" in captured.err
    assert not (tmp_path / "out").exists()


def test_forward_upcasts_float32_input_maps(capsys, tmp_path, default_cfg, fixture_dir):
    """float32 maps run as their exact float64 values: the report and maps
    equal those of float64 files holding the same numbers."""
    reports = []
    for dtype in ("float32", "float64"):
        maps = tmp_path / dtype
        maps.mkdir()
        for lvl in (2, 3, 4, 5):
            name = f"backbone_c{lvl}.tnsr"
            narrow = IO.tensor_read(fixture_dir / name).astype("float32")
            IO.tensor_write(maps / name, narrow.astype(dtype))
        assert IO.tensor_read(maps / "backbone_c2.tnsr").dtype == dtype
        rc = main(["forward", "--config", default_cfg, "--input", str(maps),
                   "--output", str(tmp_path / f"out-{dtype}")])
        assert rc == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    for lvl in (2, 3, 4, 5):
        name = f"out_p{lvl}.tnsr"
        assert (tmp_path / "out-float32" / name).read_bytes() == \
            (tmp_path / "out-float64" / name).read_bytes()


def _scaled_fixture(fixture_dir, out: Path, factor: float) -> Path:
    """The fixture's four maps times factor, written to out."""
    out.mkdir()
    for lvl in (2, 3, 4, 5):
        name = f"backbone_c{lvl}.tnsr"
        IO.tensor_write(out / name, T.tensor(IO.tensor_read(fixture_dir / name).array * factor))
    return out


def test_forward_of_huge_maps_casts_no_far_sampling_position(capsys, tmp_path, default_cfg,
                                                             fixture_dir):
    """The fixture times 1e150 predicts sampling positions near 1e149, far
    off every map; they are clipped before the cast to integer corners, so
    the forward exits 0 without a RuntimeWarning, even as an error."""
    maps = _scaled_fixture(fixture_dir, tmp_path / "huge", 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["forward", "--config", default_cfg, "--input", str(maps),
                   "--output", str(tmp_path / "out")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ba_invocations"] == 2


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
def test_forward_of_overflowing_maps_names_the_node(capsys, tmp_path, default_cfg, fixture_dir,
                                                    monkeypatch, pooled):
    """The fixture times 1e200 overflows the level-4 routing affinity and
    attention logits.  With every warning raised as an error, forward
    exits 1 with one classified line naming the node, and no traceback;
    with every warning recorded, no thread has issued one.  Pooled, with
    one attention block per stack, most logits are computed on worker
    threads, whose numpy error state is their own."""
    if pooled:
        monkeypatch.setattr(T, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(T, "_allowed_cpus", lambda: 3)
        monkeypatch.setattr(attention, "_STACK_BYTES", 0)
    maps = _scaled_fixture(fixture_dir, tmp_path / "huge", 1e200)
    for action in ("error", "always"):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action)
            rc = main(["forward", "--config", default_cfg, "--input", str(maps),
                       "--output", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: node level-4 refinement: softmax input contains non-finite values"]
        assert seen == []
    assert not (tmp_path / "out").exists()


def test_forward_non_finite_report_exits_1_without_writing(capsys, tmp_path, default_cfg,
                                                           fixture_dir, monkeypatch):
    def poisoned(backbone, params):
        return {lvl: T.full([2, 2, 2], np.nan) for lvl in (2, 3, 4, 5)}

    monkeypatch.setattr(cli, "c_afbifpn_forward", poisoned)
    rc = main(["forward", "--config", default_cfg, "--input", str(fixture_dir),
               "--output", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "non-finite" in captured.err
    assert not (tmp_path / "out").exists()


def test_forward_bytes_do_not_depend_on_blas_threads(tmp_path, fixture_dir):
    """Two cold `forward` runs, one BLAS thread against the default count,
    report and maps byte-identical: at S=8, k=4 with 4 heads, and at
    fusion width 144, where OpenBLAS's own products of large inner extent
    sum differently at one thread and at two."""
    src = str(Path(cafbifpn.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = src + os.pathsep + base.get("PYTHONPATH", "")
    for i, config in enumerate(({"regions_s": 8, "topk_k": 4, "heads": 4}, {"fusion_width": 144})):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(config))
        runs = []
        for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
            out = tmp_path / f"{name}{i}"
            done = subprocess.run([sys.executable, "-m", "cafbifpn.cli", "forward",
                                   "--config", str(cfg), "--input", str(fixture_dir),
                                   "--output", str(out)],
                                  env={**base, **extra}, capture_output=True, timeout=300)
            assert done.returncode == 0, done.stderr.decode()
            runs.append((done.stdout, [(out / f"out_p{lvl}.tnsr").read_bytes()
                                       for lvl in (2, 3, 4, 5)]))
        assert json.loads(runs[0][0])["ba_invocations"] == 2
        assert runs[0] == runs[1], config


def test_gen_fixture_cli(capsys, tmp_path):
    out = tmp_path / "fx"
    rc = main(["gen-fixture", "--seed", "5", "--out", str(out)])
    assert rc == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["seed"] == 5
    for entry in manifest["files"]:
        assert (out / entry["name"]).exists()


def test_unknown_command_usage_error():
    # bench was a command; timing now lives in perfbench/run.py
    for argv in (["frobnicate"], ["bench", "--config", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_missing_required_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--config", "x"])
    assert exc.value.code == 2
