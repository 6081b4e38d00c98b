"""The release gate: ten numbered criteria, each printing one PASS or FAIL
line to the terminal (capture is suspended for the line) with its wall time.
Every criterion re-derives its expectation from an independent route; none
reuses the implementation under test as its own oracle."""

import contextlib
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from cafbifpn import tensor as T
from cafbifpn.attention import ba_forward, make_bra_params
from cafbifpn.convops import Conv2dParams, DeformableParams, conv2d, deformable_conv2d
from cafbifpn.errors import FormatError
from cafbifpn.gradcheck import run_gradcheck
from cafbifpn.instrumentation import count_macs
from cafbifpn.oracles import (attention_flops, conv2d_reference,
                              dense_attention_reference)
from cafbifpn.pipeline import build_pipeline_params, c_afbifpn_forward, fuse
from cafbifpn.reference import ref_afbifpn, ref_c_afbifpn
from cafbifpn.tensorio import (RunConfig, config_validate, load_backbone,
                               tensor_read, tensor_write)

from conftest import arr, max_abs_diff


@contextlib.contextmanager
def _criterion(capfd, n: int, label: str, budget=None):
    t0 = time.perf_counter()
    info = {}
    try:
        yield info
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"took {elapsed:.2f}s, budget {budget}s")
    except BaseException:
        with capfd.disabled():
            print(f"\nFAIL criterion {n}: {label}")
        raise
    with capfd.disabled():
        print(f"\nPASS criterion {n}: {label}{info.get('detail', '')} [{elapsed:.2f}s]")


def test_criterion_01_routed_attention_equals_dense(capfd):
    with _criterion(capfd, 1, "full routing with zero local context matches "
                    "the dense attention oracle", budget=10.0) as info:
        worst = 0.0
        for i in range(20):
            s = (1, 2, 4)[i % 3]
            heads = (1, 2)[i % 2]
            c = heads * (2 + i % 4)
            hw = s * (2 + i % 3)
            rng = T.Rng(31000 + i)
            p = make_bra_params(rng, c, s, s * s, heads, 3, zero_lce=True)
            x = rng.tensor([c, hw, hw], -1.0, 1.0)
            worst = max(worst, max_abs_diff(ba_forward(x, p),
                                            dense_attention_reference(x, p)))
        assert worst <= 1e-10
        info["detail"] = f" (20 cases, max abs diff {worst:.2e})"


def test_criterion_02_zero_offsets_reduce_to_plain_convolution(capfd):
    with _criterion(capfd, 2, "a zeroed offset predictor makes the deformable "
                    "convolution plain", budget=5.0) as info:
        worst = 0.0
        for i in range(20):
            rng = T.Rng(32000 + i)
            cin = 1 + i % 3
            cout = 1 + (i // 3) % 3
            hw = 4 + i % 5
            base = Conv2dParams(weights=rng.tensor([cout, cin, 3, 3], -1.0, 1.0),
                                bias=rng.tensor([cout], -0.5, 0.5), padding=1)
            dead = Conv2dParams(weights=T.zeros([18, cin, 3, 3]),
                                bias=T.zeros([18]), padding=1)
            x = rng.tensor([cin, hw, hw], -1.0, 1.0)
            worst = max(worst, max_abs_diff(deformable_conv2d(x, DeformableParams(base, dead)),
                                            conv2d(x, base)))
        assert worst <= 1e-12
        info["detail"] = f" (20 cases, max abs diff {worst:.2e})"


def test_criterion_03_convolution_matches_loop_oracle(capfd):
    with _criterion(capfd, 3, "convolution agrees with the six-loop oracle "
                    "across 100 shape draws", budget=30.0) as info:
        kernels = [(1, 1), (3, 3), (5, 5), (1, 3), (3, 1), (5, 3), (3, 5), (1, 5), (5, 1)]
        worst = 0.0
        for i in range(100):
            kh, kw = kernels[i % len(kernels)]
            dil = 2 if i % 3 == 0 else 1
            stride = 2 if i % 4 == 0 else 1
            cin = 1 + i % 4
            cout = 1 + (i // 2) % 4
            h = 5 + i % 12
            w = 5 + (i * 7) % 12
            rng = T.Rng(33000 + i)
            p = Conv2dParams(weights=rng.tensor([cout, cin, kh, kw], -1.0, 1.0),
                             bias=rng.tensor([cout], -0.5, 0.5),
                             stride=stride,
                             padding=(dil * (kh - 1) // 2, dil * (kw - 1) // 2),
                             dilation=dil)
            x = rng.tensor([cin, h, w], -1.0, 1.0)
            worst = max(worst, max_abs_diff(conv2d(x, p), conv2d_reference(x, p)))
        assert worst <= 1e-12
        info["detail"] = f" (100 draws, max abs diff {worst:.2e})"


def test_criterion_04_gradients_match_finite_differences(capfd):
    with _criterion(capfd, 4, "analytic gradients match central differences "
                    "for every parameter group", budget=60.0) as info:
        report = run_gradcheck(RunConfig(), 7)
        assert report["pass"] is True
        worst = max(g["max_rel_err"] for g in report["groups"].values())
        assert worst <= 1e-5
        info["detail"] = (f" ({len(report['groups'])} groups, worst rel err "
                          f"{worst:.2e}, {len(report['resample_events'])} resamples)")


def test_criterion_05_disabled_stages_reduce_to_plain_pyramid(capfd):
    with _criterion(capfd, 5, "with enhancement and attention off the pyramid "
                    "equals the plain weighted-fusion reference", budget=5.0) as info:
        cfg = config_validate(replace(RunConfig(), fusion_width=6, seed=50,
                                      cfe_enabled=False,
                                      attention_fusion_enabled=False))
        channels = {2: 3, 3: 3, 4: 4, 5: 4}
        rng = T.Rng(500)
        backbone = {lvl: rng.tensor([channels[lvl], 16 >> (lvl - 2), 16 >> (lvl - 2)], -1.0, 1.0)
                    for lvl in (2, 3, 4, 5)}
        params = build_pipeline_params(cfg, channels)
        out = c_afbifpn_forward(backbone, params)
        stage_i = {lvl: conv2d(backbone[lvl], params.projection[lvl])
                   for lvl in (2, 3, 4, 5)}
        ref = ref_afbifpn(stage_i, params)
        worst = max(max_abs_diff(out[lvl], ref[lvl]) for lvl in (2, 3, 4, 5))
        assert worst <= 1e-12
        info["detail"] = f" (max abs diff {worst:.2e})"


def test_criterion_06_full_forward_matches_composed_references(capfd, fixture_dir):
    with _criterion(capfd, 6, "the full pyramid on the standard input maps "
                    "equals the stage-by-stage reference composition", budget=30.0) as info:
        maps = load_backbone(fixture_dir)
        channels = {lvl: t.dims[0] for lvl, t in maps.items()}
        params = build_pipeline_params(RunConfig(), channels)
        out = c_afbifpn_forward(maps, params)
        ref = ref_c_afbifpn(maps, params)
        worst = max(max_abs_diff(out[lvl], ref[lvl]) for lvl in (2, 3, 4, 5))
        assert worst <= 1e-10
        info["detail"] = f" (max abs diff {worst:.2e})"


def test_criterion_07_wiring_contracts(capfd, fixture_dir, tmp_path):
    with _criterion(capfd, 7, "two attention passes per forward, halving output "
                    "dims, byte-identical reruns") as info:
        maps = load_backbone(fixture_dir)
        channels = {lvl: t.dims[0] for lvl, t in maps.items()}
        params = build_pipeline_params(RunConfig(), channels)
        for run in ("a", "b"):
            out_dir = tmp_path / run
            out_dir.mkdir()
            with count_macs() as mc:
                out = c_afbifpn_forward(maps, params)
            assert mc.ba_invocations == 2
            for lvl in (2, 3, 4, 5):
                assert arr(out[lvl]).shape == (48, 64 >> (lvl - 2), 64 >> (lvl - 2))
                tensor_write(out_dir / f"p{lvl}.tnsr", out[lvl])
        for lvl in (2, 3, 4, 5):
            assert ((tmp_path / "a" / f"p{lvl}.tnsr").read_bytes()
                    == (tmp_path / "b" / f"p{lvl}.tnsr").read_bytes())
        info["detail"] = " (2 invocations, dims halve per level)"


def test_criterion_08_routed_cost_ratio_exact(capfd):
    with _criterion(capfd, 8, "routed over dense attention cost is exactly "
                    "k/S^2, counters agree with the closed form") as info:
        cfg = RunConfig()
        checked = 0
        for h in (8, 16):
            for s in (1, 2, 4):
                # every k at width 4; one k per grid at the default
                # config's width, heads and local-context kernel; and one
                # at two heads, where a counter that drops the head count
                # shows
                cases = [(4, 1, 3, k) for k in range(1, s * s + 1)]
                cases.append((cfg.fusion_width, cfg.heads, cfg.lce_kernel, max(1, s * s // 2)))
                cases.append((6, 2, 5, min(3, s * s)))
                for c, heads, lce, k in cases:
                    routed = attention_flops(h, h, c, s, k, heads, lce_kernel=lce)
                    dense = attention_flops(h, h, c, s, k, heads, mode="dense")
                    seed = 800 + 100 * h + 10 * s + k
                    p = make_bra_params(T.Rng(seed), c, s, k, heads, lce)
                    x = T.Rng(seed + 80).tensor([c, h, h], -1.0, 1.0)
                    with count_macs() as mc:
                        ba_forward(x, p)
                    counted = {{"qk": "qk_logits", "av": "av_aggregation"}.get(key, key): v
                               for key, v in mc.as_dict().items()}
                    assert mc.ba_invocations == 1
                    assert counted == routed.as_dict()
                    assert counted["qk_logits"] * s * s == dense.qk_logits * k
                    assert counted["av_aggregation"] * s * s == dense.av_aggregation * k
                    checked += 1
        info["detail"] = f" ({checked} extent/grid/count cases)"


def test_criterion_09_fusion_properties(capfd):
    with _criterion(capfd, 9, "fusion output is bounded by its inputs, clamps "
                    "negative weights, converges as epsilon shrinks", budget=5.0) as info:
        grid = (0.0, 0.25, 1.0, 2.0)
        cases = 0
        for seed in (90, 91, 92):
            inputs = [T.Rng(seed * 7 + j).tensor([2, 2], -2.0, 2.0) for j in range(3)]
            cap = max(np.abs(arr(x)).max() for x in inputs)
            for ws in itertools.product(grid, grid, grid):
                out = arr(fuse(inputs, list(ws), 1e-4))
                assert np.abs(out).max() <= cap + 1e-15
                cases += 1
        for seed in (93, 94):
            inputs = [T.Rng(seed * 7 + j).tensor([2, 2], -1.0, 1.0) for j in range(3)]
            for ws in itertools.product((-1.0, -0.25, 0.5, 1.5), repeat=3):
                clamped = [max(wv, 0.0) for wv in ws]
                if sum(clamped) == 0.0:
                    continue
                assert np.array_equal(arr(fuse(inputs, list(ws), 1e-4)),
                                      arr(fuse(inputs, clamped, 1e-4)))
                cases += 1
        inputs = [T.Rng(95).tensor([3, 3], -1.0, 1.0) for _ in range(2)]
        weights = [1.2, 0.6]
        target = arr(fuse(inputs, weights, 0.0))
        errs = [float(np.abs(arr(fuse(inputs, weights, eps)) - target).max())
                for eps in (1e-1, 1e-2, 1e-4)]
        assert errs[0] > errs[1] > errs[2]
        info["detail"] = f" ({cases} weight grids, eps errors {errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e})"


def test_criterion_10_serialization_round_trips(capfd, tmp_path):
    with _criterion(capfd, 10, "1000 tensor files round-trip bit-exactly and "
                    "malformed files all raise the format error", budget=10.0) as info:
        rng = T.Rng(100)
        path = tmp_path / "t.tnsr"
        for i in range(1000):
            dims = [1 + rng.randint(5) for _ in range(1 + rng.randint(4))]
            t = rng.tensor(dims, -4.0, 4.0)
            if i % 2:
                t = t.astype("float32")
            tensor_write(path, t)
            back = tensor_read(path)
            assert back.dtype == t.dtype
            assert np.array_equal(back.array, t.array)
            first = path.read_bytes()
            tensor_write(path, back)
            assert path.read_bytes() == first

        tensor_write(path, T.Rng(101).tensor([2, 3], -1.0, 1.0))
        good = path.read_bytes()
        bad = tmp_path / "bad.tnsr"
        corpus = [
            b"JUNK" + good[4:],          # wrong magic
            good[:6],                    # header truncated
            good[:14],                   # extents truncated
            good[:-10],                  # payload truncated
            good[:5] + bytes([9]) + good[6:],  # unknown dtype code
        ]
        for i, blob in enumerate(corpus):
            bad.write_bytes(blob)
            with pytest.raises(FormatError):
                tensor_read(bad)
        info["detail"] = f" (1000 round trips, {len(corpus)} malformed files)"
