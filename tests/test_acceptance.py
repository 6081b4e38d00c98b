"""The release gate: ten numbered criteria, each printing one PASS or FAIL
line to the terminal (capture is suspended for the line) with its wall time.
Every criterion re-derives its expectation from an independent route; none
reuses the implementation under test as its own oracle.  Criteria 1, 2, 3,
9 and 10, and the wiring half of criterion 7, run named selfcheck items:
each property is implemented once, in cafbifpn.selfcheck, and `cafbifpn
selfcheck` carries them without pytest."""

import contextlib
import time
from cafbifpn import tensor as T
from cafbifpn.attention import ba_forward, make_bra_params
from cafbifpn.gradcheck import run_gradcheck
from cafbifpn.instrumentation import count_macs
from cafbifpn.oracles import attention_flops
from cafbifpn.selfcheck import CHECKS
from cafbifpn.tensorio import RunConfig, load_backbone

from conftest import (assert_reruns_byte_identical, full_forward_error,
                      plain_reduction_error, tiny_cfg, tiny_pyramid)

CHECK = dict(CHECKS)


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
                    "the dense attention oracle", budget=10.0):
        CHECK["sparse-equals-dense-at-full-routing"]()


def test_criterion_02_zero_offsets_reduce_to_plain_convolution(capfd):
    with _criterion(capfd, 2, "a zeroed offset predictor makes the deformable "
                    "convolution plain", budget=5.0):
        CHECK["deformable-zero-offset-degeneracy"]()


def test_criterion_03_convolution_matches_loop_oracle(capfd):
    with _criterion(capfd, 3, "convolution agrees with the six-loop oracle "
                    "across 100 shape draws", budget=30.0):
        CHECK["conv-matches-loop-oracle"]()


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
        cfg = tiny_cfg(seed=50, lce_kernel=5, cfe_enabled=False, attention_fusion_enabled=False)
        worst = plain_reduction_error(tiny_pyramid(500)[1], cfg)
        assert worst <= 1e-12
        info["detail"] = f" (max abs diff {worst:.2e})"


def test_criterion_06_full_forward_matches_composed_references(capfd, fixture_dir):
    with _criterion(capfd, 6, "the full pyramid on the standard input maps "
                    "equals the stage-by-stage reference composition", budget=30.0) as info:
        worst = full_forward_error(load_backbone(fixture_dir), RunConfig())
        assert worst <= 1e-10
        info["detail"] = f" (max abs diff {worst:.2e})"


def test_criterion_07_wiring_contracts(capfd, fixture_dir, tmp_path):
    with _criterion(capfd, 7, "two attention passes per forward, halving output "
                    "dims, byte-identical reruns"):
        CHECK["attention-invoked-twice-per-forward"]()
        assert_reruns_byte_identical(load_backbone(fixture_dir), RunConfig(), tmp_path)


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
                    "negative weights, converges as epsilon shrinks", budget=5.0):
        for name in ("fusion-output-bounded-by-inputs", "fusion-clamps-negative-weights",
                     "fusion-epsilon-limit"):
            CHECK[name]()


def test_criterion_10_serialization_round_trips(capfd):
    with _criterion(capfd, 10, "1000 tensor files round-trip bit-exactly and "
                    "malformed files all raise the format error", budget=10.0):
        CHECK["tensor-file-round-trip"]()
        CHECK["malformed-tensor-files-rejected"]()
