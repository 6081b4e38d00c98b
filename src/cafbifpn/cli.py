"""Command-line surface: selfcheck, forward, gradcheck, bench, gen-fixture.

Reports go to standard output as JSON (selfcheck prints its PASS/FAIL
lines instead); diagnostics go to standard error.  Exit codes: 0 on
success, 1 when a computation or check fails, 2 for usage, configuration,
or input problems (ConfigError, FormatError, or an unreadable file).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import tensor as T
from . import tensorio as IO
from .attention import ba_forward, make_bra_params
from .errors import ConfigError, FormatError, KernelError, NumericError
from .instrumentation import count_macs
from .pipeline import build_pipeline_params, c_afbifpn_forward

# gradcheck, selfcheck and oracles are imported by the commands that use
# them, so a cold `forward` does not compile them


def _load_config(path: str) -> IO.RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    return IO.config_parse(p.read_text())


def _json_text(report: dict) -> str:
    """A report as strict JSON: a NaN or infinity anywhere in it is a
    failed computation, not a value to print."""
    try:
        return json.dumps(report, indent=1, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"report holds a non-finite value: {exc}") from exc


def _level_stats(t: T.Tensor) -> dict:
    v = np.asarray(T._val(t), dtype=np.float64)
    return {"dims": list(v.shape),
            "min": float(v.min()),
            "max": float(v.max()),
            "mean": float(v.mean()),
            "l2": float(np.sqrt((v * v).sum()))}


def cmd_forward(args) -> int:
    cfg = _load_config(args.config)
    backbone = IO.load_backbone(args.input)
    IO.config_check_extents(cfg, backbone)
    channels = {lvl: T._val(t).shape[0] for lvl, t in backbone.items()}
    params = build_pipeline_params(cfg, channels)
    with count_macs() as mc:
        outputs = c_afbifpn_forward(backbone, params)
    report = {"levels": {str(lvl): _level_stats(outputs[lvl]) for lvl in (2, 3, 4, 5)},
              "ba_invocations": mc.ba_invocations, "mac": mc.as_dict()}
    text = _json_text(report)  # before any map is written
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for lvl in (2, 3, 4, 5):
        IO.tensor_write(out_dir / f"out_p{lvl}.tnsr", outputs[lvl])
    sys.stdout.write(text)
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck
    cfg = _load_config(args.config)
    report = run_gradcheck(cfg, args.seed)
    sys.stdout.write(_json_text(report))
    if not report["pass"]:
        worst = {name: g["max_rel_err"] for name, g in report["groups"].items() if not g["pass"]}
        print(f"gradient check failed: {worst}", file=sys.stderr)
        return 1
    return 0


def _bench_case(cfg: IO.RunConfig, h: int, w: int, s: int, k: int) -> dict:
    from .oracles import attention_flops
    c = cfg.fusion_width
    rng = T.Rng(cfg.seed)
    x = rng.tensor([c, h, w], -1.0, 1.0)

    def run(kk: int) -> tuple[dict, float]:
        p = make_bra_params(T.Rng(cfg.seed + kk), c, s, kk, heads=cfg.heads,
                            lce_kernel=cfg.lce_kernel)
        with count_macs() as mc:
            ba_forward(x, p)  # warm the caches out of the timed region
        t0 = time.perf_counter()
        ba_forward(x, p)
        elapsed = time.perf_counter() - t0
        return mc.as_dict(), elapsed

    routed_mac, routed_s = run(k)
    dense_mac, dense_s = run(s * s)

    expect = attention_flops(h, w, c, s, k, heads=cfg.heads,
                             mode="routed", lce_kernel=cfg.lce_kernel).as_dict()
    # the runtime counter uses short stage names; the closed-form account
    # spells the two attention stages out
    renamed = {{"qk": "qk_logits", "av": "av_aggregation"}.get(key, key): v
               for key, v in routed_mac.items()}
    if renamed != expect:
        raise KernelError(f"runtime counters {renamed} disagree with the "
                          f"closed-form account {expect}")
    for stage in ("qk", "av"):
        if routed_mac[stage] * s * s != dense_mac[stage] * k:
            raise KernelError(f"{stage} ratio is not exactly k/S^2 at "
                              f"h={h} s={s} k={k}")
    return {"h": h, "w": w, "s": s, "k": k,
            "routed": {"mac": routed_mac, "seconds": routed_s},
            "dense": {"mac": dense_mac, "seconds": dense_s},
            "qk_av_ratio": k / float(s * s)}


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    rows = []
    for h, w in ((8, 8), (16, 16)):
        for s in (2, 4):
            ks = sorted({1, 2, s * s // 2, s * s})
            for k in ks:
                if 1 <= k <= s * s:
                    rows.append(_bench_case(cfg, h, w, s, k))
    sys.stdout.write(_json_text({"sweep": rows}))
    return 0


def cmd_gen_fixture(args) -> int:
    sys.stdout.write(_json_text(IO.gen_fixture(args.seed, args.out)))
    return 0


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck
    return run_selfcheck()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cafbifpn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selfcheck", help="run the named invariant suite")
    p.set_defaults(func=cmd_selfcheck)

    p = sub.add_parser("forward", help="run the full pyramid over stored input maps")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("gradcheck", help="analytic gradients vs finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="routed vs dense cost sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-fixture", help="write seeded input maps")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_fixture)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
