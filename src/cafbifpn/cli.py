"""Command-line surface: selfcheck, forward, gradcheck, gen-fixture.

Reports go to standard output as JSON (selfcheck prints its PASS/FAIL
lines instead); diagnostics go to standard error.  Exit codes: 0 on
success, 1 when a computation or check fails or memory runs out, 2 for usage,
configuration, or input problems (ConfigError, FormatError, an unreadable file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from . import tensorio as IO
from .errors import ConfigError, FormatError, KernelError, NumericError
from .instrumentation import count_macs
from .pipeline import build_pipeline_params, c_afbifpn_forward

# gradcheck and selfcheck are imported by the commands that use them, so
# a cold `forward` does not compile them


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
    report = run_gradcheck(cfg, IO.check_seed(args.seed, "--seed"))
    sys.stdout.write(_json_text(report))
    if not report["pass"]:
        worst = {name: g["max_rel_err"] for name, g in report["groups"].items() if not g["pass"]}
        print(f"gradient check failed: {worst}", file=sys.stderr)
        return 1
    return 0


def cmd_gen_fixture(args) -> int:
    sys.stdout.write(_json_text(IO.gen_fixture(IO.check_seed(args.seed, "--seed"), args.out)))
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
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
