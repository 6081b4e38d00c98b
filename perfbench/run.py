#!/usr/bin/env python3
"""Benchmark of the cafbifpn package, run from the repository root:

    python3 perfbench/run.py --workload fixture64 --seed 1 --seconds 20 --trace 0

One workload per process, one client in a closed loop: each op starts when
the previous one has finished and been checked.  The package is imported
from ./src as it stands; nothing is installed or built.  BLAS threads are
left at their default and recorded.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json:
  op_p50_s       median wall time of one warm op
  op_tail_s      the highest percentile with at least ten samples beyond it
                 (the maximum when a run has fewer than eleven ops)
  ops_per_s      successful ops per second of the timed loop
  setup_s        median over cold child processes of: import cafbifpn, read
                 the input maps with load_backbone, build_pipeline_params
  cli_forward_s  median wall time of a cold `cafbifpn forward` child process
                 on the workload's input files and config
  peak_rss_mb    ru_maxrss of this process after the timed loop, 10^6 bytes
The cold child processes run one at a time, two back to back in each of
a few pauses spread evenly over the timed loop, so that they sample the
machine over the whole run as the ops do.  Their time is not loop time,
and the op after each pause is not timed.

--trace 1 alternates untraced and traced ops for --seconds and reports the
per-layer metrics from the spans (see spans.py), and the tracing overhead
from the two sets of op times.  End-to-end metrics are only ever measured
with tracing off.

Every op is checked (workloads.py), and so are run-level gates: the
forward against the reference route, the counted attention MACs against
the closed form, the CLI's outputs against the in-process forward.  A
failed gate fails every op in the run.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines before it print every metric with its unit, failed_frac and the
environment.  The exit code is 0 only when every check passed.  Spans
and a results file with every sample go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import workloads as W
from spans import Tracer, layer_metrics, per_op_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"

SETUP_RUNS = 13      # cold set-ups behind setup_s, after one uncounted warm-up
PROBES_PER_PAUSE = 2  # cold children run back to back in one pause of the loop
TRACED_SETUPS = 3    # in-process set-ups traced for the set-up layer metrics
TAIL_BEYOND = 10     # samples the tail percentile must have beyond it
CHILD_TIMEOUT_S = 150
# Idle time before each child process.  OpenBLAS worker threads spin for
# about 2^28 cycles after a call before they sleep; a child started sooner
# shares the cores with them.
QUIET_S = 0.25


class Ledger:
    """Attempted and failed operations, and the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, errors: list) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
        return not errors

    def fail_run(self, errors: list) -> None:
        """A run-level gate failed: every op's output equals the checked
        one bit for bit, so every op is wrong."""
        self.errors.extend(errors)
        self.failed = self.attempted


def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples above it, as a nearest-rank percentile."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    i = n - 1 - TAIL_BEYOND
    return xs[i], 100.0 * (i + 1) / n, TAIL_BEYOND


# ---------------------------------------------------------------------------
# Environment

def blas_runtime() -> tuple:
    """(OpenBLAS config string, thread count) of the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            path = next((ln.split()[-1] for ln in fh if "openblas" in ln.lower()), None)
    except OSError:
        path = None
    if path is not None:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}", None


def environment(args) -> dict:
    blas, threads = blas_runtime()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas, "blas_threads": threads,
            "blas_thread_env": {k: os.environ[k] for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
            "commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# Cold child processes

def run_child(cmd: list) -> tuple:
    """(wall seconds, CompletedProcess) of one child importing ./src;
    subprocess.run kills and reaps it on timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, done


def setup_probe(inputs: Path) -> tuple:
    """(setup seconds or None, errors) of one cold setup_probe.py child."""
    _, done = run_child([sys.executable, str(HERE / "setup_probe.py"), str(inputs)])
    if done.returncode != 0:
        return None, [f"setup probe exited {done.returncode}: {done.stderr.strip()[-300:]}"]
    row = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(row["package"]).resolve().is_relative_to(SRC):
        return None, [f"setup probe imported {row['package']}, not ./src"]
    return row["setup_s"], []


def cli_probe(inputs: Path, out_dir: Path, base: dict) -> tuple:
    """(wall seconds or None, errors) of one cold `cafbifpn forward` child,
    its outputs checked against the in-process forward `base`."""
    secs, done = run_child([sys.executable, "-m", "cafbifpn.cli", "forward",
                            "--config", str(inputs / "config.json"),
                            "--input", str(inputs), "--output", str(out_dir)])
    if done.returncode != 0:
        return None, [f"cli forward exited {done.returncode}: {done.stderr.strip()[-300:]}"]
    try:
        json.loads(done.stdout)
    except json.JSONDecodeError as exc:
        return None, [f"cli forward report is not JSON: {exc}"]
    errors = W.check_cli_outputs(out_dir, base)
    shutil.rmtree(out_dir, ignore_errors=True)
    return secs, errors


# ---------------------------------------------------------------------------
# Ops

def run_op(op, check, ledger: Ledger) -> float | None:
    """Time one op; returns its duration when it ran and passed its checks.
    Only the call is timed; checking happens after the clock stops."""
    t0 = time.perf_counter()
    try:
        result = op()
    except Exception as exc:  # a raising op is a failed op; keep measuring
        ledger.record([f"op raised {type(exc).__name__}: {exc}"])
        return None
    elapsed = time.perf_counter() - t0
    return elapsed if ledger.record(check(result)) else None


def timed_loop(op, check, ledger: Ledger, seconds: float, probes: list) -> tuple:
    """Closed loop of `op` for `seconds` of loop time (at least one op).
    The zero-argument `probes` run between ops at evenly spaced times,
    each after QUIET_S; their time is added to the deadline and left out
    of the loop time, and the op after each is not timed.  Returns
    (durations of timed passing ops, passing ops, loop seconds)."""
    durations = []
    completed = 0
    start = time.perf_counter()
    due = [start + (k + 0.5) * seconds / len(probes) for k in range(len(probes))]
    paused = 0.0
    after_probe = False
    while True:
        d = run_op(op, check, ledger)
        if d is not None:
            completed += 1
            if not after_probe:
                durations.append(d)
        after_probe = False
        if due and time.perf_counter() >= due[0] + paused:
            due.pop(0)
            t0 = time.perf_counter()
            time.sleep(QUIET_S)
            probes.pop(0)()
            paused += time.perf_counter() - t0
            after_probe = True
        elif time.perf_counter() >= start + seconds + paused:
            # every probe fell due before this deadline, so all have run
            return durations, completed, time.perf_counter() - start - paused


def interleave(a: list, b: list) -> list:
    """a and b merged so each is spread evenly over the result."""
    keyed = [((i + 0.5) / len(a), 0, x) for i, x in enumerate(a)]
    keyed += [((i + 0.5) / len(b), 1, x) for i, x in enumerate(b)]
    return [x for *_, x in sorted(keyed, key=lambda k: k[:2])]


# ---------------------------------------------------------------------------

def end_to_end(w, op, check, ledger, args, inputs, work, base) -> tuple:
    setup_times, cli_times = [], []

    def record(sink, measured):
        secs, errors = measured
        if ledger.record(errors):
            sink.append(secs)

    children = interleave(
        [lambda: record(setup_times, setup_probe(inputs)) for _ in range(SETUP_RUNS)],
        [lambda i=i: record(cli_times, cli_probe(inputs, work / f"cli{i}", base))
         for i in range(w.cli_runs)])
    probes = [lambda batch=children[i:i + PROBES_PER_PAUSE]: [child() for child in batch]
              for i in range(0, len(children), PROBES_PER_PAUSE)]
    durations, completed, loop_s = timed_loop(op, check, ledger, args.seconds, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics, notes = {}, {}
    if durations:
        tail_s, pct, beyond = tail(durations)
        metrics.update(op_p50_s=statistics.median(durations), op_tail_s=tail_s,
                       ops_per_s=completed / loop_s, peak_rss_mb=peak_rss_mb)
        notes.update(op_p50_s=f"{len(durations)} timed warm ops",
                     op_tail_s=f"p{pct:.1f} of {len(durations)} ops, {beyond} beyond",
                     ops_per_s=f"level-2 extent {w.extent}, {completed} ops in {loop_s:.2f} s",
                     peak_rss_mb="ru_maxrss after the timed loop")
    if setup_times:
        metrics["setup_s"] = statistics.median(setup_times)
        notes["setup_s"] = f"median of {len(setup_times)} cold child processes"
    if cli_times:
        metrics["cli_forward_s"] = statistics.median(cli_times)
        notes["cli_forward_s"] = f"median of {len(cli_times)} cold child processes"
    return metrics, notes, {"op_durations_s": durations, "setup_s": setup_times,
                            "cli_forward_s": cli_times}


def per_layer(spec, pkg, op, check, ledger, args, inputs) -> tuple:
    """Untraced and traced ops alternate, so both see the same phase of the
    run (taped64's heap grows over its first ops, for one)."""
    tracer = Tracer()
    counters = []

    def traced_op():
        with tracer.span("op"), pkg.M.count_macs() as counter:
            counters.append(counter)
            return op()

    with tracer.installed():
        for _ in range(TRACED_SETUPS):
            with tracer.span("setup"):
                W.Setup(pkg, inputs)
    durations, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        d = run_op(op, check, ledger)
        if d is not None:
            durations.append(d)
        with tracer.installed():
            d = run_op(traced_op, check, ledger)
        if d is not None:
            traced.append(d)
        if time.perf_counter() >= deadline:
            break
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{args.workload}.spans.jsonl")
    names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    metrics = layer_metrics(names, per_op_values(tracer, "setup"),
                            per_op_values(tracer, "op", [c.as_dict() for c in counters]))
    notes = {}
    if tracer.missing:
        notes["untraced"] = sorted(tracer.missing)
    if durations and traced:
        metrics["trace.op_p50_s"] = statistics.median(traced)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(durations) - 1
    return metrics, notes, {"op_durations_s": durations, "traced_op_durations_s": traced}


def run(args, spec: dict, work: Path) -> tuple:
    w = W.WORKLOADS[args.workload]
    inputs = work / "inputs"
    W.make_inputs(w, args.seed, inputs)
    ledger = Ledger()
    if not args.trace:
        # One uncounted cold set-up child first: it writes the bytecode
        # caches and pulls the files into the page cache for the counted ones.
        time.sleep(QUIET_S)
        ledger.record(setup_probe(inputs)[1])

    pkg = W.Package()
    if not Path(pkg.root.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {pkg.root.__file__}, not the package under {SRC}")
    env = environment(args)
    s = W.Setup(pkg, inputs)

    # The baseline forward: the first warm-up op of an untaped workload, and
    # what the run-level gates check.
    with pkg.M.count_macs() as counter:
        base = W.forward_op(pkg, s)
    gate_errors = W.check_macs(pkg, s, counter)
    ledger.record(gate_errors)

    if w.taped:
        op, first, warmups = functools.partial(W.taped_op, pkg, s), None, W.WARMUP_OPS
    else:  # the baseline was the first warm-up op
        op, first, warmups = functools.partial(W.forward_op, pkg, s), base, W.WARMUP_OPS - 1

    def check(result):
        nonlocal first
        if first is None:
            first = result
            return W.compare_results(base, result, "the untaped forward")
        return W.compare_results(first, result, "the first op's bits")

    if not args.trace:
        # And one uncounted CLI child, which also imports the CLI's modules.
        time.sleep(QUIET_S)
        ledger.record(cli_probe(inputs, work / "cli-warm", base)[1])

    for _ in range(warmups):
        run_op(op, check, ledger)

    if args.trace:
        metrics, notes, samples = per_layer(spec, pkg, op, check, ledger, args, inputs)
    else:
        metrics, notes, samples = end_to_end(w, op, check, ledger, args, inputs, work, base)

    ref_errors = W.check_reference(pkg, s, base)
    if gate_errors or ref_errors:
        ledger.fail_run(gate_errors + ref_errors)
    return env, metrics, notes, samples, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cafbifpn" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cafbifpn'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [wl["name"] for wl in spec["workloads"]]
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        env, metrics, notes, samples, ledger = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        ledger.fail_run([f"no value for metrics {missing}"])
    correct = ledger.failed == 0 and not ledger.errors
    out = {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in wanted}

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in out.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}{note}")
    print(f"{'failed_frac':48s} {ledger.failed / max(ledger.attempted, 1)!r:>24} "
          f"frac  ({ledger.failed} of {ledger.attempted} ops)")
    if "untraced" in notes:
        print(f"# not in the package, so not traced: {notes['untraced']}")
    for err in ledger.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    record = {"env": env, "metrics": out, "attempted": ledger.attempted,
              "failed": ledger.failed, "errors": ledger.errors, "samples": samples}
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
