"""The worker pool behind the large blocked kernels (token attention,
fusion, the local-context term), and the counted hold that keeps OpenBLAS
at one thread: pooled and inline runs give the same bits however unevenly
the shares claim rows, a failing share stops the call only after every
share has stopped, concurrent callers and forked children are safe, and
the OpenBLAS thread count is always restored.  Every forward and every
backward holds BLAS at one thread, a lone caller setting the count once
each way, so outputs and gradients do not depend on that count;
overlapping holds see one thread until the last of them leaves.

The pool threshold is lowered so desk-scale calls reach the pool.
Assertions that the pool actually ran skip when only one CPU is allowed
(for example under `taskset -c 0`) or no OpenBLAS is loaded; the rest
then check the inline path.  The hold tests stand in a recording BLAS
and two allowed CPUs, and the uneven-claim tests three allowed CPUs, so
they run the pooled path everywhere."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cafbifpn
from cafbifpn import attention as A
from cafbifpn import pipeline as P
from cafbifpn import tensor as T
from cafbifpn.errors import NumericError
from cafbifpn.pipeline import build_pipeline_params, c_afbifpn_forward
from cafbifpn.tensorio import RunConfig, load_backbone

POOL_NAME = "cafbifpn-rows"


def _pool_available() -> bool:
    return T._allowed_cpus() > 1 and T._openblas_threads() is not None


def _blas_count():
    blas = T._openblas_threads()
    return None if blas is None else blas[0]()


@pytest.fixture()
def pooled(monkeypatch):
    """Every call reaches the pool, with one attention block per stack so
    that a call has stacks to share out, and the pool threads run all but
    one row of each call (_hold_first_row); the names of the threads that
    ran a softmax block are collected."""
    monkeypatch.setattr(T, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(A, "_STACK_BYTES", 0)
    _hold_first_row(monkeypatch)
    names = set()
    real = T.softmax_inplace

    def recording(x):
        names.add(threading.current_thread().name)
        return real(x)

    monkeypatch.setattr(T, "softmax_inplace", recording)
    return names


def _bra_case(seed=60):
    rng = T.Rng(seed)
    x = rng.tensor([8, 8, 8], -1.0, 1.0)
    p = A.make_bra_params(T.Rng(seed + 1), 8, 4, 3, heads=2)
    return x, p


def _taped_bits(fn, operands):
    """fn's output and the gradient of a weighted sum of it with respect to
    every operand, each operand a leaf of one tape."""
    tape = T.Tape()
    leaves = [tape.leaf(x) for x in operands]
    out = fn(*leaves)
    mix = T.Rng(7).tensor(list(out.dims), -1.0, 1.0)
    grads = tape.backward(T.sum_all(T.mul(out, mix)), T.tensor([1.0]))
    return [out.value.copy()] + [grads[leaf].array for leaf in leaves]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_pool_and_inline_give_the_same_bits(monkeypatch, pooled):
    x, p = _bra_case()

    def taped(f, wq):
        return A.ba_forward(f, replace(p, w_q=wq))

    before = _blas_count()
    pool_out = [np.asarray(T._val(A.ba_forward(x, p)))] + _taped_bits(taped, [x, p.w_q])
    assert _blas_count() == before
    monkeypatch.setattr(T, "_POOL_MIN_WORK", float("inf"))
    inline_out = [np.asarray(T._val(A.ba_forward(x, p)))] + _taped_bits(taped, [x, p.w_q])
    for a, b in zip(pool_out, inline_out):
        assert _same_bits(a, b)
    if _pool_available():
        assert any(n.startswith(POOL_NAME) for n in pooled)


def test_failing_share_raises_after_every_share_stopped(monkeypatch):
    """Region 0 holds a NaN and fails the share that claims it at once;
    pool shares are slowed down.  The other shares claim every remaining
    region, and all three must be done when the call raises.  Each region
    is a stack of its own."""
    monkeypatch.setattr(T, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(A, "_STACK_BYTES", 0)
    real = T.softmax_inplace
    finished = []

    def slow_in_pool(x):
        if threading.current_thread().name.startswith(POOL_NAME):
            time.sleep(0.05)
        out = real(x)
        finished.append(threading.current_thread().name)
        return out

    monkeypatch.setattr(T, "softmax_inplace", slow_in_pool)
    qkv = np.ones((4, 2, 6))
    qkv[0, :, 2:] = np.nan  # region 0's keys and values
    routing = A.RoutingResult(None, np.array([[0], [1], [2], [3]]))
    before = _blas_count()
    with pytest.raises(NumericError, match="softmax input contains non-finite values"):
        A.token_attention(T.tensor(qkv), routing, heads=1)
    assert _blas_count() == before
    if _pool_available():
        assert len(finished) == 3  # regions 1 to 3, all done before the raise


def test_every_row_is_claimed_once_under_contention(monkeypatch):
    """Six shares on however few cores, switching threads often and
    yielding after every row: each of 5000 rows runs exactly once, however
    the shares interleave their claims."""
    monkeypatch.setattr(T, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(T, "_allowed_cpus", lambda: 6)
    seen = []

    def body(rows):
        for r in rows:
            seen.append(r)
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        T._run_rows(5000, body, 0)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(5000))


def _hold_first_row(monkeypatch):
    """Wrap T._run_rows so that in every call that runs in shares, the
    calling thread's share holds its first row until the pool threads have
    claimed every other row or stopped: the claims come out as uneven as
    they can, and the pool threads run every row but at most one, however
    the threads are scheduled.  Each call checks that every row ran once;
    the returned list gets (rows, rows the calling thread claimed) per
    call."""
    calls = []
    real = T._run_rows

    def run_rows(n_rows, body, work):
        caller = threading.current_thread()
        shares = min(T._allowed_cpus(), n_rows) if work >= T._POOL_MIN_WORK else 1
        claimed, stopped = [], []  # appended atomically

        def share(rows):
            mine = threading.current_thread() is caller

            def claims():
                for r in rows:
                    claimed.append((r, mine))
                    deadline = time.monotonic() + 60
                    while (mine and len(claimed) < n_rows and len(stopped) < shares - 1
                           and time.monotonic() < deadline):
                        time.sleep(0.001)
                    yield r
            try:
                body(claims())
            finally:
                if not mine:
                    stopped.append(True)

        real(n_rows, share, work)
        assert sorted(r for r, _ in claimed) == list(range(n_rows))
        calls.append((n_rows, sum(mine for _, mine in claimed)))

    monkeypatch.setattr(T, "_run_rows", run_rows)
    return calls


@pytest.fixture()
def uneven(monkeypatch):
    """Every call with two or more rows runs in shares, up to three
    whatever the host's CPU count, the calling thread's share holding its
    first row (_hold_first_row)."""
    monkeypatch.setattr(T, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(T, "_allowed_cpus", lambda: 3)
    return _hold_first_row(monkeypatch)


def _pooled_and_inline(monkeypatch, calls, fn, operands):
    """Taped bits of fn through the uneven pool, then inline; every pooled
    call with two or more rows left the calling thread at most one."""
    pooled = _taped_bits(fn, operands)
    assert calls and all(mine <= 1 for rows, mine in calls if rows > 1)
    assert any(rows > 2 for rows, _ in calls)
    monkeypatch.setattr(T, "_POOL_MIN_WORK", float("inf"))
    inline = _taped_bits(fn, operands)
    return pooled, inline


@pytest.mark.parametrize("reading", ["same", "half", "double"])
def test_fuse_pooled_and_inline_give_the_same_bits(monkeypatch, uneven, reading):
    """Five channels in blocks of two rows, the last block short: the
    output and the gradients of both inputs and both weights, which
    recompute the numerator on the pool, match inline bit for bit."""
    monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * 8 * 12 * 12)
    extent = {"same": 12, "half": 6, "double": 24}[reading]
    rng = T.Rng(41)
    operands = [rng.tensor([5, 12, 12], -1.0, 1.0), rng.tensor([5, extent, extent], -1.0, 1.0),
                T.tensor([0.7]), T.tensor([1.3])]
    pooled, inline = _pooled_and_inline(
        monkeypatch, uneven, lambda x0, x1, w0, w1: P.fuse([x0, x1], [w0, w1], 1e-4), operands)
    assert all(_same_bits(a, b) for a, b in zip(pooled, inline))


def test_merge_lce_pooled_and_inline_give_the_same_bits(monkeypatch, uneven):
    """Seven channels in blocks of two, the last block short: the output
    and the attended, qkv and kernel gradients match inline bit for bit."""
    monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * 8 * 10 * 10)  # 8x8 padded by 1
    rng = T.Rng(43)
    operands = [rng.tensor([16, 4, 7], -1.0, 1.0), rng.tensor([16, 4, 21], -1.0, 1.0),
                rng.tensor([7, 3, 3], -0.5, 0.5)]
    pooled, inline = _pooled_and_inline(
        monkeypatch, uneven, lambda a, qkv, k: A.merge_lce(a, qkv, k, 8, 8), operands)
    assert all(_same_bits(a, b) for a, b in zip(pooled, inline))


def _pyramid():
    cfg = RunConfig(regions_s=2, topk_k=2, heads=2, fusion_width=12, cfe_enabled=False, seed=3)
    channels = {2: 4, 3: 4, 4: 6, 5: 6}
    rng = T.Rng(31)
    backbone = {lvl: rng.tensor([channels[lvl], 32 >> (lvl - 2), 32 >> (lvl - 2)], -1.0, 1.0)
                for lvl in (2, 3, 4, 5)}
    return backbone, build_pipeline_params(cfg, channels)


def test_concurrent_forwards_match_a_lone_one(pooled):
    """More callers than CPUs, switching threads often: each gets a lone
    run's bits and the BLAS thread count ends as it began."""
    backbone, params = _pyramid()
    before = _blas_count()
    lone = {lvl: t.array for lvl, t in c_afbifpn_forward(backbone, params).items()}
    callers = T._allowed_cpus() + 2
    results, errors = [None] * callers, []

    def run(i):
        try:
            results[i] = {lvl: t.array for lvl, t in
                          c_afbifpn_forward(backbone, params).items()}
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    for res in results:
        assert all(_same_bits(res[lvl], lone[lvl]) for lvl in lone)
    assert _blas_count() == before


def _child_forward(conn):
    backbone, params = _pyramid()
    out = c_afbifpn_forward(backbone, params)
    pooled = any(t.name.startswith(POOL_NAME) for t in threading.enumerate())
    conn.send(({lvl: t.array for lvl, t in out.items()}, pooled))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_forked_child_runs_pooled_calls(pooled):
    backbone, params = _pyramid()
    parent = {lvl: t.array for lvl, t in c_afbifpn_forward(backbone, params).items()}
    if _pool_available():
        assert any(n.startswith(POOL_NAME) for n in pooled)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_forward, args=(send,))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "forked child did not answer"
        got, child_pooled = recv.recv()
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert all(_same_bits(got[lvl], parent[lvl]) for lvl in parent)
    if _pool_available():
        assert child_pooled


@pytest.fixture()
def recorded(monkeypatch):
    """Two allowed CPUs and a stand-in OpenBLAS whose thread count starts
    at 3; every lookup, get and set is appended to the returned list."""
    calls = []
    count = [3]

    def get():
        calls.append(("get",))
        return count[0]

    def put(n):
        calls.append(("set", n))
        count[0] = n

    def lookup():
        calls.append(("lookup",))
        return get, put

    monkeypatch.setattr(T, "_allowed_cpus", lambda: 2)
    monkeypatch.setattr(T, "_openblas_threads", lookup)
    return calls


def _sets(calls):
    return [c[1] for c in calls if c[0] == "set"]


def test_pooled_forward_sets_blas_threads_once_each_way(monkeypatch, pooled, recorded):
    """The hold spans the whole forward, the stage-I projections included,
    and the pool is offered exactly the six fusions, the two token
    attention calls and the two local-context terms."""
    runs, held = [], []
    real = T._run_rows
    monkeypatch.setattr(T, "_run_rows", lambda n_rows, body, work: (runs.append(n_rows),
                                                                       real(n_rows, body, work)))
    real_conv = P.conv2d
    monkeypatch.setattr(P, "conv2d", lambda *args: (held.append(_blas_count()), real_conv(*args))[1])
    backbone, params = _pyramid()
    c_afbifpn_forward(backbone, params)
    assert any(n.startswith(POOL_NAME) for n in pooled)
    assert len(runs) == 10
    assert held == [1] * 4
    assert _sets(recorded) == [1, 3]
    assert T._holds == 0


def test_fixture_forward_and_backward_each_hold_blas_at_one_thread(fixture_dir, recorded):
    """The fixture forward, untaped and taped, and the taped one's backward
    each set BLAS to one thread and back once, though none of their
    attention calls reaches the pool."""
    maps = load_backbone(fixture_dir)
    params = build_pipeline_params(RunConfig(), {lvl: t.dims[0] for lvl, t in maps.items()})
    c_afbifpn_forward(maps, params)
    tape = T.Tape()
    out = c_afbifpn_forward({lvl: tape.leaf(t) for lvl, t in maps.items()}, params)
    tape.backward(T.sum_all(out[2]), T.tensor([1.0]))
    assert _sets(recorded) == [1, 3, 1, 3, 1, 3]
    assert T._holds == 0


_GRADIENT_DIGESTS = """
import hashlib, sys
from cafbifpn import tensor as T
from cafbifpn.pipeline import build_pipeline_params, c_afbifpn_forward
from cafbifpn.tensorio import RunConfig, load_backbone
maps = load_backbone(sys.argv[1])
params = build_pipeline_params(RunConfig(fusion_width=144),
                               {lvl: t.dims[0] for lvl, t in maps.items()})
tape = T.Tape()
leaves = {lvl: tape.leaf(t) for lvl, t in maps.items()}
out = c_afbifpn_forward(leaves, params)
mix = T.Rng(7).tensor(list(out[2].dims), -1.0, 1.0)
grads = tape.backward(T.sum_all(T.mul(out[2], mix)), T.tensor([1.0]))
for lvl in (2, 3, 4, 5):
    print(lvl, hashlib.sha256(grads[leaves[lvl]].array.tobytes()).hexdigest())
"""


def test_gradient_bytes_do_not_depend_on_blas_threads(fixture_dir):
    """A taped fixture forward at fusion width 144, where OpenBLAS's own
    products of large inner extent sum differently at one thread and at
    two, and a backward of a weighted sum of level 2: the four backbone
    leaves' gradients are byte-identical at one BLAS thread and at the
    default count."""
    src = str(Path(cafbifpn.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = src + os.pathsep + base.get("PYTHONPATH", "")
    digests = []
    for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        done = subprocess.run([sys.executable, "-c", _GRADIENT_DIGESTS, str(fixture_dir)],
                              env={**base, **extra}, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.splitlines())
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]


def test_error_mid_forward_restores_blas_and_releases_the_pool(monkeypatch, pooled, recorded):
    backbone, params = _pyramid()
    real = T.softmax_inplace
    failed = []

    def fail_once(x):
        if not failed:
            failed.append(True)
            raise NumericError("softmax input contains non-finite values")
        return real(x)

    monkeypatch.setattr(T, "softmax_inplace", fail_once)
    with pytest.raises(NumericError):
        c_afbifpn_forward(backbone, params)
    assert _sets(recorded) == [1, 3]
    assert T._holds == 0
    pooled.clear()
    c_afbifpn_forward(backbone, params)
    assert _sets(recorded) == [1, 3, 1, 3]
    assert any(n.startswith(POOL_NAME) for n in pooled)


def _overlapping(monkeypatch, run_b):
    """Thread A runs the pyramid forward and pauses in its first
    projection.  Thread B then runs run_b(checkpoint); its first checkpoint
    pauses until A's forward has returned.  Returns the BLAS thread count
    at each of B's checkpoints, each read after any pause.  B's own
    projections are checkpoints."""
    backbone, params = _pyramid()
    a_paused, b_paused, a_done = threading.Event(), threading.Event(), threading.Event()
    seen, errors = [], []

    def checkpoint():
        if not b_paused.is_set():
            b_paused.set()
            a_done.wait(60)
        seen.append(_blas_count())

    real_conv = P.conv2d

    def conv(*args):
        if threading.current_thread().name != "A":
            checkpoint()
        elif not a_paused.is_set():
            a_paused.set()
            b_paused.wait(60)
        return real_conv(*args)

    monkeypatch.setattr(P, "conv2d", conv)

    def guarded(fn, done=None):
        def run():
            try:
                fn()
            except Exception as exc:  # surfaced below
                errors.append(exc)
            finally:
                if done is not None:
                    done.set()
        return run

    a = threading.Thread(target=guarded(lambda: c_afbifpn_forward(backbone, params), a_done),
                         name="A")
    b = threading.Thread(target=guarded(lambda: run_b(checkpoint)), name="B")
    a.start()
    assert a_paused.wait(60)
    b.start()
    for t in (a, b):
        t.join(timeout=120)
    assert not errors and not a.is_alive() and not b.is_alive()
    return seen


def test_forward_overlapping_another_sees_one_blas_thread(monkeypatch, recorded):
    """B's forward starts inside A's and outlives it: all four of B's
    projections run at one BLAS thread, and the count is restored once,
    when B leaves."""
    backbone, params = _pyramid()
    seen = _overlapping(monkeypatch, lambda checkpoint: c_afbifpn_forward(backbone, params))
    assert seen == [1] * 4
    assert _sets(recorded) == [1, 3]
    assert _blas_count() == 3 and T._holds == 0


def test_backward_overlapping_a_forward_sees_one_blas_thread(monkeypatch, recorded):
    """B's backward starts inside A's forward and outlives it: every VJP
    runs at one BLAS thread."""
    backbone, params = _pyramid()
    tape = T.Tape()
    out = c_afbifpn_forward({lvl: tape.leaf(t) for lvl, t in backbone.items()}, params)
    loss = T.sum_all(out[2])

    def backward(checkpoint):
        def checked(fn):
            return lambda g: (checkpoint(), fn(g))[1]

        for node in tape.nodes:
            if node._grads_fn is not None:
                node._grads_fn = checked(node._grads_fn)
        tape.backward(loss, T.tensor([1.0]))

    seen = _overlapping(monkeypatch, backward)
    assert len(seen) > 4 and seen == [1] * len(seen)
    assert _sets(recorded) == [1, 3, 1, 3]
    assert _blas_count() == 3 and T._holds == 0


def _child_forward_counts(conn):
    begin = _blas_count()
    backbone, params = _pyramid()
    c_afbifpn_forward(backbone, params)
    pooled = any(t.name.startswith(POOL_NAME) for t in threading.enumerate())
    conn.send((pooled, begin, _blas_count()))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_child_forked_inside_a_hold_reaches_the_pool(pooled, recorded):
    """Another parent thread is inside a hold when the child forks: the
    child starts with no hold open, still reaches the pool, and ends at
    the BLAS count it began with."""
    entered, leave = threading.Event(), threading.Event()

    def hold():
        with T.one_blas_thread():
            entered.set()
            leave.wait(120)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert entered.wait(60)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_forward_counts, args=(send,))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "forked child did not answer"
            child_pooled, begin, end = recv.recv()
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join()
    finally:
        leave.set()
        holder.join(timeout=60)
    assert child.exitcode == 0
    assert child_pooled
    assert begin == end == 1
    assert _blas_count() == 3 and T._holds == 0
