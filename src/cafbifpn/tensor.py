"""Dense tensor values, reverse-mode differentiation on an explicit tape,
and the deterministic fixture RNG.

Tensors are immutable after construction and every operation is a pure
function, so values may be shared freely between threads.  A Tape is
single-writer: recording and backward must be serialized per tape.

One rule owns the cores.  Every pyramid forward (pipeline.py) and every
Tape.backward holds OpenBLAS at one thread (`one_blas_thread`).  Holds
are counted over the whole process: the first to enter saves the thread
count and sets it to 1, the last to leave restores it, so concurrent and
nested holds all run at one BLAS thread and leave the count as they found
it.  OpenBLAS sums some products in an order that depends on its thread
count, so at one thread the bits depend on neither that count, the CPU
count, nor who else is running.  The one loop that uses a second core is
routed token attention's stacks of blocks, run by `_run_rows` on a small
pool of worker threads, one per CPU this process may use, shared by every
caller.  The pool is private: a caller never sees its threads, a call
returns only after every share of its own has stopped, and the run record
(instrumentation.py) is only touched on the calling thread.  A pooled
call made outside a forward or backward holds for its own duration.  A
forked child starts with no hold open and a pool of its own.

Verification arithmetic is float64; float32 exists as a storage dtype and
is rejected on tapes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeError

_DTYPES = {"float32": np.dtype(np.float32), "float64": np.dtype(np.float64)}


class Tensor:
    """Immutable dense array, row-major, float32 or float64.

    Scalars are represented with dims (1,); dims are never empty and every
    extent is at least 1.
    """

    __slots__ = ("array",)

    def __init__(self, data, dtype: str | None = None, copy: bool = True):
        np_dtype = _DTYPES[dtype] if dtype is not None else None
        # copy=False still copies when the layout or dtype demands it
        make = np.array if copy else np.asarray
        arr = make(data, dtype=np_dtype, order="C")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.size == 0 or min(arr.shape) < 1:
            raise ShapeError(f"tensor extents must all be >= 1, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def dtype(self) -> str:
        return str(self.array.dtype)

    @property
    def size(self) -> int:
        return self.array.size

    def astype(self, dtype: str) -> "Tensor":
        return Tensor(self.array.astype(_DTYPES[dtype]), copy=False)

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims}, dtype={self.dtype})"


def tensor(data, dtype: str = "float64") -> Tensor:
    return Tensor(data, dtype=dtype)


def zeros(dims: Sequence[int], dtype: str = "float64") -> Tensor:
    return Tensor(np.zeros(tuple(dims), dtype=_DTYPES[dtype]), copy=False)


def full(dims: Sequence[int], value: float, dtype: str = "float64") -> Tensor:
    return Tensor(np.full(tuple(dims), value, dtype=_DTYPES[dtype]), copy=False)


# ---------------------------------------------------------------------------
# Tape and nodes


class Node:
    """A value recorded on a tape, carrying parent links for backward.

    A node refers to its tape weakly: the tape holds its nodes, so a
    strong back-pointer would make every tape a reference cycle, freed
    only when the cyclic collector next runs.
    """

    __slots__ = ("_tape_ref", "index", "value", "parents", "_grads_fn")

    def __init__(self, tape_ref, index, value, parents, grads_fn):
        self._tape_ref = tape_ref
        self.index = index
        self.value = value  # np.ndarray, float64
        self.parents = parents
        self._grads_fn = grads_fn

    @property
    def tape(self) -> "Tape":
        tape = self._tape_ref()
        if tape is None:
            raise GraphError("the tape this node was recorded on no longer exists; "
                             "keep a reference to the Tape while its nodes are in use")
        return tape

    @property
    def dims(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(index={self.index}, dims={self.dims})"


class Tape:
    """Ordered operation record; creation order is a topological order.

    The tape owns its nodes and their values.  Dropping the last reference
    to it frees them at once; a node outliving its tape can no longer be
    recorded on or differentiated.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, t: Tensor) -> Node:
        if t.dtype != "float64":
            raise NumericError("tape arithmetic is float64-only; convert leaves first")
        return self._record(np.array(t.array, dtype=np.float64), (), None)

    def _record(self, value: np.ndarray, parents, grads_fn) -> Node:
        node = Node(weakref.ref(self), len(self.nodes), np.ascontiguousarray(value), parents, grads_fn)
        self.nodes.append(node)
        return node

    def backward(self, output: Node, seed: Tensor) -> dict[Node, Tensor]:
        """Gradient of (seed . output) with respect to every reached leaf.

        Visits nodes in reverse creation order, summing each node's
        incoming gradients in that order, so fan-out is correct and runs
        are deterministic.  An interior node's gradient is dropped once
        its VJP has run, so only the leaves' gradients are returned.
        Gradient arrays are never written in place: a slot may share its
        array with another slot or with the seed, and fan-in adds out of
        place.  The node loop holds OpenBLAS at one thread
        (one_blas_thread), as a forward does.
        """
        if not isinstance(output, Node) or output.tape is not self:
            raise GraphError("output node is not recorded on this tape")
        if tuple(seed.dims) != output.dims:
            raise ShapeError(f"seed dims {seed.dims} != output dims {output.dims}")
        slots: dict[int, np.ndarray] = {output.index: np.asarray(seed.array, dtype=np.float64)}
        leaves: dict[Node, Tensor] = {}
        with one_blas_thread():
            for idx in range(output.index, -1, -1):
                g = slots.pop(idx, None)
                if g is None:
                    continue
                node = self.nodes[idx]
                if not node.parents:
                    leaves[node] = Tensor(g, copy=False)
                    continue
                for parent, pg in zip(node.parents, node._grads_fn(g)):
                    if not isinstance(parent, Node) or pg is None:
                        continue
                    slot = slots.get(parent.index)
                    slots[parent.index] = pg if slot is None else slot + pg
        return leaves


# ---------------------------------------------------------------------------
# Primitive dispatch

def _val(a) -> np.ndarray:
    if isinstance(a, Node):
        return a.value
    if isinstance(a, Tensor):
        return a.array
    raise TypeError(f"expected Tensor or Node, got {type(a).__name__}")


def _tape_of(args) -> Tape | None:
    tape = None
    for a in args:
        if isinstance(a, Node):
            if tape is None:
                tape = a.tape
            elif tape is not a.tape:
                raise GraphError("operands are recorded on different tapes")
    return tape


def _on_tape(*args) -> tuple[bool, ...]:
    """Which operands need a gradient; ops skip the others' products."""
    return tuple(isinstance(a, Node) for a in args)


def _emit(args, value: np.ndarray, grads_fn: Callable | None):
    tape = _tape_of(args)
    if tape is None:
        return Tensor(value, copy=False)
    return tape._record(value, tuple(args), grads_fn)


def _same_layout(a, b, op: str) -> None:
    av, bv = _val(a), _val(b)
    if av.shape != bv.shape:
        raise ShapeError(f"{op}: dims {list(av.shape)} vs {list(bv.shape)}")
    if av.dtype != bv.dtype:
        raise ShapeError(f"{op}: dtype {av.dtype} vs {bv.dtype}")


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a, b):
    _same_layout(a, b, "add")
    return _emit((a, b), _val(a) + _val(b), lambda g: (g, g))


def mul(a, b):
    _same_layout(a, b, "mul")
    av, bv = _val(a), _val(b)
    need_a, need_b = _on_tape(a, b)
    return _emit((a, b), av * bv, lambda g: (g * bv if need_a else None,
                                             g * av if need_b else None))


# ---------------------------------------------------------------------------
# Softmax and reductions


def softmax_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite x with the softmax along its last axis and return it.

    The row maximum is subtracted before exponentiating.  A NaN carries
    into the maximum, +inf shows in the maximum and -inf in the minimum,
    so those two cover every non-finite input without a boolean temporary.
    """
    top = x.max(axis=-1, keepdims=True)
    if not (np.isfinite(top).all() and np.isfinite(x.min())):
        raise NumericError("softmax input contains non-finite values")
    x -= top
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def sum_all(a):
    av = _val(a)
    shape = av.shape
    return _emit((a,), np.array([av.sum()]),
                 lambda g: (np.full(shape, g[0], dtype=np.float64),))


# ---------------------------------------------------------------------------
# Work sizes, and the worker pool for token attention's stacks

# A token-attention call with less work than this runs its stacks inline:
# handing them to the pool costs more than a second core returns.  The
# work is the logits count, regions * heads * queries * gathered keys; the
# value comes from a sweep of pooled against inline attention calls
# (CHANGES.md).
_POOL_MIN_WORK = 1 << 23

# Blocked sweeps (fuse's rows, the depthwise kernel's channels) take about
# this many bytes of one float64 operand per block, so a block's operand,
# output and temporary stay in L2.  Swept against 128 KB to 4 MB for fuse
# at 48 channels, 64 to 256 square, and 128 KB to 1 MB for the depthwise
# kernel at 48x64x64 and 48x128x128 (CHANGES.md).
_BLOCK_BYTES = 1 << 18


def _block_rows(shape) -> int:
    """Leading-axis rows per block of a float64 array of this shape."""
    return max(1, _BLOCK_BYTES // (8 * math.prod(shape[1:])))


_hold_lock = threading.Lock()  # guards _holds, _saved_threads and _pool
_holds = 0            # holds open in this process, over all threads
_saved_threads = None  # the OpenBLAS count the first open hold found
_pool = None          # (workers, executor), made on first use


def _after_fork_in_child():
    """A forked child has only the forking thread: none of the parent's
    holds are open in it and none of its pool threads exist."""
    global _hold_lock, _holds, _pool
    _hold_lock, _holds, _pool = threading.Lock(), 0, None


if hasattr(os, "register_at_fork"):  # platforms without fork need no reset
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _allowed_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None when no
    OpenBLAS is mapped into this process.  Looked up on first use."""
    try:
        with open("/proc/self/maps") as fh:
            path = next((ln.split()[-1] for ln in fh if "openblas" in ln.lower()), None)
        if path is None:
            return None
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes = (ctypes.c_int,)
            put.restype = None
            return get, put
    return None


def _executor(workers: int):
    """The workers - 1 pool threads that join a calling thread.  A pool
    made for another worker count is dropped, not shut down: a concurrent
    caller may still be submitting to it, and its threads exit once it is
    collected."""
    # imported on first use, so that importing the package does not pay for it
    from concurrent.futures import ThreadPoolExecutor
    global _pool
    with _hold_lock:
        if _pool is None or _pool[0] != workers:
            _pool = (workers, ThreadPoolExecutor(workers - 1, thread_name_prefix="cafbifpn-rows"))
        return _pool[1]


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread for the body.  Holds are counted over
    every thread of the process: the first to enter saves OpenBLAS's
    thread count and sets it to 1, the last to leave restores it, error or
    not.  Holds nest and overlap, and every thread inside any hold sees one
    BLAS thread.  The hold does not depend on the work in the body or on
    the CPU count; no BLAS call is made when no OpenBLAS is loaded."""
    global _holds, _saved_threads
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _hold_lock:
        if _holds == 0:
            _saved_threads = get()
            put(1)
        _holds += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holds -= 1
            if _holds == 0:
                put(_saved_threads)


def _run_rows(n_rows: int, body: Callable[[range], None], work: int) -> None:
    """Run body over rows 0..n_rows-1 in interleaved shares
    range(i, n_rows, shares), one share per allowed CPU, at once: the
    calling thread takes share 0 and pool threads the rest, under
    one_blas_thread.  Shares must write disjoint outputs and must not
    touch the run record.  Concurrent callers share the pool's threads.

    body(range(n_rows)) runs inline instead, before any hold is taken,
    when work is below _POOL_MIN_WORK or there are fewer than two shares.
    Returns only once every share has stopped; the first failed share's
    exception, in share order, is then re-raised.
    """
    shares = min(_allowed_cpus(), n_rows) if work >= _POOL_MIN_WORK else 1
    if shares < 2:
        body(range(n_rows))
        return
    from concurrent.futures import wait
    with one_blas_thread():
        pool = _executor(_allowed_cpus())
        futures = []
        try:
            for i in range(1, shares):
                futures.append(pool.submit(body, range(i, n_rows, shares)))
            body(range(0, n_rows, shares))
        finally:
            wait(futures)
        errors = [e for e in (f.exception() for f in futures) if e is not None]
        if errors:
            raise errors[0]


# ---------------------------------------------------------------------------
# SplitMix64: the deterministic cross-platform fixture RNG

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_UNIT = 2.0 ** -53


def rng_next_raw(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (new state, raw 64-bit output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z = z ^ (z >> 31)
    return state, z


class Rng:
    """Convenience stream over rng_next_raw with a mutable cursor."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_float(self) -> float:
        """One step yielding a float64 uniform in [0, 1)."""
        self.state, z = rng_next_raw(self.state)
        return (z >> 11) * _TO_UNIT

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()

    def floats(self, n: int) -> np.ndarray:
        """The next n next_float draws as one array, computed in wrapping
        uint64 arithmetic; the cursor advances by n steps."""
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + steps * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self.state = (self.state + n * _GOLDEN) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * _TO_UNIT

    def tensor(self, dims: Sequence[int], low: float = 0.0, high: float = 1.0) -> Tensor:
        vals = low + (high - low) * self.floats(math.prod(dims))
        return Tensor(vals.reshape(tuple(dims)), copy=False)

    def randint(self, bound: int) -> int:
        return int(self.next_float() * bound)
