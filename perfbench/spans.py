"""Span tracing from outside the package, and per-layer metrics from spans.

`Tracer.install` wraps public functions of the package at every module
that binds them by name (`conv2d` is bound in convops, cfe and pipeline,
for example), and two methods on their classes.  Each call then records a
span: name, start, end and parent id, kept in memory and written out when
the run ends.  Self time is a span's duration minus the time its child
spans cover.  Tape node and byte deltas are read from the tapes
themselves: every tape that gets a leaf is watched, and a span's delta is
what the watched tapes grew by while it was open.

Convolution MACs and bytes moved are computed here in closed form from
the shapes seen at the span boundary; the package does not count them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import statistics
import sys
import time
import weakref

# (module, attribute, span name): every module of the package that binds
# the same function object gets the same wrapper.
FUNCTIONS = (
    ("cafbifpn.tensorio", "tensor_read", "tensorio.tensor_read"),
    ("cafbifpn.tensorio", "load_backbone", "tensorio.load_backbone"),
    ("cafbifpn.convops", "conv2d", "convops.conv2d"),
    ("cafbifpn.convops", "depthwise_conv2d", "convops.depthwise_conv2d"),
    ("cafbifpn.convops", "deformable_conv2d", "convops.deformable_conv2d"),
    ("cafbifpn.convops", "deformable_conv2d_with_offsets",
     "convops.deformable_conv2d_with_offsets"),
    ("cafbifpn.cfe", "cfe_forward", "cfe.cfe_forward"),
    ("cafbifpn.attention", "region_partition", "attention.region_partition"),
    ("cafbifpn.attention", "qkv_project", "attention.qkv_project"),
    ("cafbifpn.attention", "topk_routing", "attention.topk_routing"),
    ("cafbifpn.attention", "gather_kv", "attention.gather_kv"),
    ("cafbifpn.attention", "token_attention", "attention.token_attention"),
    ("cafbifpn.attention", "lce", "attention.lce"),
    ("cafbifpn.attention", "region_merge", "attention.region_merge"),
    ("cafbifpn.attention", "ba_forward", "attention.ba_forward"),
    ("cafbifpn.pipeline", "fuse", "pipeline.fuse"),
    ("cafbifpn.pipeline", "resize", "pipeline.resize"),
    ("cafbifpn.pipeline", "build_pipeline_params", "pipeline.build_pipeline_params"),
    ("cafbifpn.pipeline", "c_afbifpn_forward", "pipeline.c_afbifpn_forward"),
)

# (module, class, method, span name)
METHODS = (
    ("cafbifpn.tensor", "Rng", "tensor", "tensor.Rng.tensor"),
    ("cafbifpn.tensor", "Tape", "backward", "tensor.Tape.backward"),
)

FLOAT_BYTES = 8  # compute is float64 by contract


# ---------------------------------------------------------------------------
# Span attributes taken from a call's arguments and result.  Convolution
# MACs and bytes are closed forms of the shapes at the span boundary;
# bytes are the compulsory float64 traffic: read input and parameters
# once, write the output once.

def _conv2d_cost(args, out) -> dict:
    x, p = args[0], args[1]
    c_in, h, w = x.dims
    c_out, _, kh, kw = p.weights.dims
    _, h_out, w_out = out.dims
    macs = c_out * c_in * kh * kw * h_out * w_out
    words = c_in * h * w + c_out * c_in * kh * kw + c_out + c_out * h_out * w_out
    return {"macs": macs, "bytes": words * FLOAT_BYTES}


def _depthwise_cost(args, out) -> dict:
    x, weights = args[0], args[1]
    c, h, w = x.dims
    k = weights.dims[1]
    return {"macs": c * k * k * h * w, "bytes": (2 * c * h * w + c * k * k) * FLOAT_BYTES}


def _deformable_cost(args, out) -> dict:
    """Per tap: bilinear sampling (4 weighted corners per sampled value),
    then a [C_out, C_in] x [C_in, H*W] product."""
    x, base, offsets = args[0], args[1], args[2]
    c_in, h, w = x.dims
    c_out, _, kh, kw = base.weights.dims
    taps = kh * kw
    macs = taps * h * w * c_in * (c_out + 4)
    words = (c_in * h * w + 2 * taps * h * w + c_out * c_in * taps + c_out
             + c_out * h * w)
    return {"macs": macs, "bytes": words * FLOAT_BYTES}


def _file_bytes(args, out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


AFTER_CALL = {
    "convops.conv2d": _conv2d_cost,
    "convops.depthwise_conv2d": _depthwise_cost,
    "convops.deformable_conv2d_with_offsets": _deformable_cost,
    "tensorio.tensor_read": _file_bytes,
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs",
                 "_nodes0", "_bytes0")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.parent = parent
        self.attrs = {}
        self.end = None

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._tapes = weakref.WeakKeyDictionary()  # tape -> nodes already counted
        self._nodes = 0                             # cumulative over watched tapes
        self._bytes = 0
        self._restore = []
        self.missing = set()

    # -- tape accounting -------------------------------------------------

    def watch_tape(self, tape) -> None:
        self._tapes.setdefault(tape, 0)

    def _tape_totals(self) -> tuple:
        for tape, seen in list(self._tapes.items()):
            nodes = tape.nodes
            if len(nodes) > seen:
                self._bytes += sum(n.value.nbytes for n in nodes[seen:])
                self._nodes += len(nodes) - seen
                self._tapes[tape] = len(nodes)
        return self._nodes, self._bytes

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._open[-1].id if self._open else None)
        self.spans.append(span)
        self._open.append(span)
        span._nodes0, span._bytes0 = self._tape_totals()
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        nodes, nbytes = self._tape_totals()
        if nodes != span._nodes0:
            span.attrs["tape_nodes"] = nodes - span._nodes0
            span.attrs["tape_bytes"] = nbytes - span._bytes0
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def parent_named(self, name: str):
        for span in reversed(self._open):
            if span.name == name:
                return span
        return None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str):
        after = AFTER_CALL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            self._on_open(span, args)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                span.attrs.update(after(args, out))
            return out

        return traced

    def _on_open(self, span: Span, args) -> None:
        """A cfe_forward span gets its pyramid level from its input's
        height against the level-2 height of the enclosing forward."""
        if span.name == "pipeline.c_afbifpn_forward":
            span.attrs["h2"] = args[0][2].dims[1]
        elif span.name == "cfe.cfe_forward":
            pipe = self.parent_named("pipeline.c_afbifpn_forward")
            if pipe is not None:
                ratio = pipe.attrs["h2"] / args[0].dims[1]
                span.attrs["level"] = 2 + int(round(math.log2(ratio)))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap every listed function at each package module binding it.
        A function the package no longer has is skipped and listed in
        `missing`, so its metrics read 0 instead of the run failing."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cafbifpn" or n.startswith("cafbifpn."))]
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            orig = getattr(getattr(sys.modules.get(mod_name), cls_name, None),
                           "__dict__", {}).get(attr)
            if orig is None:
                self.missing.add(name)
                continue
            cls = getattr(sys.modules[mod_name], cls_name)
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))
        tape_cls = sys.modules["cafbifpn.tensor"].Tape
        orig_leaf = tape_cls.__dict__["leaf"]

        @functools.wraps(orig_leaf)
        def leaf(tape, t):
            self.watch_tape(tape)
            return orig_leaf(tape, t)

        self._restore.append((tape_cls, "leaf", orig_leaf))
        tape_cls.leaf = leaf

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Aggregation

def _by_root(spans, root_name: str) -> list:
    """Group spans under each root span called root_name, in order."""
    root_of = {}
    groups = {}
    for span in spans:
        if span.name == root_name and span.parent is None:
            root_of[span.id] = span.id
            groups[span.id] = [span]
        elif span.parent in root_of:
            root_of[span.id] = root_of[span.parent]
            groups[root_of[span.id]].append(span)
    return list(groups.values())


def _self_times(group) -> dict:
    child_time = {}
    for span in group:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (span.end - span.start)
    return {span.id: (span.end - span.start) - child_time.get(span.id, 0.0) for span in group}


def _sums(group) -> dict:
    """Per-name sums over one root's spans: calls, total_s, self_s, macs,
    bytes, tape_nodes; cfe_forward also per level as cfe.cfe_forward.L<n>."""
    selfs = _self_times(group)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for span in group[1:]:
        names = [span.name]
        if "level" in span.attrs:
            names.append(f"{span.name}.L{span.attrs['level']}")
        for name in names:
            add(f"{name}.calls", 1)
            add(f"{name}.total_s", span.end - span.start)
            add(f"{name}.self_s", selfs[span.id])
            for attr in ("macs", "bytes", "tape_nodes"):
                if attr in span.attrs:
                    add(f"{name}.{attr}", span.attrs[attr])
    root = group[0]
    out["tensor.tape.nodes"] = root.attrs.get("tape_nodes", 0)
    out["tensor.tape.bytes"] = root.attrs.get("tape_bytes", 0)
    return out


def per_op_values(tracer: Tracer, root_name: str, mac_counts: list | None = None) -> list:
    """One dict of raw per-layer values for each root span called root_name;
    mac_counts, when given, holds the count_macs() tallies of each root."""
    rows = []
    for i, group in enumerate(_by_root(tracer.spans, root_name)):
        row = _sums(group)
        if mac_counts is not None:
            row.update({f"attention.mac.{k}": v for k, v in mac_counts[i].items()})
        rows.append(row)
    return rows


# Per-layer metrics read from the traced set-up rather than the ops.
SETUP_METRICS = ("tensorio.tensor_read.self_s", "tensorio.tensor_read.mb",
                 "tensor.Rng.tensor.self_s", "pipeline.build_pipeline_params.total_s")


def _value(row: dict, name: str) -> float:
    """A metric from one row of raw sums: <x>.mb is <x>.bytes in 10^6
    bytes, <x>.mac_per_s is <x>.macs over <x>.total_s."""
    if name.endswith(".mb"):
        return row.get(name[:-len(".mb")] + ".bytes", 0) / 1e6
    if name.endswith(".mac_per_s"):
        stem = name[:-len(".mac_per_s")]
        secs = row.get(stem + ".total_s", 0.0)
        return row.get(stem + ".macs", 0) / secs if secs > 0 else 0.0
    return row.get(name, 0)


def layer_metrics(names, setup_rows: list, op_rows: list) -> dict:
    """Median over set-ups or ops of each named metric; 0 where the layer
    never ran."""
    out = {}
    for name in names:
        rows = setup_rows if name in SETUP_METRICS else op_rows
        out[name] = statistics.median(_value(r, name) for r in rows) if rows else 0.0
    return out
