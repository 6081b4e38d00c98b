"""Runtime counters: exact multiply-accumulate tallies per attention stage,
attention invocation counts, and smoothness-margin probes used by the
gradient checks to decide when an instance must be resampled.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

_MAC_COUNTER: ContextVar["MacCounter | None"] = ContextVar("mac_counter", default=None)
_KINK_MONITOR: ContextVar["KinkMonitor | None"] = ContextVar("kink_monitor", default=None)


@dataclass
class MacCounter:
    """Exact integer tallies; gather counts copied elements, not MACs."""

    routing: int = 0
    gather: int = 0
    qk: int = 0
    av: int = 0
    lce: int = 0
    ba_invocations: int = 0

    def as_dict(self) -> dict:
        return {"routing": self.routing, "gather": self.gather, "qk": self.qk,
                "av": self.av, "lce": self.lce}


@dataclass
class KinkMonitor:
    """Tracks how close a forward pass came to non-smooth points."""

    min_relu_gap: float = field(default=np.inf)
    min_lattice_gap: float = field(default=np.inf)
    min_clamp_gap: float = field(default=np.inf)
    min_routing_margin: float = field(default=np.inf)

    def record_relu(self, pre: np.ndarray) -> None:
        if pre.size:
            self.min_relu_gap = min(self.min_relu_gap, float(np.abs(pre).min()))

    def record_lattice(self, pos: np.ndarray) -> None:
        if pos.size:
            gap = float(np.abs(pos - np.round(pos)).min())
            self.min_lattice_gap = min(self.min_lattice_gap, gap)

    def record_clamp(self, raw: np.ndarray) -> None:
        if raw.size:
            self.min_clamp_gap = min(self.min_clamp_gap, float(np.abs(raw).min()))

    def record_routing_margin(self, margin: float) -> None:
        self.min_routing_margin = min(self.min_routing_margin, float(margin))


def active_mac_counter() -> MacCounter | None:
    return _MAC_COUNTER.get()


def active_kink_monitor() -> KinkMonitor | None:
    return _KINK_MONITOR.get()


@contextlib.contextmanager
def count_macs(counter: MacCounter | None = None):
    counter = counter if counter is not None else MacCounter()
    token = _MAC_COUNTER.set(counter)
    try:
        yield counter
    finally:
        _MAC_COUNTER.reset(token)


@contextlib.contextmanager
def watch_kinks(monitor: KinkMonitor | None = None):
    monitor = monitor if monitor is not None else KinkMonitor()
    token = _KINK_MONITOR.set(monitor)
    try:
        yield monitor
    finally:
        _KINK_MONITOR.reset(token)
