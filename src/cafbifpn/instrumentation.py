"""The run record: exact multiply-accumulate tallies per attention stage,
the attention invocation count, and how close a forward came to each
non-smooth point, which the gradient checks use to decide when an
instance must be resampled.  count_macs() makes a record active for its
context; code that finds none active records nothing.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

_RECORD: ContextVar["RunRecord | None"] = ContextVar("run_record", default=None)


@dataclass
class RunRecord:
    """Exact integer tallies (gather counts copied elements, not MACs) and,
    per kink (relu zero, sampling lattice, weight clamp, routing tie), the
    smallest distance seen to it."""

    routing: int = 0
    gather: int = 0
    qk: int = 0
    av: int = 0
    lce: int = 0
    ba_invocations: int = 0
    margins: dict = field(default_factory=lambda: dict.fromkeys(
        ("relu", "lattice", "clamp", "routing"), np.inf))

    def as_dict(self) -> dict:
        return {"routing": self.routing, "gather": self.gather, "qk": self.qk,
                "av": self.av, "lce": self.lce}

    def margin(self, kink: str, distances: np.ndarray) -> None:
        """Keep the smallest of these non-negative distances to the kink."""
        if distances.size:
            self.margins[kink] = min(self.margins[kink], float(distances.min()))


def active_record() -> RunRecord | None:
    return _RECORD.get()


@contextlib.contextmanager
def count_macs():
    """A fresh RunRecord, active until the block exits."""
    record = RunRecord()
    token = _RECORD.set(record)
    try:
        yield record
    finally:
        _RECORD.reset(token)
