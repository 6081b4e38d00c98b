import numpy as np
import pytest

from cafbifpn import tensor as T
from cafbifpn import tensorio as IO


def arr(x) -> np.ndarray:
    if isinstance(x, (T.Tensor, T.Node)):
        return np.asarray(T._val(x), dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def max_abs_diff(a, b) -> float:
    da, db = arr(a), arr(b)
    assert da.shape == db.shape, f"shape mismatch {da.shape} vs {db.shape}"
    return float(np.max(np.abs(da - db))) if da.size else 0.0


def topk_ties_descending(row, k: int) -> np.ndarray:
    """A deliberately wrong routing selection: ties broken by descending
    region id instead of ascending.  Tests patch it over
    attention._topk_indices_row to show the checks catch it."""
    order = sorted(range(len(row)), key=lambda i: (-row[i], -i))
    return np.asarray(order[:k], dtype=np.int64)


def scaled_vjp(a, factor):
    """a unchanged on the forward, its gradient times factor on the
    backward: a deliberately wrong VJP that tests put in front of an
    operand to show the gradient checks catch it."""
    return T._emit((a,), T._val(a).copy(), lambda g: (g * factor,))


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixture")
    IO.gen_fixture(0, d)
    return d
