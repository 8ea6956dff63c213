import os
from pathlib import Path

import numpy as np
import pytest

from fraug.dataset import Windows, WindowSample


def naive_dft(x):
    """O(N^2) DFT by direct summation; the spectral test oracle."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    mat = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return mat @ x


def naive_rfft(x):
    return naive_dft(x)[: len(x) // 2 + 1]


def naive_irfft(bins, n):
    """Inverse DFT oracle: rebuild the full spectrum, sum directly."""
    bins = np.asarray(bins, dtype=np.complex128)
    full = np.empty(n, dtype=np.complex128)
    full[: len(bins)] = bins
    if n > 1:
        tail = bins[1: (n + 1) // 2]
        full[len(bins):] = np.conj(tail[::-1])
    k = np.arange(n)
    mat = np.exp(2j * np.pi * np.outer(k, k) / n)
    return np.real(mat @ full) / n


def dtw_brute(a, b):
    """Recursive DTW oracle, memoized; independent of the DP version."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        cost = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return cost
        best = float("inf")
        if i > 0:
            best = min(best, rec(i - 1, j))
        if j > 0:
            best = min(best, rec(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, rec(i - 1, j - 1))
        return cost + best

    return rec(len(a) - 1, len(b) - 1)


def make_sample(c=2, b=16, h=8, seed=0):
    rng = np.random.default_rng(seed)
    return WindowSample(
        lookback=rng.normal(size=(c, b)),
        horizon=rng.normal(size=(c, h)),
    )


def random_windows(n, c, b, h, seed):
    """n windows of standard-normal values as one Windows set."""
    rng = np.random.default_rng(seed)
    return Windows(rng.normal(size=(n, c, b + h)), b)


def assert_windows_equal(samples, reference):
    """Window by window: equal look-back and horizon arrays.

    reference is a sequence of (lookback, horizon) pairs.
    """
    assert len(samples) == len(reference)
    for sample, (look, hor) in zip(samples, reference):
        np.testing.assert_array_equal(sample.lookback, look)
        np.testing.assert_array_equal(sample.horizon, hor)


def tone_sample(c, b, h, bin_k, amplitude=1.0):
    """Sample whose concatenation is a pure cosine at one-sided bin k."""
    n = b + h
    t = np.arange(n)
    wave = amplitude * np.cos(2.0 * np.pi * bin_k * t / n)
    s = np.tile(wave, (c, 1))
    return WindowSample(lookback=s[:, :b].copy(), horizon=s[:, b:].copy())


def ett_data_dir():
    return Path(os.environ.get("FRAUG_DATA_DIR", Path(__file__).parent.parent / "data"))


def require_ett(name):
    path = ett_data_dir() / name
    if not path.exists():
        pytest.skip(
            f"{name} not found in {ett_data_dir()} (set FRAUG_DATA_DIR or place "
            f"the public ETT benchmark CSVs in ./data)"
        )
    return path
