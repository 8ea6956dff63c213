"""Augmentation operators for forecasting windows.

Frequency-domain operators (masking, mixing, the keep-dominant variant,
and their composition) act on the concatenated look-back+horizon so the
data-label pair stays consistent. Time-domain baselines (noise, masking,
flipping, warping), distance-weighted averaging (ASD), and residual
block bootstrap (MBB) are included for comparison.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Windows, WindowSample
from .spectral import irfft_signal, rfft_bins

FREQ_KINDS = ("freq_mask", "freq_mix", "freq_mask_keep_dominant", "freq_mask_then_mix")
MIX_KINDS = ("freq_mix", "freq_mask_then_mix")
BASELINE_KINDS = ("noise", "noise_both", "time_mask_random", "time_mask_segment", "flip", "warp")
ALL_KINDS = FREQ_KINDS + BASELINE_KINDS + ("asd", "mbb", "none")
# MBB's decomposition period: the daily cycle of the hourly datasets.
MBB_PERIOD = 24


@dataclass
class AugmentSpec:
    """Which augmentation to apply and its rate."""

    kind: str = "none"
    rate: float = 0.2

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.kind in MIX_KINDS and self.rate > 0.5:
            raise ValueError(f"mix rate must be <= 0.5, got {self.rate}")


def create_random_mask(length, mu, rng):
    """Boolean keep-mask over spectrum bins; each bin masked w.p. mu."""
    if length < 1:
        raise ValueError("mask length must be >= 1")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {mu}")
    return rng.random(length) >= mu


def freq_mask(sample, mu, rng, exempt_top=0):
    """Zero a random mu-fraction of spectrum bins of the concatenated window.

    One mask is drawn per window and every channel uses it. exempt_top
    > 0 protects that many largest-amplitude bins per channel from
    masking (the keep-dominant variant).
    """
    c, b, h = sample.shape
    s = sample.concat()
    n_bins = (b + h) // 2 + 1
    keep = create_random_mask(n_bins, mu, rng)
    bins = rfft_bins(s)
    if exempt_top > 0:
        # Dominant bins are exempt per channel, so each channel gets its own row.
        keep = np.repeat(keep[None], c, axis=0)
        amps = np.abs(bins)
        top = np.argsort(amps, axis=1)[:, ::-1][:, : min(exempt_top, n_bins)]
        np.put_along_axis(keep, top, True, axis=1)
    bins = np.where(keep, bins, 0.0 + 0.0j)
    out = irfft_signal(bins, b + h)
    return WindowSample.split(out, b, sample.start_index)


def freq_mask_keep_dominant(sample, mu, rng, keep_top=10):
    """freq_mask with the keep_top largest-amplitude bins exempt per channel."""
    if keep_top < 0:
        raise ValueError("keep_top must be >= 0")
    return freq_mask(sample, mu, rng, exempt_top=keep_top)


def freq_mix(sample1, sample2, mu, rng):
    """Replace a mu-fraction of sample1's spectrum bins with sample2's.

    Every output bin comes from exactly one of the two sources (the
    second operand gets the bitwise-inverted mask). One mask is drawn
    per window and every channel uses it.
    """
    if sample1.shape != sample2.shape:
        raise ValueError(
            f"incompatible samples: {sample1.shape} vs {sample2.shape}"
        )
    if mu > 0.5:
        raise ValueError(f"mix rate must be <= 0.5, got {mu}")
    _, b, h = sample1.shape
    s1, s2 = sample1.concat(), sample2.concat()
    n_bins = (b + h) // 2 + 1
    keep = create_random_mask(n_bins, mu, rng)
    mixed = np.where(keep, rfft_bins(s1), rfft_bins(s2))
    out = irfft_signal(mixed, b + h)
    return WindowSample.split(out, b, sample1.start_index)


def freq_mask_then_mix(sample1, sample2, mu, rng):
    """Sequential composition: mask both operands, then mix the results."""
    a = freq_mask(sample1, mu, rng)
    b = freq_mask(sample2, mu, rng)
    return freq_mix(a, b, mu, rng)


def baseline_augment(sample, kind, rng, mu=0.2, noise_scale=0.05, warp_factors=(0.5, 2.0)):
    """Time-domain baseline augmentations.

    noise perturbs the look-back only, noise_both perturbs both parts;
    the masking and warping baselines operate on the look-back window;
    flip negates the whole window about each channel's mean.
    """
    c, b, h = sample.shape
    look = sample.lookback.copy()
    hor = sample.horizon.copy()
    if kind == "noise":
        look *= 1.0 + rng.uniform(-noise_scale, noise_scale, size=look.shape)
    elif kind == "noise_both":
        look *= 1.0 + rng.uniform(-noise_scale, noise_scale, size=look.shape)
        hor *= 1.0 + rng.uniform(-noise_scale, noise_scale, size=hor.shape)
    elif kind == "time_mask_random":
        n_masked = int(round(mu * b))
        if n_masked > 0:
            idx = rng.choice(b, size=n_masked, replace=False)
            look[:, idx] = 0.0
    elif kind == "time_mask_segment":
        seg = int(round(mu * b))
        if seg > 0:
            start = int(rng.integers(0, b - seg + 1))
            look[:, start: start + seg] = 0.0
    elif kind == "flip":
        s = np.concatenate([look, hor], axis=1)
        mean = s.mean(axis=1, keepdims=True)
        s = 2.0 * mean - s
        look, hor = s[:, :b], s[:, b:]
    elif kind == "warp":
        seg = max(2, int(round(mu * b)))
        seg = min(seg, b)
        start = int(rng.integers(0, b - seg + 1))
        factor = warp_factors[int(rng.integers(0, len(warp_factors)))]
        warped_len = max(2, int(round(seg * factor)))
        src = np.linspace(0, seg - 1, warped_len)
        back = np.linspace(0, warped_len - 1, seg)
        for ch in range(c):
            stretched = np.interp(src, np.arange(seg), look[ch, start: start + seg])
            look[ch, start: start + seg] = np.interp(back, np.arange(warped_len), stretched)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return WindowSample(lookback=look, horizon=hor, start_index=sample.start_index)


def dtw_distance(a, b):
    """Classic DTW with absolute-difference point cost, full window."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty series")
    n, m = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :])
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        row = acc[i]
        prev = acc[i - 1]
        ci = cost[i - 1]
        for j in range(1, m + 1):
            row[j] = ci[j - 1] + min(prev[j], row[j - 1], prev[j - 1])
    return float(acc[n, m])


def asd_augment(target, pool, k=5):
    """Distance-weighted average of the k nearest pool samples.

    Distance is DTW on the concatenated window, summed over channels;
    weights are softmin with temperature = mean of the k distances.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(pool) < k:
        raise ValueError(f"pool of {len(pool)} samples too small for k={k}")
    t = target.concat()
    dists = []
    for cand in pool:
        s = cand.concat()
        dists.append(sum(dtw_distance(t[ch], s[ch]) for ch in range(t.shape[0])))
    dists = np.asarray(dists)
    nearest = np.argsort(dists, kind="stable")[:k]
    d = dists[nearest]
    tau = d.mean()
    if tau == 0.0:
        w = np.full(k, 1.0 / k)
    else:
        w = np.exp(-d / tau)
        w /= w.sum()
    look = sum(wi * pool[i].lookback for wi, i in zip(w, nearest))
    hor = sum(wi * pool[i].horizon for wi, i in zip(w, nearest))
    return WindowSample(lookback=look, horizon=hor, start_index=target.start_index)


def decompose(series, period):
    """Additive trend/seasonal/residual split; components sum back exactly.

    Trend is a centered moving average of width `period` over a
    replicate-padded series; seasonal is the mean-centered per-phase
    average of the detrended values; residual is the remainder.
    """
    x = np.asarray(series, dtype=np.float64)
    if period < 2:
        raise ValueError("period must be >= 2")
    n = len(x)
    if n < 2 * period:
        raise ValueError(f"series of length {n} shorter than 2*period={2 * period}")
    pad_front = (period - 1) // 2
    pad_back = period - 1 - pad_front
    padded = np.concatenate([np.repeat(x[0], pad_front), x, np.repeat(x[-1], pad_back)])
    kernel = np.full(period, 1.0 / period)
    trend = np.convolve(padded, kernel, mode="valid")
    detrended = x - trend
    seasonal = np.empty(n)
    # Phase means use only samples whose trend window saw no padding, so
    # edge artifacts do not leak into the seasonal component.
    idx = np.arange(pad_front, n - pad_back)
    phase_means = np.array(
        [detrended[idx[idx % period == p]].mean() for p in range(period)]
    )
    phase_means -= phase_means.mean()
    for p in range(period):
        seasonal[p::period] = phase_means[p]
    residual = x - trend - seasonal
    return trend, seasonal, residual


def _block_bootstrap(residual, block_len, rng):
    n = len(residual)
    if not 1 <= block_len <= n:
        raise ValueError(f"block length {block_len} out of range [1, {n}]")
    n_starts = n - block_len + 1
    pieces = []
    total = 0
    while total < n:
        start = int(rng.integers(0, n_starts))
        pieces.append(residual[start: start + block_len])
        total += block_len
    return np.concatenate(pieces)[:n]


def mbb_augment(sample, period, rng, block_len=None, return_components=False):
    """Moving-block-bootstrap the residual of each channel's window.

    Trend and seasonal components are untouched; only the residual is
    replaced by a resample of overlapping blocks. With
    return_components, also returns per-channel (trend, seasonal,
    original residual, resampled residual).
    """
    c, b, h = sample.shape
    s = sample.concat()
    n = b + h
    if block_len is None:
        block_len = max(2, n // 10)
    out = np.empty_like(s)
    components = []
    for ch in range(c):
        trend, seasonal, residual = decompose(s[ch], period)
        boot = _block_bootstrap(residual, block_len, rng)
        out[ch] = trend + seasonal + boot
        if return_components:
            components.append((trend, seasonal, residual, boot))
    augmented = WindowSample.split(out, b, sample.start_index)
    if return_components:
        return augmented, components
    return augmented


def apply_augment(sample, spec: AugmentSpec, rng, partner=None, pool=None):
    """Dispatch one augmentation according to spec.

    Mixing kinds mix with `partner`; without one they draw it uniformly
    from `pool` (one rng.integers call, before any mask). asd needs
    `pool` as its candidate neighbors; other kinds ignore both.
    """
    kind = spec.kind
    if kind in MIX_KINDS and partner is None:
        if not pool:
            raise ValueError(f"{kind} needs a partner sample or a pool to draw one from")
        partner = pool[int(rng.integers(0, len(pool)))]
    if kind == "none":
        return WindowSample(
            lookback=sample.lookback.copy(),
            horizon=sample.horizon.copy(),
            start_index=sample.start_index,
        )
    if kind == "freq_mask":
        return freq_mask(sample, spec.rate, rng)
    if kind == "freq_mask_keep_dominant":
        return freq_mask_keep_dominant(sample, spec.rate, rng)
    if kind == "freq_mix":
        return freq_mix(sample, partner, spec.rate, rng)
    if kind == "freq_mask_then_mix":
        return freq_mask_then_mix(sample, partner, spec.rate, rng)
    if kind in BASELINE_KINDS:
        return baseline_augment(sample, kind, rng, mu=spec.rate)
    if kind == "asd":
        if pool is None:
            raise ValueError("asd needs a candidate pool")
        return asd_augment(sample, pool)
    if kind == "mbb":
        return mbb_augment(sample, MBB_PERIOD, rng)
    raise ValueError(f"unknown augmentation kind {kind!r}")


def expand_dataset(samples, spec: AugmentSpec, factor, rng):
    """Originals plus (factor - 1) augmented copies of each sample.

    samples is a Windows set or a list of WindowSamples. The result is
    a Windows set whose one contiguous array holds all originals first,
    then the augmented copies grouped by round. Every copy draws from
    `rng`, round by round and in sample order, so a smaller factor's
    output is a prefix of a larger one's under the same seed. freq_mix
    partners are drawn uniformly from the input set.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    samples = Windows.of(samples)
    n, b = len(samples), samples.b
    data = np.empty((factor * n,) + samples.data.shape[1:])
    data[:n] = samples.data
    # Each copy goes straight into its row, so no list of copies is kept.
    for k, sample in enumerate(list(samples) * (factor - 1), start=n):
        copy = apply_augment(sample, spec, rng, pool=samples)
        data[k, :, :b] = copy.lookback
        data[k, :, b:] = copy.horizon
    return Windows(data, b, np.tile(samples.starts, factor))
