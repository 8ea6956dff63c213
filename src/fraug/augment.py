"""Augmentation operators on the concatenated (C, b+h) look-back+horizon.

Every operator maps that array to a new one of the same shape.
Frequency-domain operators (masking, the keep-dominant variant, mixing,
and their composition) draw one mask per window and transform all of
it, so the data-label pair stays consistent. Time-domain baselines,
ASD averaging and MBB (one block draw per window) are for comparison.
apply_augment alone turns a dataset.WindowSample into that array and
back, drawing mixing partners from a Windows pool; expand_dataset alone
makes augmented copies, for training steps, expansions and fraug augment.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Windows, WindowSample, check_count
from .spectral import irfft_signal, rfft_bins

FREQ_KINDS = ("freq_mask", "freq_mix", "freq_mask_keep_dominant", "freq_mask_then_mix")
MIX_KINDS = ("freq_mix", "freq_mask_then_mix")
BASELINE_KINDS = ("noise", "noise_both", "time_mask_random", "time_mask_segment", "flip", "warp")
ALL_KINDS = FREQ_KINDS + BASELINE_KINDS + ("asd", "mbb", "none")
# MBB's decomposition period (the daily cycle of the hourly datasets);
# the bins per channel freq_mask_keep_dominant never masks; the noise
# kinds' scale factors 1 +- NOISE_SCALE; warp's stretch factors.
MBB_PERIOD = 24
KEEP_TOP = 10
NOISE_SCALE = 0.05
WARP_FACTORS = (0.5, 2.0)
# Shortest b + h each kind accepts, if above 1: two mbb periods; warp's L // 2 look-back >= 1.
MIN_WINDOW = {"mbb": 2 * MBB_PERIOD, "warp": 2}


@dataclass(frozen=True)
class AugmentSpec:
    """Which augmentation to apply and its rate."""

    kind: str = "none"
    rate: float = 0.2

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if isinstance(self.rate, bool):
            raise ValueError(f"rate must be a number, got {self.rate!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.kind in MIX_KINDS and self.rate > 0.5:
            raise ValueError(f"mix rate must be <= 0.5, got {self.rate}")


def freq_mask(x, mu, rng, keep_top=0):
    """Zero a random mu-fraction of spectrum bins of a (C, L) window.

    One keep-mask, each bin masked with probability mu, is drawn per
    window and every channel uses it. keep_top > 0 protects that many
    largest-amplitude bins per channel from masking (the keep-dominant
    variant).
    """
    check_count("keep_top", keep_top, 0)
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {mu}")
    c, n = x.shape
    n_bins = n // 2 + 1
    keep = rng.random(n_bins) >= mu
    bins = rfft_bins(x)
    if keep_top > 0:
        # Dominant bins are exempt per channel, so each channel gets its own row.
        keep = np.repeat(keep[None], c, axis=0)
        amps = np.abs(bins)
        top = np.argsort(amps, axis=1)[:, ::-1][:, : min(keep_top, n_bins)]
        np.put_along_axis(keep, top, True, axis=1)
    bins = np.where(keep, bins, 0.0 + 0.0j)
    return irfft_signal(bins, n)


def freq_mix(x1, x2, mu, rng):
    """Replace a mu-fraction of x1's spectrum bins with x2's.

    Every output bin comes from exactly one of the two sources (the
    second operand gets the bitwise-inverted mask). One mask is drawn
    per window and every channel uses it.
    """
    if x1.shape != x2.shape:
        raise ValueError(f"incompatible samples: {x1.shape} vs {x2.shape}")
    if not 0.0 <= mu <= 0.5:
        raise ValueError(f"mix rate must be in [0, 0.5], got {mu}")
    n = x1.shape[1]
    keep = rng.random(n // 2 + 1) >= mu
    mixed = np.where(keep, rfft_bins(x1), rfft_bins(x2))
    return irfft_signal(mixed, n)


def freq_mask_then_mix(x1, x2, mu, rng):
    """Sequential composition: mask both operands, then mix the results."""
    return freq_mix(freq_mask(x1, mu, rng), freq_mask(x2, mu, rng), mu, rng)


def baseline_augment(x, b, kind, rng, mu=0.2):
    """Time-domain baselines on a (C, b+h) window whose first b columns are the look-back.

    noise perturbs the look-back only, noise_both perturbs both parts;
    the masking and warping baselines operate on the look-back window;
    flip negates the whole window about each channel's mean.
    """
    if kind == "flip":
        return 2.0 * x.mean(axis=1, keepdims=True) - x
    out = x.copy()
    look, hor = out[:, :b], out[:, b:]
    if kind in ("noise", "noise_both"):
        look *= 1.0 + rng.uniform(-NOISE_SCALE, NOISE_SCALE, size=look.shape)
        if kind == "noise_both":
            hor *= 1.0 + rng.uniform(-NOISE_SCALE, NOISE_SCALE, size=hor.shape)
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
    elif kind == "warp":
        seg = min(max(2, int(round(mu * b))), b)
        start = int(rng.integers(0, b - seg + 1))
        factor = WARP_FACTORS[int(rng.integers(0, len(WARP_FACTORS)))]
        warped_len = max(2, int(round(seg * factor)))
        src = np.linspace(0, seg - 1, warped_len)
        back = np.linspace(0, warped_len - 1, seg)
        for ch in range(len(look)):
            stretched = np.interp(src, np.arange(seg), look[ch, start: start + seg])
            look[ch, start: start + seg] = np.interp(back, np.arange(warped_len), stretched)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return out


def dtw_distance(a, b):
    """Classic DTW with absolute-difference point cost, full window.

    a (..., n) and b (..., m) are stacks whose leading axes broadcast;
    1-D inputs give a float, stacks an array of one distance per pair.
    The accumulated-cost table is filled one anti-diagonal i + j = d at
    a time, from the two diagonals before it. Each cell adds its cost to
    the minimum of the same three neighbours as a row-by-row fill, so
    for finite input the bits are the same.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape[-1], b.shape[-1]
    if n == 0 or m == 0:
        raise ValueError("empty series")
    # Diagonal d is held as acc[i, d - i] for i = 0..n: acc[0, 0] is 0, and
    # cells off the table or on its border row and column are inf.
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n + 1,)
    before, last = np.full(shape, np.inf), np.full(shape, np.inf)
    before[..., 0] = 0.0
    b_rev = b[..., ::-1]
    for d in range(2, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        # Cell (i, d - i) for i = lo..hi; b_rev[m - d + i] is b[d - i - 1].
        cost = np.abs(a[..., lo - 1:hi] - b_rev[..., m - d + lo:m - d + hi + 1])
        step = np.minimum(np.minimum(last[..., lo - 1:hi], last[..., lo:hi + 1]),
                          before[..., lo - 1:hi])
        cur = np.full(shape, np.inf)
        np.add(cost, step, out=cur[..., lo:hi + 1])
        before, last = last, cur
    out = last[..., n]
    return float(out) if out.ndim == 0 else out


def asd_augment(x, pool, k=5):
    """Distance-weighted average of the k pool windows nearest to x.

    pool is an (n, C, L) array of candidate windows. Distance is DTW,
    one call per candidate for all channels, summed over the channels in
    channel order; weights are softmin with temperature = mean of the k
    distances.
    """
    check_count("k", k, 1)
    if len(pool) < k:
        raise ValueError(f"pool of {len(pool)} samples too small for k={k}")
    # cumsum adds in order; np.sum would add pairwise from 8 channels on.
    dists = np.asarray([np.cumsum(dtw_distance(x, cand))[-1] for cand in pool])
    nearest = np.argsort(dists, kind="stable")[:k]
    d = dists[nearest]
    tau = d.mean()
    w = np.exp(-d / tau) if tau else np.ones(k)
    w /= w.sum()
    return sum(wi * pool[i] for wi, i in zip(w, nearest))


def decompose(series, period):
    """Additive trend/seasonal/residual split of the last axis; components sum back exactly.

    Trend is a centered moving average of width `period` over a
    replicate-padded series; seasonal is the mean-centered per-phase
    average of the detrended values; residual is the remainder. A
    (..., n) stack is split row by row, each row to the same bits as the
    1-D call on it: each phase is summed down a non-last axis, in an
    order the leading axes do not change.
    """
    x = np.asarray(series, dtype=np.float64)
    check_count("period", period, 2)
    n = x.shape[-1]
    if n < 2 * period:
        raise ValueError(f"series of length {n} shorter than 2*period={2 * period}")
    pad_front = (period - 1) // 2
    pad_back = period - 1 - pad_front
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad_front, pad_back)], mode="edge")
    trend = sum(padded[..., j: j + n] for j in range(period)) / period
    detrended = x - trend
    # Phase means use only samples whose trend window saw no padding, so
    # edge artifacts do not leak into the seasonal component. Those samples
    # are laid out one period per row, zeros elsewhere, and summed down the rows.
    rows, kept = n // period + 1, slice(pad_front, n - pad_back)
    laid = np.zeros(x.shape[:-1] + (rows * period,))
    laid[..., kept] = detrended[..., kept]
    counts = np.bincount(np.arange(n)[kept] % period, minlength=period)
    phase_means = laid.reshape(x.shape[:-1] + (rows, period)).sum(axis=-2) / counts
    phase_means -= phase_means.mean(axis=-1, keepdims=True)
    seasonal = phase_means[..., np.arange(n) % period]
    residual = x - trend - seasonal
    return trend, seasonal, residual


def mbb_augment(x, period, rng, return_components=False):
    """Moving-block-bootstrap the residual of each channel of a (C, L) window.

    One decompose call splits every channel. Trend and seasonal
    components are untouched; only the residual is replaced by
    ceil(L / B) overlapping blocks of B = max(2, L // 10) columns, cut
    to L. Every block start of the window is drawn in one rng.integers
    call, channel by channel. With return_components, also returns
    per-channel (trend, seasonal, original residual, resampled residual).
    """
    c, n = x.shape
    block = max(2, n // 10)
    trend, seasonal, residual = decompose(x, period)
    starts = rng.integers(0, n - block + 1, size=(c, -(-n // block)))
    cols = (starts[:, :, None] + np.arange(block)).reshape(c, -1)[:, :n]
    boot = np.take_along_axis(residual, cols, axis=1)
    out = trend + seasonal + boot
    if return_components:
        return out, list(zip(trend, seasonal, residual, boot))
    return out


def apply_augment(sample, spec: AugmentSpec, rng, pool=None):
    """Augment one WindowSample according to spec into a new WindowSample.

    Here the sample becomes the (C, b+h) array the operators take, and
    their result a sample again. Mixing kinds draw their partner
    uniformly from the Windows set `pool` (one rng.integers call, before
    any mask); asd takes `pool` as its candidate neighbors. Both need a
    non-empty pool; other kinds ignore it.
    """
    kind = spec.kind
    if (kind in MIX_KINDS or kind == "asd") and not pool:
        raise ValueError(f"{kind} needs a non-empty pool of windows")
    b = sample.lookback.shape[1]
    x = sample.concat()
    if kind == "none":
        out = x
    elif kind == "freq_mask":
        out = freq_mask(x, spec.rate, rng)
    elif kind == "freq_mask_keep_dominant":
        out = freq_mask(x, spec.rate, rng, keep_top=KEEP_TOP)
    elif kind in MIX_KINDS:
        partner = pool[int(rng.integers(0, len(pool)))]
        mix = freq_mix if kind == "freq_mix" else freq_mask_then_mix
        out = mix(x, partner.concat(), spec.rate, rng)
    elif kind in BASELINE_KINDS:
        out = baseline_augment(x, b, kind, rng, mu=spec.rate)
    elif kind == "asd":
        out = asd_augment(x, pool.data)
    else:  # mbb; a validated spec has no other kind
        out = mbb_augment(x, MBB_PERIOD, rng)
    return WindowSample.split(out, b)


def expand_dataset(samples, spec: AugmentSpec, factor, rng, pool=None):
    """Originals plus (factor - 1) augmented copies of each window of a Windows set.

    The result is a Windows set whose one contiguous array holds all
    originals first, then the augmented copies grouped by round. Every
    copy draws from `rng`, round by round and in window order, so a
    smaller factor's output is a prefix of a larger one's under the same
    seed. Mixing partners and asd neighbors come from the Windows set
    `pool`, by default the input set.
    """
    check_count("factor", factor, 1)
    pool = samples if pool is None else pool
    n, b = len(samples), samples.b
    data = np.empty((factor * n,) + samples.data.shape[1:])
    data[:n] = samples.data
    # Each copy goes straight into its row, so no list of copies is kept.
    for k, sample in enumerate(list(samples) * (factor - 1), start=n):
        copy = apply_augment(sample, spec, rng, pool=pool)
        data[k, :, :b] = copy.lookback
        data[k, :, b:] = copy.horizon
    return Windows(data, b)
