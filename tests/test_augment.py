import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraug
from fraug import augment
from fraug.augment import (ALL_KINDS, KEEP_TOP, AugmentSpec, apply_augment,
                           asd_augment, baseline_augment, decompose, dtw_distance,
                           expand_dataset, freq_mask, freq_mix, mbb_augment)
from fraug.dataset import Windows, span_windows
from fraug.spectral import rfft, rfft_bins

from conftest import (assert_windows_equal, dtw_brute, make_sample, random_windows,
                      tone_sample)


def window(c=2, b=16, h=8, seed=0):
    """(C, b+h) window of standard-normal values."""
    return make_sample(c=c, b=b, h=h, seed=seed).concat()


def tone(c, b, h, bin_k, amplitude=1.0):
    """(C, b+h) window that is a pure cosine at one-sided bin k."""
    return tone_sample(c, b, h, bin_k, amplitude).concat()


def assert_samples_close(a, b, atol=1e-9):
    np.testing.assert_allclose(a.lookback, b.lookback, atol=atol)
    np.testing.assert_allclose(a.horizon, b.horizon, atol=atol)


def one_window_pool(sample):
    """The Windows set holding one WindowSample, a mixing partner's pool."""
    return Windows(sample.concat()[None], sample.lookback.shape[1],
                   np.array([sample.start_index]))


def impulse_keep_mask(n_bins, mu, rng):
    """freq_mask's keep-mask over n_bins bins, read from the spectrum of a
    masked unit impulse, whose every bin is 1."""
    x = np.zeros((1, 2 * n_bins - 2))
    x[0, 0] = 1.0
    return np.abs(rfft_bins(freq_mask(x, mu, rng))[0]) > 0.5


class TestRandomMask:
    def test_rate_zero_keeps_all(self):
        rng = np.random.default_rng(0)
        assert impulse_keep_mask(50, 0.0, rng).all()

    def test_rate_one_masks_all(self):
        rng = np.random.default_rng(0)
        assert not impulse_keep_mask(50, 1.0, rng).any()

    def test_masked_fraction_concentrates(self):
        # Binomial(10000, 0.3): P(|frac - 0.3| >= 0.02) < 1e-2.
        rng = np.random.default_rng(42)
        keep = impulse_keep_mask(10000, 0.3, rng)
        assert len(keep) == 10000
        frac = 1.0 - keep.mean()
        assert 0.28 < frac < 0.32

    @pytest.mark.parametrize("op,mu,message", [
        (freq_mask, -0.1, "rate must be in"), (freq_mask, 1.1, "rate must be in"),
        (freq_mix, -0.1, "mix rate must be in"), (freq_mix, 0.6, "mix rate must be in"),
    ])
    def test_rate_out_of_range_rejected(self, op, mu, message):
        args = (window(),) if op is freq_mask else (window(), window())
        with pytest.raises(ValueError, match=message):
            op(*args, mu, np.random.default_rng(0))


class TestFreqMask:
    def test_mu_zero_is_round_trip_identity(self):
        x = window(c=3, b=20, h=10, seed=1)
        out = freq_mask(x, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_constant_sample_with_dc_kept(self):
        x = np.full((2, 18), 5.0)
        # keep_top=1 exempts the DC bin, the only nonzero one, from any mask.
        rng = np.random.default_rng(3)
        for _ in range(20):
            out = freq_mask(x, 0.8, rng, keep_top=1)
            np.testing.assert_allclose(out, x, atol=1e-9)

    def test_single_tone_annihilation(self):
        b, h, k = 16, 8, 5
        x = tone(2, b, h, k)
        bins = rfft(x[0]).bins
        nonzero = np.flatnonzero(np.abs(bins) > 1e-9)
        assert list(nonzero) == [k]  # oracle: single one-sided bin
        rng = np.random.default_rng(0)
        # With mu=1 everything is masked, including bin k -> all-zero output.
        out = freq_mask(x, 1.0, rng)
        assert np.max(np.abs(out)) < 1e-9

    def test_shape_preserved(self):
        x = window(c=4, b=33, h=17)
        out = freq_mask(x, 0.4, np.random.default_rng(1))
        assert out.shape == x.shape

    def test_energy_non_increase(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            x = window(c=2, b=64, h=32, seed=seed)
            out = freq_mask(x, 0.3, rng)
            for ch in range(2):
                assert np.sum(out[ch] ** 2) <= np.sum(x[ch] ** 2) + 1e-9

    def test_mask_faithfulness(self):
        x = window(c=1, b=32, h=16, seed=2)
        rng = np.random.default_rng(11)
        out = freq_mask(x, 0.5, rng)
        before = rfft(x[0]).bins
        after = rfft(out[0]).bins
        for k in range(len(before)):
            keep = abs(after[k] - before[k]) < 1e-9
            zeroed = abs(after[k]) < 1e-9
            assert keep or zeroed

    def test_masking_hits_both_lookback_and_horizon(self):
        # Semantic consistency: the tone vanishes in both window parts.
        sample = tone_sample(1, 24, 12, 3)
        out = apply_augment(sample, AugmentSpec(kind="freq_mask", rate=1.0),
                            np.random.default_rng(0))
        assert out.lookback.shape == sample.lookback.shape
        assert out.horizon.shape == sample.horizon.shape
        assert np.max(np.abs(out.lookback)) < 1e-9
        assert np.max(np.abs(out.horizon)) < 1e-9

    def test_negative_keep_top_rejected(self):
        with pytest.raises(ValueError, match="keep_top must be >= 0"):
            freq_mask(window(), 0.2, np.random.default_rng(0), keep_top=-1)


class TestFreqMix:
    def test_self_mix_identity(self):
        x = window(c=2, b=24, h=12, seed=3)
        for mu in (0.1, 0.3, 0.5):
            out = freq_mix(x, x, mu, np.random.default_rng(0))
            np.testing.assert_allclose(out, x, atol=1e-9)

    def test_mu_zero_returns_first(self):
        x1, x2 = window(seed=1), window(seed=2)
        out = freq_mix(x1, x2, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(out, x1, atol=1e-9)

    def test_two_tone_composition(self):
        b, h, k1, k2 = 16, 8, 2, 7
        x1 = tone(1, b, h, k1)
        x2 = tone(1, b, h, k2)
        # Oracle: each operand has a single nonzero one-sided bin.
        assert list(np.flatnonzero(np.abs(rfft(x1[0]).bins) > 1e-9)) == [k1]
        assert list(np.flatnonzero(np.abs(rfft(x2[0]).bins) > 1e-9)) == [k2]
        # Replacing any mask that covers k2 but not k1 yields the two-tone sum.
        rng = np.random.default_rng(0)
        expected = x1 + x2
        for _ in range(50):
            out = freq_mix(x1, x2, 0.5, rng)
            after = rfft(out[0]).bins
            has_k1 = abs(after[k1]) > 1e-9
            has_k2 = abs(after[k2]) > 1e-9
            if has_k1 and has_k2:
                np.testing.assert_allclose(out, expected, atol=1e-9)
                break
        else:
            pytest.fail("no sampled mask replaced bin k2 while keeping k1")

    def test_bin_exclusivity(self):
        x1, x2 = window(c=1, b=32, h=16, seed=4), window(c=1, b=32, h=16, seed=5)
        out = freq_mix(x1, x2, 0.4, np.random.default_rng(9))
        bins1 = rfft(x1[0]).bins
        bins2 = rfft(x2[0]).bins
        mixed = rfft(out[0]).bins
        for k in range(len(mixed)):
            assert (abs(mixed[k] - bins1[k]) < 1e-9) or (abs(mixed[k] - bins2[k]) < 1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible samples"):
            freq_mix(window(b=16), window(b=20), 0.2, np.random.default_rng(0))

    def test_rate_above_half_rejected(self):
        with pytest.raises(ValueError, match="mix rate"):
            freq_mix(window(), window(), 0.6, np.random.default_rng(0))


class TestKeepDominant:
    def test_everything_exempt_is_identity(self):
        x = window(c=2, b=20, h=10, seed=6)
        n_bins = 30 // 2 + 1
        out = freq_mask(x, 1.0, np.random.default_rng(0), keep_top=n_bins)
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_keep_top_zero_equals_freq_mask(self):
        x = window(c=2, b=20, h=10, seed=7)
        out1 = freq_mask(x, 0.4, np.random.default_rng(5), keep_top=0)
        out2 = freq_mask(x, 0.4, np.random.default_rng(5))
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_dominant_tone_survives(self):
        b, h = 16, 8
        strong = tone(1, b, h, 3, amplitude=10.0)
        weak = tone(1, b, h, 6, amplitude=1.0)
        out = freq_mask(strong + weak, 1.0, np.random.default_rng(0), keep_top=1)
        np.testing.assert_allclose(out, strong, atol=1e-9)

    def test_kind_exempts_keep_top_bins(self):
        sample = make_sample(c=2, b=40, h=20, seed=8)
        spec = AugmentSpec(kind="freq_mask_keep_dominant", rate=0.5)
        out = apply_augment(sample, spec, np.random.default_rng(4))
        want = freq_mask(sample.concat(), 0.5, np.random.default_rng(4), keep_top=KEEP_TOP)
        np.testing.assert_array_equal(out.concat(), want)


class TestBaselines:
    def test_noise_leaves_horizon_untouched(self):
        x = window(seed=8)
        out = baseline_augment(x, 16, "noise", np.random.default_rng(0))
        np.testing.assert_array_equal(out[:, 16:], x[:, 16:])
        assert np.any(out[:, :16] != x[:, :16])

    def test_noise_both_touches_horizon(self):
        x = window(seed=8)
        out = baseline_augment(x, 16, "noise_both", np.random.default_rng(0))
        assert np.any(out[:, 16:] != x[:, 16:])

    def test_flip_is_involution(self):
        x = window(seed=9)
        rng = np.random.default_rng(0)
        twice = baseline_augment(baseline_augment(x, 16, "flip", rng), 16, "flip", rng)
        np.testing.assert_allclose(twice, x, atol=1e-12)

    def test_time_mask_segment_contiguous(self):
        x = window(c=1, b=10, h=4, seed=10)
        x[:, :10] += 100.0  # no accidental zeros
        out = baseline_augment(x, 10, "time_mask_segment", np.random.default_rng(7), mu=0.5)
        zeros = np.flatnonzero(out[0, :10] == 0.0)
        assert len(zeros) == 5
        assert np.all(np.diff(zeros) == 1)

    def test_time_mask_random_count(self):
        x = window(c=1, b=20, h=4, seed=11)
        x[:, :20] += 100.0
        out = baseline_augment(x, 20, "time_mask_random", np.random.default_rng(7), mu=0.3)
        assert (out[0, :20] == 0.0).sum() == 6

    def test_warp_preserves_shape(self):
        x = window(c=2, b=30, h=10, seed=12)
        out = baseline_augment(x, 30, "warp", np.random.default_rng(1), mu=0.4)
        assert out.shape == x.shape
        np.testing.assert_array_equal(out[:, 30:], x[:, 30:])

    @pytest.mark.parametrize("kind", augment.BASELINE_KINDS)
    def test_input_left_untouched(self, kind):
        x = window(c=2, b=30, h=10, seed=13)
        kept = x.copy()
        out = baseline_augment(x, 30, kind, np.random.default_rng(2), mu=0.4)
        np.testing.assert_array_equal(x, kept)
        assert not np.shares_memory(out, x)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline kind"):
            baseline_augment(window(), 16, "bogus", np.random.default_rng(0))


class TestDtw:
    def test_self_distance_zero(self):
        x = [1.0, 2.0, 3.0, 2.0]
        assert dtw_distance(x, x) == 0.0

    def test_constant_offset(self):
        assert dtw_distance([0, 0, 0], [1, 1, 1]) == 3.0

    def test_repeated_point_aligns_free(self):
        assert dtw_distance([1, 2, 3], [1, 2, 2, 3]) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, m = rng.integers(1, 9), rng.integers(1, 9)
            a = tuple(int(v) for v in rng.integers(-5, 6, size=n))
            b = tuple(int(v) for v in rng.integers(-5, 6, size=m))
            assert dtw_distance(a, b) == dtw_brute(a, b)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12),
           st.lists(st.floats(-100, 100), min_size=1, max_size=12))
    def test_symmetric_nonnegative(self, a, b):
        d = dtw_distance(a, b)
        assert d >= 0.0
        assert d == pytest.approx(dtw_distance(b, a), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            dtw_distance([], [1.0])


class TestAsd:
    def test_k1_returns_nearest(self):
        x = window(seed=0)
        near, far = x + 0.01, x + 10.0
        out = asd_augment(x, np.stack([far, near]), k=1)
        np.testing.assert_allclose(out, near, atol=1e-12)

    def test_identical_pool_average(self):
        x = window(seed=1)
        pool = np.stack([window(seed=2)] * 3)
        out = asd_augment(x, pool, k=3)
        np.testing.assert_allclose(out, pool[0], atol=1e-12)

    def test_exact_copy_dominates(self):
        x = window(seed=3)
        far = x + 50.0
        out = asd_augment(x, np.stack([x.copy(), far]), k=2)
        # Softmin: the zero-distance copy gets nearly all the weight.
        dev = np.max(np.abs(out - x))
        assert dev < np.max(np.abs(far - x)) * 0.2

    def test_pool_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            asd_augment(window(), window()[None], k=5)

    def test_kind_averages_the_pool_rows(self):
        sample = make_sample(c=1, b=8, h=4, seed=4)
        pool = random_windows(6, 1, 8, 4, seed=5)
        out = apply_augment(sample, AugmentSpec(kind="asd"), np.random.default_rng(0),
                            pool=pool)
        np.testing.assert_array_equal(out.concat(), asd_augment(sample.concat(), pool.data))


class TestDecompose:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        trend, seasonal, residual = decompose(x, 12)
        np.testing.assert_allclose(trend + seasonal + residual, x, atol=1e-12)

    def test_pure_sinusoid_interior_residual_small(self):
        p = 13
        t = np.arange(8 * p)
        x = np.sin(2 * np.pi * t / p)
        _, _, residual = decompose(x, p)
        interior = residual[p:-p]
        assert np.max(np.abs(interior)) < 1e-6

    def test_ramp_has_no_seasonal(self):
        # Odd period: the centered window reproduces a linear trend exactly.
        x = np.arange(60.0)
        trend, seasonal, residual = decompose(x, 5)
        interior = slice(5, -5)
        assert np.max(np.abs(seasonal[interior])) < 1e-6
        assert np.max(np.abs(residual[interior])) < 1e-6

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than"):
            decompose(np.arange(10.0), 6)

    @pytest.mark.parametrize("c,n,period", [
        (7, 192, 24), (2, 300, 24), (3, 61, 10), (4, 99, 2), (1, 48, 24),
    ])
    def test_stack_matches_rows(self, c, n, period):
        # (7, 192, 24) and (2, 300, 24) differ in the last bits when a
        # phase is summed along the last axis of a stack.
        x = np.random.default_rng(n).normal(size=(c, n))
        stacked = decompose(x, period)
        for ch in range(c):
            for got, want, loop in zip(stacked, decompose(x[ch], period),
                                       reference_decompose(x[ch], period)):
                np.testing.assert_array_equal(got[ch], want)
                np.testing.assert_allclose(got[ch], loop, rtol=0, atol=1e-12)


def reference_decompose(x, period):
    """decompose as first written, for one 1-D series: np.convolve for the
    trend and one mean per phase."""
    n = len(x)
    pad_front = (period - 1) // 2
    pad_back = period - 1 - pad_front
    padded = np.concatenate([np.repeat(x[0], pad_front), x, np.repeat(x[-1], pad_back)])
    trend = np.convolve(padded, np.full(period, 1.0 / period), mode="valid")
    detrended = x - trend
    idx = np.arange(pad_front, n - pad_back)
    phase_means = np.array([detrended[idx[idx % period == p]].mean() for p in range(period)])
    phase_means -= phase_means.mean()
    seasonal = np.empty(n)
    for p in range(period):
        seasonal[p::period] = phase_means[p]
    return trend, seasonal, x - trend - seasonal


class TestMbb:
    def test_zero_residual_identity(self):
        # Constant input decomposes into pure trend; bootstrapping the
        # all-zero residual must leave the window untouched.
        const = np.full((1, 48), 3.0)
        out = mbb_augment(const, 8, np.random.default_rng(0))
        np.testing.assert_allclose(out, const, atol=1e-9)

    @pytest.mark.parametrize("c,n,period,seed", [
        (1, 48, 8, 0), (3, 61, 10, 1), (7, 192, 24, 2), (2, 20, 10, 3), (4, 99, 2, 4),
    ])
    def test_matches_per_channel_block_loop(self, c, n, period, seed):
        x = np.random.default_rng(seed).normal(size=(c, n))
        rng, ref_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        out, comps = mbb_augment(x, period, rng, return_components=True)
        ref = reference_mbb(x, period, ref_rng)
        np.testing.assert_array_equal(out, ref[0])
        for got, want in zip(comps, ref[1]):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert rng.random() == ref_rng.random()  # the same number of draws

    def test_one_decomposition_per_window(self, monkeypatch):
        calls = []
        monkeypatch.setattr(augment, "decompose",
                            lambda x, period: calls.append(x.shape) or decompose(x, period))
        mbb_augment(window(c=7, b=96, h=96), 24, np.random.default_rng(0))
        assert calls == [(7, 192)]

    def test_components_untouched(self):
        x = window(c=2, b=40, h=20, seed=2)
        out, comps = mbb_augment(x, 10, np.random.default_rng(3), return_components=True)
        for ch, (trend, seasonal, residual, boot) in enumerate(comps):
            t2, s2, r2 = decompose(x[ch], 10)
            np.testing.assert_array_equal(trend, t2)
            np.testing.assert_array_equal(seasonal, s2)
            np.testing.assert_array_equal(out[ch], trend + seasonal + boot)


def reference_mbb(x, period, rng):
    """mbb_augment as first written: per channel, one rng.integers draw per
    block of max(2, L // 10) columns. (out, components)."""
    block_len = max(2, x.shape[1] // 10)
    out, components = np.empty_like(x), []
    for ch in range(len(x)):
        trend, seasonal, residual = decompose(x[ch], period)
        n = len(residual)
        pieces, total = [], 0
        while total < n:
            start = int(rng.integers(0, n - block_len + 1))
            pieces.append(residual[start: start + block_len])
            total += block_len
        boot = np.concatenate(pieces)[:n]
        out[ch] = trend + seasonal + boot
        components.append((trend, seasonal, residual, boot))
    return out, components


def originals(samples):
    return [(s.lookback, s.horizon, s.start_index) for s in samples]


class TestExpandDataset:
    def test_factor_one_returns_originals(self):
        samples = random_windows(3, 2, 16, 8, seed=0)
        out = expand_dataset(samples, AugmentSpec(kind="freq_mask", rate=0.3),
                             1, np.random.default_rng(0))
        assert_windows_equal(out, originals(samples))

    def test_coldstart_expansion_count(self):
        samples = random_windows(84, 1, 8, 4, seed=0)
        out = expand_dataset(samples, AugmentSpec(kind="freq_mask", rate=0.2),
                             50, np.random.default_rng(0))
        assert len(out) == 4200

    def test_kind_none_duplicates(self):
        samples = random_windows(2, 2, 16, 8, seed=0)
        out = expand_dataset(samples, AugmentSpec(kind="none"),
                             2, np.random.default_rng(0))
        assert len(out) == 4
        for orig, copy in zip(samples, out[2:]):
            assert_samples_close(copy, orig, atol=0)

    def test_originals_come_first(self):
        samples = random_windows(3, 2, 16, 8, seed=0)
        out = expand_dataset(samples, AugmentSpec(kind="freq_mask", rate=0.5),
                             2, np.random.default_rng(0))
        assert_windows_equal(out[:3], originals(samples))

    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix"])
    def test_window_set_equals_per_window_loop(self, kind):
        values = np.random.default_rng(1).normal(size=(2, 90))
        windows = span_windows(values, 0, 90, 12, 6, stride=4)
        spec = AugmentSpec(kind=kind, rate=0.3)
        rng = np.random.default_rng(9)
        out = expand_dataset(windows, spec, 3, rng)
        ref_rng = np.random.default_rng(9)
        ref = originals(windows)
        for _ in range(2):
            for w in windows:
                copy = apply_augment(w, spec, ref_rng, pool=windows)
                ref.append((copy.lookback, copy.horizon, w.start_index))
        assert isinstance(out, Windows) and out.data.flags.c_contiguous
        assert out.data.shape == (3 * len(windows), 2, 18)
        assert_windows_equal(out, ref)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("kind", ["freq_mix", "freq_mask_then_mix"])
    def test_partners_come_from_the_given_pool(self, kind):
        # train expands each step's windows with partners from the whole
        # training set, not from the step's own windows.
        windows = random_windows(4, 2, 12, 6, seed=3)
        pool = random_windows(9, 2, 12, 6, seed=4)
        spec = AugmentSpec(kind=kind, rate=0.3)
        rng = np.random.default_rng(13)
        out = expand_dataset(windows, spec, 3, rng, pool=pool)
        ref_rng = np.random.default_rng(13)
        ref = originals(windows)
        for _ in range(2):
            for w in windows:
                copy = apply_augment(w, spec, ref_rng, pool=pool)
                ref.append((copy.lookback, copy.horizon, w.start_index))
        assert_windows_equal(out, ref)
        assert rng.random() == ref_rng.random()
        default = expand_dataset(windows, spec, 3, np.random.default_rng(13))
        assert not np.array_equal(default.data, out.data)


class TestMixPartner:
    @pytest.mark.parametrize("kind", ["freq_mix", "freq_mask_then_mix"])
    def test_pool_draw_equals_drawing_the_partner_first(self, kind):
        pool = random_windows(7, 2, 32, 16, seed=0)
        sample = make_sample(c=2, b=32, h=16, seed=20)
        spec = AugmentSpec(kind=kind, rate=0.3)
        rng = np.random.default_rng(11)
        out = apply_augment(sample, spec, rng, pool=pool)
        ref_rng = np.random.default_rng(11)
        partner = pool[ref_rng.integers(0, len(pool))]
        # A one-window pool's draw, integers(0, 1), takes nothing from the rng.
        ref = apply_augment(sample, spec, ref_rng, pool=one_window_pool(partner))
        np.testing.assert_array_equal(out.concat(), ref.concat())
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("kind", ["freq_mix", "freq_mask_then_mix"])
    def test_no_partner_and_no_pool_rejected(self, kind):
        spec = AugmentSpec(kind=kind, rate=0.2)
        for pool in (None, random_windows(0, 2, 16, 8, seed=0)):
            with pytest.raises(ValueError, match="needs a pool to draw its partner from"):
                apply_augment(make_sample(), spec, np.random.default_rng(0), pool=pool)


class TestSharedMask:
    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix"])
    def test_every_channel_takes_one_bernoulli_mask(self, kind):
        # Masking zeroes, and mixing takes from the partner, the same bins
        # in every channel: the bins of one rng.random(n_bins) >= mu draw.
        sample = make_sample(c=3, b=64, h=32, seed=4)
        partner = make_sample(c=3, b=64, h=32, seed=5)
        out = apply_augment(sample, AugmentSpec(kind=kind, rate=0.5),
                            np.random.default_rng(0), pool=one_window_pool(partner))
        keep = np.random.default_rng(0).random(96 // 2 + 1) >= 0.5
        assert keep.any() and not keep.all()
        for ch in range(3):
            other = rfft(partner.concat()[ch]).bins if kind == "freq_mix" else 0.0
            want = np.where(keep, rfft(sample.concat()[ch]).bins, other)
            np.testing.assert_allclose(rfft(out.concat()[ch]).bins, want, atol=1e-9)


class TestMemoryLayout:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_strided_and_contiguous_windows_give_identical_copies(self, kind):
        # span_windows gives strided views of the series; the copy is one
        # contiguous array. Windows and pool come from the same set.
        values = np.random.default_rng(6).normal(size=(2, 80))
        strided = span_windows(values, 0, 80, 32, 16, stride=3)
        contiguous = Windows(strided.data.copy(), strided.b, strided.starts)
        assert not strided.data.flags.c_contiguous and contiguous.data.flags.c_contiguous
        spec = AugmentSpec(kind=kind, rate=0.3)
        outs = []
        for ws in (strided, contiguous):
            rng = np.random.default_rng(12)
            outs.append([apply_augment(w, spec, rng, pool=ws).concat() for w in ws[:3]])
        np.testing.assert_array_equal(outs[0], outs[1])


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix", "freq_mask_keep_dominant",
                                      "freq_mask_then_mix", "noise", "time_mask_random",
                                      "time_mask_segment", "warp", "mbb"])
    def test_same_seed_same_output(self, kind):
        sample = make_sample(c=2, b=32, h=16, seed=0)
        partner = make_sample(c=2, b=32, h=16, seed=1)
        spec = AugmentSpec(kind=kind, rate=0.3)
        pool = one_window_pool(partner)
        a = apply_augment(sample, spec, np.random.default_rng(77), pool=pool)
        b = apply_augment(sample, spec, np.random.default_rng(77), pool=pool)
        np.testing.assert_array_equal(a.lookback, b.lookback)
        np.testing.assert_array_equal(a.horizon, b.horizon)

    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix", "noise"])
    def test_expand_draws_round_by_round_from_rng(self, kind):
        samples = random_windows(4, 2, 16, 8, seed=0)
        spec = AugmentSpec(kind=kind, rate=0.4)
        rng = np.random.default_rng(0)
        out = expand_dataset(samples, spec, 3, rng)
        ref_rng = np.random.default_rng(0)
        ref = list(samples)
        for _ in range(2):
            for sample in samples:
                ref.append(apply_augment(sample, spec, ref_rng, pool=samples))
        assert len(out) == len(ref) == 12
        for a, b in zip(out, ref):
            np.testing.assert_array_equal(a.concat(), b.concat())
        assert rng.random() == ref_rng.random()

    def test_expand_same_seed_same_copies_other_seed_other_copies(self):
        samples = random_windows(4, 2, 16, 8, seed=0)
        spec = AugmentSpec(kind="freq_mask", rate=0.4)
        out1, out2, other = (expand_dataset(samples, spec, 3, np.random.default_rng(seed))
                             for seed in (5, 5, 6))
        for a, b, c in zip(out1[4:], out2[4:], other[4:]):
            np.testing.assert_array_equal(a.concat(), b.concat())
            assert not np.array_equal(a.concat(), c.concat())

    def test_smaller_factor_is_a_prefix(self):
        # run_coldstart expands once at its largest factor and trains each
        # smaller factor on a prefix of that expansion; it relies on this.
        samples = random_windows(5, 1, 8, 4, seed=0)
        spec = AugmentSpec(kind="freq_mask", rate=0.2)
        small = expand_dataset(samples, spec, 2, np.random.default_rng(3))
        large = expand_dataset(samples, spec, 50, np.random.default_rng(3))
        assert len(small) == 10 and len(large) == 250
        for a, b in zip(small, large):
            np.testing.assert_array_equal(a.concat(), b.concat())

    def test_spec_has_no_seed(self):
        with pytest.raises(TypeError):
            AugmentSpec(seed=0)


@pytest.mark.parametrize("field,value", [
    ("shared_mask_across_channels", False), ("exact_count", True), ("keep_top", 3),
    ("period", 8), ("block_len", 4),
])
def test_spec_is_kind_and_rate(field, value):
    assert [f.name for f in fields(AugmentSpec)] == ["kind", "rate"]
    with pytest.raises(TypeError, match=field):
        AugmentSpec(kind="freq_mask", **{field: value})


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown augmentation kind"):
        AugmentSpec(kind="bogus")
    with pytest.raises(ValueError, match="mix rate"):
        AugmentSpec(kind="freq_mix", rate=0.7)
    with pytest.raises(ValueError, match="rate"):
        AugmentSpec(kind="freq_mask", rate=1.5)


def name_uses(source, target="WindowSample"):
    """{enclosing function name, None at module level: line numbers} naming `target`."""
    found = {}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = (child.asname or child.name).rpartition(".")[2]
            else:
                name = None
            if name == target:
                found.setdefault(func, []).append(child.lineno)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("source,where", [
    ("from .dataset import WindowSample", None),
    ("import fraug.dataset.WindowSample", None),
    ("def f(s):\n    return dataset.WindowSample.split(s, 1)", "f"),
    ("class A:\n    def g(self):\n        return WindowSample", "g"),
])
def test_window_sample_detector_flags(source, where):
    assert list(name_uses(source)) == [where]


def test_window_sample_named_only_at_the_boundary():
    """The window format lives in dataset; augment converts only in apply_augment."""
    paths = sorted(Path(augment.__file__).parent.glob("*.py"))
    found = {p.name: name_uses(p.read_text()) for p in paths}
    allowed = {"dataset.py", "augment.py"}
    assert not {name: uses for name, uses in found.items()
                if uses and name not in allowed}
    assert set(found["augment.py"]) == {None, "apply_augment"}


def test_copies_made_only_by_expand_dataset():
    """apply_augment is named only in expand_dataset, which makes every
    augmented copy, fraug augment's one whole-series window included, and
    the package does not export it; the trainer names neither it nor the
    per-window type."""
    paths = sorted(Path(augment.__file__).parent.glob("*.py"))
    callers = {(p.name, func) for p in paths
               for func in name_uses(p.read_text(), "apply_augment") if func is not None}
    assert callers == {("augment.py", "expand_dataset")}
    assert not hasattr(fraug, "apply_augment")
    source = Path(augment.__file__).with_name("forecaster.py").read_text()
    assert not name_uses(source, "apply_augment")
    assert not name_uses(source, "WindowSample")


def report_path_uses(source):
    """(classes around each CellResult(...) call, string constants naming
    trace.csv or ttt_parts.csv) of one source file."""
    calls, names = [], []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "CellResult":
                    calls.append(cls)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                names.extend(f for f in ("trace.csv", "ttt_parts.csv") if f in child.value)
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(ast.parse(source), None)
    return calls, names


@pytest.mark.parametrize("source,calls,names", [
    ("def f():\n    return CellResult('none', 1, 0, 0.0, 1.0, 1.0)", [None], []),
    ("class R:\n    def add(self):\n        experiments.CellResult()", ["R"], []),
    ("open(out / 'trace.csv')\n'''writes ttt_parts.csv'''", [], ["trace.csv", "ttt_parts.csv"]),
])
def test_report_path_detector_flags(source, calls, names):
    assert report_path_uses(source) == (calls, names)


def test_cells_and_trace_files_made_only_by_the_report():
    """Every protocol records its cells through ExperimentReport, and the
    trace files are named only in experiments, which fills each cell's extra."""
    paths = sorted(Path(augment.__file__).parent.glob("*.py"))
    found = {p.name: report_path_uses(p.read_text()) for p in paths}
    assert {name: set(calls) for name, (calls, _) in found.items() if calls} == {
        "experiments.py": {"ExperimentReport"}}
    assert {name for name, (_, names) in found.items() if names} == {"experiments.py"}
