from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraug.augment import (AugmentSpec, apply_augment, asd_augment,
                           baseline_augment, create_random_mask, decompose,
                           dtw_distance, expand_dataset, freq_mask,
                           freq_mask_keep_dominant, freq_mix, mbb_augment)
from fraug.dataset import WindowSample, Windows, span_windows
from fraug.spectral import rfft

from conftest import assert_windows_equal, dtw_brute, make_sample, tone_sample


def assert_samples_close(a, b, atol=1e-9):
    np.testing.assert_allclose(a.lookback, b.lookback, atol=atol)
    np.testing.assert_allclose(a.horizon, b.horizon, atol=atol)


class TestRandomMask:
    def test_rate_zero_keeps_all(self):
        rng = np.random.default_rng(0)
        assert create_random_mask(50, 0.0, rng).all()

    def test_rate_one_masks_all(self):
        rng = np.random.default_rng(0)
        assert not create_random_mask(50, 1.0, rng).any()

    def test_masked_fraction_concentrates(self):
        # Binomial(10000, 0.3): P(|frac - 0.3| >= 0.02) < 1e-2.
        rng = np.random.default_rng(42)
        keep = create_random_mask(10000, 0.3, rng)
        frac = 1.0 - keep.mean()
        assert 0.28 < frac < 0.32


class TestFreqMask:
    def test_mu_zero_is_round_trip_identity(self):
        sample = make_sample(c=3, b=20, h=10, seed=1)
        out = freq_mask(sample, 0.0, np.random.default_rng(0))
        assert_samples_close(out, sample)

    def test_constant_sample_with_dc_kept(self):
        sample = WindowSample(lookback=np.full((2, 12), 5.0),
                              horizon=np.full((2, 6), 5.0))
        # mu < 1 can mask any bin; force DC kept by masking via exempt trick:
        rng = np.random.default_rng(3)
        for _ in range(20):
            out = freq_mask(sample, 0.8, rng, exempt_top=1)
            assert_samples_close(out, sample)

    def test_single_tone_annihilation(self):
        b, h, k = 16, 8, 5
        sample = tone_sample(2, b, h, k)
        # Build a mask hitting exactly bin k by masking everything except k
        # inverted: run freq_mask with mu=1 but exempt all bins except k.
        n_bins = (b + h) // 2 + 1
        # Direct construction instead: zero only bin k via mix machinery.
        bins = rfft(sample.concat()[0]).bins
        nonzero = np.flatnonzero(np.abs(bins) > 1e-9)
        assert list(nonzero) == [k]  # oracle: single one-sided bin
        rng = np.random.default_rng(0)
        # With mu=1 everything is masked, including bin k -> all-zero output.
        out = freq_mask(sample, 1.0, rng)
        assert np.max(np.abs(out.concat())) < 1e-9

    def test_shape_preserved(self):
        sample = make_sample(c=4, b=33, h=17)
        out = freq_mask(sample, 0.4, np.random.default_rng(1))
        assert out.shape == sample.shape

    def test_energy_non_increase(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            sample = make_sample(c=2, b=64, h=32, seed=seed)
            out = freq_mask(sample, 0.3, rng)
            for ch in range(2):
                before = np.sum(sample.concat()[ch] ** 2)
                after = np.sum(out.concat()[ch] ** 2)
                assert after <= before + 1e-9

    def test_mask_faithfulness(self):
        sample = make_sample(c=1, b=32, h=16, seed=2)
        rng = np.random.default_rng(11)
        out = freq_mask(sample, 0.5, rng)
        before = rfft(sample.concat()[0]).bins
        after = rfft(out.concat()[0]).bins
        for k in range(len(before)):
            keep = abs(after[k] - before[k]) < 1e-9
            zeroed = abs(after[k]) < 1e-9
            assert keep or zeroed

    def test_masking_hits_both_lookback_and_horizon(self):
        # Semantic consistency: the tone vanishes in both window parts.
        sample = tone_sample(1, 24, 12, 3)
        out = freq_mask(sample, 1.0, np.random.default_rng(0))
        assert np.max(np.abs(out.lookback)) < 1e-9
        assert np.max(np.abs(out.horizon)) < 1e-9


class TestFreqMix:
    def test_self_mix_identity(self):
        sample = make_sample(c=2, b=24, h=12, seed=3)
        for mu in (0.1, 0.3, 0.5):
            out = freq_mix(sample, sample, mu, np.random.default_rng(0))
            assert_samples_close(out, sample)

    def test_mu_zero_returns_first(self):
        s1, s2 = make_sample(seed=1), make_sample(seed=2)
        out = freq_mix(s1, s2, 0.0, np.random.default_rng(0))
        assert_samples_close(out, s1)

    def test_two_tone_composition(self):
        b, h, k1, k2 = 16, 8, 2, 7
        s1 = tone_sample(1, b, h, k1)
        s2 = tone_sample(1, b, h, k2)
        # Oracle: each operand has a single nonzero one-sided bin.
        assert list(np.flatnonzero(np.abs(rfft(s1.concat()[0]).bins) > 1e-9)) == [k1]
        assert list(np.flatnonzero(np.abs(rfft(s2.concat()[0]).bins) > 1e-9)) == [k2]
        # Replacing any mask that covers k2 but not k1 yields the two-tone sum.
        rng = np.random.default_rng(0)
        expected = s1.concat() + s2.concat()
        for _ in range(50):
            out = freq_mix(s1, s2, 0.5, rng)
            after = rfft(out.concat()[0]).bins
            has_k1 = abs(after[k1]) > 1e-9
            has_k2 = abs(after[k2]) > 1e-9
            if has_k1 and has_k2:
                np.testing.assert_allclose(out.concat(), expected, atol=1e-9)
                break
        else:
            pytest.fail("no sampled mask replaced bin k2 while keeping k1")

    def test_bin_exclusivity(self):
        s1, s2 = make_sample(c=1, b=32, h=16, seed=4), make_sample(c=1, b=32, h=16, seed=5)
        out = freq_mix(s1, s2, 0.4, np.random.default_rng(9))
        bins1 = rfft(s1.concat()[0]).bins
        bins2 = rfft(s2.concat()[0]).bins
        mixed = rfft(out.concat()[0]).bins
        for k in range(len(mixed)):
            assert (abs(mixed[k] - bins1[k]) < 1e-9) or (abs(mixed[k] - bins2[k]) < 1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible samples"):
            freq_mix(make_sample(b=16), make_sample(b=20), 0.2,
                     np.random.default_rng(0))

    def test_rate_above_half_rejected(self):
        with pytest.raises(ValueError, match="mix rate"):
            freq_mix(make_sample(), make_sample(), 0.6, np.random.default_rng(0))


class TestKeepDominant:
    def test_everything_exempt_is_identity(self):
        sample = make_sample(c=2, b=20, h=10, seed=6)
        n_bins = 30 // 2 + 1
        out = freq_mask_keep_dominant(sample, 1.0, np.random.default_rng(0),
                                      keep_top=n_bins)
        assert_samples_close(out, sample)

    def test_keep_top_zero_equals_freq_mask(self):
        sample = make_sample(c=2, b=20, h=10, seed=7)
        out1 = freq_mask_keep_dominant(sample, 0.4, np.random.default_rng(5), keep_top=0)
        out2 = freq_mask(sample, 0.4, np.random.default_rng(5))
        assert_samples_close(out1, out2, atol=1e-12)

    def test_dominant_tone_survives(self):
        b, h = 16, 8
        strong = tone_sample(1, b, h, 3, amplitude=10.0)
        weak = tone_sample(1, b, h, 6, amplitude=1.0)
        sample = WindowSample(lookback=strong.lookback + weak.lookback,
                              horizon=strong.horizon + weak.horizon)
        out = freq_mask_keep_dominant(sample, 1.0, np.random.default_rng(0), keep_top=1)
        assert_samples_close(out, strong)


class TestBaselines:
    def test_zero_noise_is_identity(self):
        sample = make_sample(seed=8)
        out = baseline_augment(sample, "noise", np.random.default_rng(0), noise_scale=0.0)
        assert_samples_close(out, sample, atol=0)

    def test_noise_leaves_horizon_untouched(self):
        sample = make_sample(seed=8)
        out = baseline_augment(sample, "noise", np.random.default_rng(0))
        np.testing.assert_array_equal(out.horizon, sample.horizon)
        assert np.any(out.lookback != sample.lookback)

    def test_noise_both_touches_horizon(self):
        sample = make_sample(seed=8)
        out = baseline_augment(sample, "noise_both", np.random.default_rng(0))
        assert np.any(out.horizon != sample.horizon)

    def test_flip_is_involution(self):
        sample = make_sample(seed=9)
        rng = np.random.default_rng(0)
        twice = baseline_augment(baseline_augment(sample, "flip", rng), "flip", rng)
        assert_samples_close(twice, sample, atol=1e-12)

    def test_time_mask_segment_contiguous(self):
        sample = make_sample(c=1, b=10, h=4, seed=10)
        sample.lookback += 100.0  # no accidental zeros
        out = baseline_augment(sample, "time_mask_segment", np.random.default_rng(7), mu=0.5)
        zeros = np.flatnonzero(out.lookback[0] == 0.0)
        assert len(zeros) == 5
        assert np.all(np.diff(zeros) == 1)

    def test_time_mask_random_count(self):
        sample = make_sample(c=1, b=20, h=4, seed=11)
        sample.lookback += 100.0
        out = baseline_augment(sample, "time_mask_random", np.random.default_rng(7), mu=0.3)
        assert (out.lookback[0] == 0.0).sum() == 6

    def test_warp_preserves_shape(self):
        sample = make_sample(c=2, b=30, h=10, seed=12)
        out = baseline_augment(sample, "warp", np.random.default_rng(1), mu=0.4)
        assert out.shape == sample.shape
        np.testing.assert_array_equal(out.horizon, sample.horizon)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline kind"):
            baseline_augment(make_sample(), "bogus", np.random.default_rng(0))


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
        target = make_sample(seed=0)
        near = WindowSample(lookback=target.lookback + 0.01,
                            horizon=target.horizon + 0.01)
        far = WindowSample(lookback=target.lookback + 10.0,
                           horizon=target.horizon + 10.0)
        out = asd_augment(target, [far, near], k=1)
        assert_samples_close(out, near, atol=1e-12)

    def test_identical_pool_average(self):
        target = make_sample(seed=1)
        pool = [make_sample(seed=2)] * 3
        out = asd_augment(target, pool, k=3)
        assert_samples_close(out, pool[0], atol=1e-12)

    def test_exact_copy_dominates(self):
        target = make_sample(seed=3)
        copy = WindowSample(lookback=target.lookback.copy(),
                            horizon=target.horizon.copy())
        far = WindowSample(lookback=target.lookback + 50.0,
                           horizon=target.horizon + 50.0)
        out = asd_augment(target, [copy, far], k=2)
        # Softmin: the zero-distance copy gets nearly all the weight.
        dev = np.max(np.abs(out.lookback - target.lookback))
        assert dev < np.max(np.abs(far.lookback - target.lookback)) * 0.2

    def test_pool_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            asd_augment(make_sample(), [make_sample()], k=5)


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


class TestMbb:
    def test_zero_residual_identity(self):
        # Constant input decomposes into pure trend; bootstrapping the
        # all-zero residual must leave the sample untouched.
        const = np.full(48, 3.0)
        sample = WindowSample(lookback=const[None, :32].copy(),
                              horizon=const[None, 32:].copy())
        out = mbb_augment(sample, 8, np.random.default_rng(0))
        assert_samples_close(out, sample)

    def test_full_length_block_identity(self):
        sample = make_sample(c=1, b=32, h=16, seed=1)
        out = mbb_augment(sample, 8, np.random.default_rng(0), block_len=48)
        assert_samples_close(out, sample)

    def test_components_untouched(self):
        sample = make_sample(c=2, b=40, h=20, seed=2)
        out, comps = mbb_augment(sample, 10, np.random.default_rng(3),
                                 return_components=True)
        for ch, (trend, seasonal, residual, boot) in enumerate(comps):
            t2, s2, r2 = decompose(sample.concat()[ch], 10)
            np.testing.assert_array_equal(trend, t2)
            np.testing.assert_array_equal(seasonal, s2)
            np.testing.assert_array_equal(out.concat()[ch], trend + seasonal + boot)


class TestExpandDataset:
    def test_factor_one_returns_originals(self):
        samples = [make_sample(seed=i) for i in range(3)]
        out = expand_dataset(samples, AugmentSpec(kind="freq_mask", rate=0.3),
                             1, np.random.default_rng(0))
        assert_windows_equal(out, [(s.lookback, s.horizon, s.start_index) for s in samples])

    def test_coldstart_expansion_count(self):
        samples = [make_sample(c=1, b=8, h=4, seed=i) for i in range(84)]
        out = expand_dataset(samples, AugmentSpec(kind="freq_mask", rate=0.2),
                             50, np.random.default_rng(0))
        assert len(out) == 4200

    def test_kind_none_duplicates(self):
        samples = [make_sample(seed=i) for i in range(2)]
        out = expand_dataset(samples, AugmentSpec(kind="none"),
                             2, np.random.default_rng(0))
        assert len(out) == 4
        for orig, copy in zip(samples, out[2:]):
            assert_samples_close(copy, orig, atol=0)

    def test_originals_come_first(self):
        samples = [make_sample(seed=i) for i in range(3)]
        out = expand_dataset(samples, AugmentSpec(kind="freq_mask", rate=0.5),
                             2, np.random.default_rng(0))
        assert_windows_equal(out[:3], [(s.lookback, s.horizon, s.start_index)
                                       for s in samples])

    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix"])
    def test_window_set_equals_per_window_loop(self, kind):
        values = np.random.default_rng(1).normal(size=(2, 90))
        windows = span_windows(values, 0, 90, 12, 6, stride=4)
        spec = AugmentSpec(kind=kind, rate=0.3)
        rng = np.random.default_rng(9)
        out = expand_dataset(windows, spec, 3, rng)
        ref_rng = np.random.default_rng(9)
        ref = [(w.lookback, w.horizon, w.start_index) for w in windows]
        for _ in range(2):
            for w in windows:
                copy = apply_augment(w, spec, ref_rng, pool=list(windows))
                ref.append((copy.lookback, copy.horizon, w.start_index))
        assert isinstance(out, Windows) and out.data.flags.c_contiguous
        assert out.data.shape == (3 * len(windows), 2, 18)
        assert_windows_equal(out, ref)
        assert rng.random() == ref_rng.random()


class TestMixPartner:
    @pytest.mark.parametrize("kind", ["freq_mix", "freq_mask_then_mix"])
    def test_pool_draw_equals_drawing_the_partner_first(self, kind):
        pool = [make_sample(c=2, b=32, h=16, seed=i) for i in range(7)]
        sample = make_sample(c=2, b=32, h=16, seed=20)
        spec = AugmentSpec(kind=kind, rate=0.3)
        rng = np.random.default_rng(11)
        out = apply_augment(sample, spec, rng, pool=pool)
        ref_rng = np.random.default_rng(11)
        partner = pool[ref_rng.integers(0, len(pool))]
        ref = apply_augment(sample, spec, ref_rng, partner=partner)
        np.testing.assert_array_equal(out.concat(), ref.concat())
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("kind", ["freq_mix", "freq_mask_then_mix"])
    def test_no_partner_and_no_pool_rejected(self, kind):
        spec = AugmentSpec(kind=kind, rate=0.2)
        for pool in (None, []):
            with pytest.raises(ValueError, match="partner sample or a pool"):
                apply_augment(make_sample(), spec, np.random.default_rng(0), pool=pool)


class TestSharedMask:
    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix"])
    def test_every_channel_takes_one_bernoulli_mask(self, kind):
        # Masking zeroes, and mixing takes from the partner, the same bins
        # in every channel: the bins of one rng.random(n_bins) >= mu draw.
        sample = make_sample(c=3, b=64, h=32, seed=4)
        partner = make_sample(c=3, b=64, h=32, seed=5)
        out = apply_augment(sample, AugmentSpec(kind=kind, rate=0.5),
                            np.random.default_rng(0), partner=partner)
        keep = np.random.default_rng(0).random(96 // 2 + 1) >= 0.5
        assert keep.any() and not keep.all()
        for ch in range(3):
            other = rfft(partner.concat()[ch]).bins if kind == "freq_mix" else 0.0
            want = np.where(keep, rfft(sample.concat()[ch]).bins, other)
            np.testing.assert_allclose(rfft(out.concat()[ch]).bins, want, atol=1e-9)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix", "freq_mask_keep_dominant",
                                      "freq_mask_then_mix", "noise", "time_mask_random",
                                      "time_mask_segment", "warp", "mbb"])
    def test_same_seed_same_output(self, kind):
        sample = make_sample(c=2, b=32, h=16, seed=0)
        partner = make_sample(c=2, b=32, h=16, seed=1)
        spec = AugmentSpec(kind=kind, rate=0.3)
        a = apply_augment(sample, spec, np.random.default_rng(77), partner=partner)
        b = apply_augment(sample, spec, np.random.default_rng(77), partner=partner)
        np.testing.assert_array_equal(a.lookback, b.lookback)
        np.testing.assert_array_equal(a.horizon, b.horizon)

    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix", "noise"])
    def test_expand_draws_round_by_round_from_rng(self, kind):
        samples = [make_sample(seed=i) for i in range(4)]
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
        samples = [make_sample(seed=i) for i in range(4)]
        spec = AugmentSpec(kind="freq_mask", rate=0.4)
        out1, out2, other = (expand_dataset(samples, spec, 3, np.random.default_rng(seed))
                             for seed in (5, 5, 6))
        for a, b, c in zip(out1[4:], out2[4:], other[4:]):
            np.testing.assert_array_equal(a.concat(), b.concat())
            assert not np.array_equal(a.concat(), c.concat())

    def test_smaller_factor_is_a_prefix(self):
        # run_coldstart's factor search reseeds per factor and relies on this.
        samples = [make_sample(c=1, b=8, h=4, seed=i) for i in range(5)]
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
