"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line. Criteria 7 and 8 need the
public ETT benchmark CSVs on disk (./data or FRAUG_DATA_DIR) and skip
when absent; everything else is self-contained and deterministic.
"""

import time

import numpy as np
import pytest

from fraug.augment import (AugmentSpec, decompose, dtw_distance, freq_mask,
                           freq_mix, mbb_augment)
from fraug.dataset import (TimeSeriesDataset, load_csv, make_windows,
                           split_and_normalize)
from fraug.experiments import (run_coldstart, run_longterm, run_ttt,
                               ttt_copy_schedule)
from fraug.forecaster import DLinearModel, TrainConfig, loss_and_grads, train
from fraug.spectral import irfft, irfft_signal, rfft, rfft_bins
from fraug.synth import SynthSpec, generate

from conftest import dtw_brute, make_sample, require_ett, tone_sample


def report(num, ok, detail=""):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_fft_oracle_equivalence():
    t0 = time.time()
    worst_fwd = worst_rt = 0.0
    for n in range(1, 257):
        rng = np.random.default_rng(n)
        xs = rng.normal(size=(20, n))
        mat = np.exp(-2j * np.pi * np.outer(np.arange(n // 2 + 1), np.arange(n)) / n)
        expected = xs @ mat.T
        # Batched fast path; rfft/irfft spot-check below shares this code.
        bins = rfft_bins(xs)
        back = irfft_signal(bins, n)
        worst_fwd = max(worst_fwd, float(np.max(np.abs(bins - expected))))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - xs))))
        s = rfft(xs[0])
        worst_fwd = max(worst_fwd, float(np.max(np.abs(s.bins - expected[0]))))
        worst_rt = max(worst_rt, float(np.max(np.abs(irfft(s) - xs[0]))))
    elapsed = time.time() - t0
    ok = worst_fwd < 1e-9 and worst_rt < 1e-9 and elapsed < 10.0
    report(1, ok, f"(fwd err {worst_fwd:.2e}, round-trip {worst_rt:.2e}, {elapsed:.1f}s)")


def _energy(x):
    return float(np.sum(np.asarray(x, dtype=np.float64) ** 2, axis=None))


def test_criterion_02_parseval_and_masking_energy():
    lengths = [192, 288, 816]
    violations = 0
    rng = np.random.default_rng(2)
    for i in range(1000):
        n = lengths[i % 3]
        b = n // 2
        sample = make_sample(c=1, b=b, h=n - b, seed=1000 + i)
        out = freq_mask(sample.concat(), 0.2, rng)
        x = out[0]
        bins = rfft(x).bins
        amps2 = np.abs(bins) ** 2
        spectral = amps2[0] + 2 * amps2[1: (n + 1) // 2].sum()
        if n % 2 == 0:
            spectral += amps2[-1]
        if abs(_energy(x) - spectral / n) > 1e-9 * max(1.0, _energy(x)):
            violations += 1
        if _energy(x) > _energy(sample.concat()[0]) + 1e-9:
            violations += 1
    report(2, violations == 0, f"({violations} violations in 1000 applications)")


def test_criterion_03_algorithm_fidelity():
    rng = np.random.default_rng(3)
    checks = []

    s = make_sample(c=2, b=32, h=16, seed=0)
    out = freq_mask(s.concat(), 0.0, rng)
    checks.append(("mask mu=0 identity",
                   np.max(np.abs(out - s.concat())) < 1e-9))

    const = tone_sample(1, 32, 16, bin_k=0, amplitude=2.0)
    kept = False
    for _ in range(50):
        out = freq_mask(const.concat(), 0.9, rng)
        if np.max(np.abs(out)) > 1e-9:  # DC survived this draw
            kept = np.max(np.abs(out - const.concat())) < 1e-9
            if kept:
                break
    checks.append(("constant DC-kept identity", kept))

    tone = tone_sample(1, 32, 16, bin_k=5)
    annihilated = False
    for _ in range(200):
        out = freq_mask(tone.concat(), 0.5, rng)
        if np.max(np.abs(out)) < 1e-9:
            annihilated = True
            break
    checks.append(("single-tone annihilation", annihilated))

    s = make_sample(c=2, b=32, h=16, seed=1)
    out = freq_mix(s.concat(), s.concat(), 0.5, rng)
    checks.append(("self-mix identity",
                   np.max(np.abs(out - s.concat())) < 1e-9))

    a = tone_sample(1, 32, 16, bin_k=3)
    bq = tone_sample(1, 32, 16, bin_k=7)
    exclusive = True
    composed = True
    for _ in range(50):
        out = freq_mix(a.concat(), bq.concat(), 0.5, rng)
        bins = rfft(out[0]).bins
        abins = rfft(a.concat()[0]).bins
        bbins = rfft(bq.concat()[0]).bins
        from_a = np.abs(bins - abins) < 1e-9
        from_b = np.abs(bins - bbins) < 1e-9
        if not np.all(from_a | from_b):
            exclusive = False
        if not (from_a[3] or from_b[3]) or not (from_a[7] or from_b[7]):
            composed = False
    checks.append(("mix bin exclusivity", exclusive))
    checks.append(("two-tone composition", composed))

    tone = tone_sample(1, 32, 16, bin_k=4, amplitude=5.0)
    survived = all(
        np.max(np.abs(freq_mask(tone.concat(), 0.9, rng, keep_top=10)
                      - tone.concat())) < 1e-9
        for _ in range(20)
    )
    checks.append(("keep-dominant exemption", survived))

    failed = [name for name, ok in checks if not ok]
    report(3, not failed, f"({len(checks)} checks{'; failed: ' + ', '.join(failed) if failed else ''})")


def test_criterion_04_dtw_matches_brute_force():
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(200):
        la, lb = rng.integers(1, 9, size=2)
        a = tuple(int(v) for v in rng.integers(-5, 6, size=la))
        b = tuple(int(v) for v in rng.integers(-5, 6, size=lb))
        if dtw_distance(a, b) != dtw_brute(a, b):
            mismatches += 1
    report(4, mismatches == 0, f"({mismatches} mismatches in 200 pairs)")


def test_criterion_05_mbb_component_preservation():
    rng = np.random.default_rng(5)
    bad = 0
    for i in range(100):
        sample = make_sample(c=2, b=40, h=20, seed=3000 + i)
        out, comps = mbb_augment(sample.concat(), 10, rng, return_components=True)
        for ch, (trend, seasonal, residual, boot) in enumerate(comps):
            t_in, s_in, r_in = decompose(sample.concat()[ch], 10)
            if not (np.array_equal(trend, t_in) and np.array_equal(seasonal, s_in)):
                bad += 1
            if not np.array_equal(out[ch], trend + seasonal + boot):
                bad += 1
    report(5, bad == 0, f"({bad} component violations in 100 samples)")


def test_criterion_06_gradient_check():
    failures = 0
    eps = 1e-5
    for i in range(50):
        rng = np.random.default_rng(6000 + i)
        b, h = int(rng.integers(4, 12)), int(rng.integers(2, 8))
        model = DLinearModel.init_random(b, h, kernel=int(rng.integers(1, 6)), seed=i)
        look = rng.normal(size=(2, 2, b))
        target = rng.normal(size=(2, 2, h))
        _, grads = loss_and_grads(model, look, target)
        for name, grad in grads.items():
            param = getattr(model, name)
            for _ in range(5):
                idx = tuple(rng.integers(0, s) for s in param.shape)
                orig = param[idx]
                param[idx] = orig + eps
                lp, _ = loss_and_grads(model, look, target)
                param[idx] = orig - eps
                lm, _ = loss_and_grads(model, look, target)
                param[idx] = orig
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                if abs(grad[idx] - numeric) / denom >= 1e-5:
                    failures += 1
    report(6, failures == 0, f"({failures} gradient mismatches in 50 instances)")


def test_criterion_07_longterm_anchors():
    path = require_ett("ETTh1.csv")
    path2 = require_ett("ETTh2.csv")
    t0 = time.time()
    ds1 = split_and_normalize(load_csv(path), scheme="ett-hourly")
    rep1 = run_longterm(ds1, horizons=[96], kinds=["freq_mask"], b=96,
                        seeds=(0, 1, 2), select_rates=True, dataset_id="ETTh1")
    control = rep1.median_mse("none", 96)
    masked = rep1.median_mse("freq_mask", 96)

    ds2 = split_and_normalize(load_csv(path2), scheme="ett-hourly")
    rep2 = run_longterm(ds2, horizons=[192], kinds=["freq_mask"], b=96,
                        seeds=(0, 1, 2), select_rates=True, dataset_id="ETTh2")
    control2 = rep2.median_mse("none", 192)
    masked2 = rep2.median_mse("freq_mask", 192)

    ok = (abs(control - 0.374) <= 0.1 * 0.374
          and masked <= control + 0.005
          and masked2 <= 0.95 * control2)
    report(7, ok, f"(ETTh1/96 control {control:.3f} mask {masked:.3f}; "
                  f"ETTh2/192 control {control2:.3f} mask {masked2:.3f}; "
                  f"{time.time() - t0:.0f}s)")


def test_criterion_08_coldstart_anchor():
    path = require_ett("ETTh2.csv")
    t0 = time.time()
    ds = split_and_normalize(load_csv(path), scheme="ett-hourly")
    rep = run_coldstart(ds, h=96, kinds=["freq_mask"], b=96, fraction=0.01,
                        factors=(2, 50), seeds=(0, 1, 2), dataset_id="ETTh2")
    control = rep.median_mse("none", 96)
    masked = rep.median_mse("freq_mask", 96)
    elapsed = time.time() - t0
    ok = masked <= 0.8 * control and elapsed < 120
    report(8, ok, f"(control {control:.3f} mask {masked:.3f}, {elapsed:.0f}s)")


def test_criterion_09_overfitting_gap():
    # Synthetic small-data surrogate: 30 training windows against a
    # b=48 h=24 model is comfortably in the overfitting regime.
    values = generate(SynthSpec(length=1000, channels=1,
                                tones=[(24.0, 1.0), (7.0, 0.4)],
                                noise_std=0.6, seed=11))
    ds = split_and_normalize(
        TimeSeriesDataset(values=values, channel_names=["x"]), "generic")
    train_all = make_windows(ds, "train", 48, 24)
    val_samples = make_windows(ds, "val", 48, 24)

    def gap(seed, kind):
        cfg = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=60,
                          patience=60, seed=seed)
        model = DLinearModel.init_random(48, 24, seed=seed)
        aug = None if kind == "none" else AugmentSpec(kind=kind, rate=0.2)
        _, trace = train(model, train_all[:30], val_samples, cfg, aug=aug)
        return trace.val_loss[-1] - min(trace.train_loss)

    gap_none = float(np.median([gap(s, "none") for s in range(5)]))
    gap_mask = float(np.median([gap(s, "freq_mask") for s in range(5)]))
    ok = gap_mask <= gap_none
    report(9, ok, f"(gap none {gap_none:.3f}, freq_mask {gap_mask:.3f})")


def test_criterion_10_ttt_shift_and_schedule():
    values = generate(SynthSpec(length=1000, channels=1, tones=[(24.0, 1.0)],
                                noise_std=1.2, shift_at=500, shift_delta=1.5,
                                seed=5))
    ds = TimeSeriesDataset(values=values, channel_names=["x"])
    cfg = TrainConfig(learning_rate=5e-3, batch_size=32, max_epochs=5, patience=3)
    rep = run_ttt(ds, h=8, kinds=["freq_mask"], b=16, parts=20, cfg=cfg,
                  seeds=(0, 1, 2, 3, 4), rate=0.2)

    post = {}
    for kind in ("none", "freq_mask"):
        # Rounds 10..19 test the parts after the injected shift at part 10.
        vals = [np.mean(c.extra["part_losses"][9:])
                for c in rep.cells if c.kind == kind]
        post[kind] = float(np.median(vals))

    # Independent half-up rounding of the 1 -> 5 ramp over 19 seen parts.
    from fractions import Fraction
    expected_ramp = [int(Fraction(1) + Fraction(4 * r, 18) + Fraction(1, 2))
                     for r in range(19)]
    schedules_ok = all(c.extra["copy_schedule"] == expected_ramp
                       for c in rep.cells if c.kind == "freq_mask")
    schedules_ok = schedules_ok and ttt_copy_schedule(8) == [1, 2, 2, 3, 3, 4, 4, 5]

    ok = post["freq_mask"] <= post["none"] and schedules_ok
    report(10, ok, f"(post-shift none {post['none']:.3f}, "
                   f"freq_mask {post['freq_mask']:.3f}, schedule ok {schedules_ok})")
