"""Tour of the augmentation families on a synthetic two-tone series.

Run with:  python3 demos/02_augmentations.py
"""

import numpy as np

from fraug.augment import (AugmentSpec, apply_augment, asd_augment,
                           freq_mask, freq_mix, mbb_augment)
from fraug.dataset import WindowSample
from fraug.spectral import amplitude_spectrum, rfft
from fraug.synth import SynthSpec, generate

rng = np.random.default_rng(7)

values = generate(SynthSpec(length=144, channels=1,
                            tones=[(24.0, 1.0), (6.0, 0.4)],
                            noise_std=0.2, seed=1))
sample = WindowSample.split(values, 96)


def describe(name, out):
    diff = np.max(np.abs(out.concat() - sample.concat()))
    print(f"{name:22s} max |delta| = {diff:.3f}")


# Frequency masking zeroes a random fraction of one-sided bins of the
# concatenated look-back+horizon, so the label stays consistent with
# the input.
describe("freq_mask 0.2", freq_mask(sample, 0.2, rng))

# Mixing swaps bins with a partner window instead of zeroing them.
partner = WindowSample.split(np.roll(values, 36, axis=1), 96)
describe("freq_mix 0.2", freq_mix(sample, partner, 0.2, rng))

# The dispatcher covers the time-domain baselines too.
for kind in ("noise", "flip", "warp", "time_mask_random"):
    out = apply_augment(sample, AugmentSpec(kind=kind), rng)
    describe(kind, out)

# ASD averages the nearest pool samples, weighted by softmin DTW distance.
pool = [WindowSample.split(values + rng.normal(0, 0.3, (1, 144)), 96) for _ in range(8)]
describe("asd (k=5)", asd_augment(sample, pool, k=5))

# MBB decomposes, bootstraps only the residual, and recombines.
describe("mbb (period 24)", mbb_augment(sample, 24, rng))

# Dominant bins of the original vs a masked copy.
amps = amplitude_spectrum(rfft(sample.concat()[0]))
masked = amplitude_spectrum(rfft(freq_mask(sample, 0.5, rng).concat()[0]))
top = np.argsort(amps)[-5:][::-1]
print("\nbin  original  masked")
for k in top:
    print(f"{k:3d}  {amps[k]:8.2f}  {masked[k]:8.2f}")
