"""Tour of the augmentation families on a synthetic two-tone series.

Every operator takes the concatenated (C, b+h) look-back + horizon
window and returns a new one; expand_dataset makes augmented copies of
a Windows set, here a set holding that one window.

Run with:  python3 demos/02_augmentations.py
"""

import numpy as np

from fraug.augment import (AugmentSpec, asd_augment, expand_dataset,
                           freq_mask, freq_mix, mbb_augment)
from fraug.dataset import Windows
from fraug.spectral import amplitude_spectrum, rfft
from fraug.synth import SynthSpec, generate

rng = np.random.default_rng(7)

# One (C, b+h) window: 96 look-back columns, then a 48-column horizon.
x = generate(SynthSpec(length=144, channels=1, tones=[(24.0, 1.0), (6.0, 0.4)],
                       noise_std=0.2, seed=1))


def describe(name, out):
    print(f"{name:22s} max |delta| = {np.max(np.abs(out - x)):.3f}")


# Frequency masking zeroes a random fraction of one-sided bins of the
# concatenated look-back+horizon, so the label stays consistent with
# the input.
describe("freq_mask 0.2", freq_mask(x, 0.2, rng))

# Mixing swaps bins with a partner window instead of zeroing them.
partner = np.roll(x, 36, axis=1)
describe("freq_mix 0.2", freq_mix(x, partner, 0.2, rng))

# expand_dataset dispatches on the spec and covers the time-domain
# baselines too. A factor of 2 gives the original, then one copy.
one = Windows(x[None], 96)
for kind in ("noise", "flip", "warp", "time_mask_random"):
    describe(kind, expand_dataset(one, AugmentSpec(kind=kind), 2, rng).data[1])

# ASD averages the nearest pool windows, weighted by softmin DTW distance.
pool = x + rng.normal(0, 0.3, (8, 1, 144))
describe("asd (k=5)", asd_augment(x, pool, k=5))

# MBB decomposes, bootstraps only the residual, and recombines.
describe("mbb (period 24)", mbb_augment(x, 24, rng))

# Dominant bins of the original vs a masked copy.
amps = amplitude_spectrum(rfft(x[0]))
masked = amplitude_spectrum(rfft(freq_mask(x, 0.5, rng)[0]))
top = np.argsort(amps)[-5:][::-1]
print("\nbin  original  masked")
for k in top:
    print(f"{k:3d}  {amps[k]:8.2f}  {masked[k]:8.2f}")
