"""Deterministic synthetic series generation in the ETT column layout."""

from dataclasses import dataclass, field

import numpy as np

from . import dataset


@dataclass
class SynthSpec:
    """Sinusoid mixture plus optional noise, trend, and mean shift."""

    length: int = 1000
    channels: int = 1
    tones: list = field(default_factory=lambda: [(24.0, 1.0)])  # (period, amplitude)
    noise_std: float = 0.0
    trend_slope: float = 0.0
    shift_at: int | None = None
    shift_delta: float = 0.0
    seed: int = 0


def generate(spec: SynthSpec):
    """(C, T) float64 array of synthetic channels.

    Channels differ by a deterministic phase offset so multichannel
    datasets are not degenerate copies.
    """
    if spec.length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    out = np.zeros((spec.channels, spec.length))
    for c in range(spec.channels):
        x = np.zeros(spec.length)
        for period, amp in spec.tones:
            phase = 2.0 * np.pi * c / max(1, spec.channels)
            x += amp * np.sin(2.0 * np.pi * t / period + phase)
        x += spec.trend_slope * t
        if spec.noise_std > 0:
            x += rng.normal(0.0, spec.noise_std, size=spec.length)
        if spec.shift_at is not None:
            x[spec.shift_at:] += spec.shift_delta
        out[c] = x
    return out


def write_csv(values, path):
    """Write a (C, T) array as an ETT-convention CSV (date + channels).

    The bytes are those csv.writer writes: no cell needs quoting, each
    value is repr(float), and each line ends in CRLF. Rows are
    formatted and written dataset.CSV_BLOCK_ROWS at a time, so one
    block's text is alive at a time, not the file's.
    """
    c, t = values.shape
    sep = "," if c else ""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["date"] + [f"ch{i}" for i in range(c)]) + "\r\n")
        step = dataset.CSV_BLOCK_ROWS
        for lo in range(0, t, step):
            # The block's float lists die with the comprehension, before the join.
            fh.write("".join([f"t{i:06d}{sep}{','.join(map(repr, row))}\r\n" for i, row
                              in enumerate(values[:, lo:lo + step].T.tolist(), lo)]))
