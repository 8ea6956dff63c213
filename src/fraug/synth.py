"""Deterministic synthetic series, and write_csv for any (C, T) array, in the ETT layout."""

import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import dataset

_QUOTED = re.compile('[,"\r\n]')  # a cell holding one of these is quoted by csv.writer


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
    datasets are not degenerate copies. A bad field raises, naming it;
    finite fields can still overflow to a non-finite series.
    """
    for name, least in (("length", 1), ("channels", 1), ("seed", 0)):
        dataset.check_count(name, getattr(spec, name), least)
    if spec.shift_at is not None:
        dataset.check_count("shift_at", spec.shift_at, 0)
        if spec.shift_at >= spec.length:
            raise ValueError(f"shift_at must be < length {spec.length}, got {spec.shift_at}")
    # Written as not (...) so NaN fails too.
    if not 0 <= spec.noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {spec.noise_std!r}")
    for i, tone in enumerate(spec.tones):
        if np.shape(tone) != (2,) or not (0 < tone[0] < math.inf and math.isfinite(tone[1])):
            raise ValueError(f"tones[{i}] must be a (period, amplitude) pair of finite "
                             f"numbers with period > 0, got {tone!r}")
    for name in ("trend_slope", "shift_delta"):
        if not math.isfinite(getattr(spec, name)):
            raise ValueError(f"{name} must be finite, got {getattr(spec, name)!r}")
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    out = np.zeros((spec.channels, spec.length))
    for c, x in enumerate(out):  # each x is a row of out, filled in place
        phase = 2.0 * np.pi * c / spec.channels
        for period, amp in spec.tones:
            x += amp * np.sin(2.0 * np.pi * t / period + phase)
        x += spec.trend_slope * t
        if spec.noise_std > 0:
            x += rng.normal(0.0, spec.noise_std, size=spec.length)
        if spec.shift_at is not None:
            x[spec.shift_at:] += spec.shift_delta
    return out


def write_csv(values, path, names=None, dates=None):
    """Write a (C, T) array as an ETT-convention CSV: a date column, then the channels.

    names is the header, date column first (default date, ch0, ...), and
    dates the T date cells (default t000000, ...). The bytes are those
    csv.writer writes: each value is repr(float) and each line ends in
    CRLF. Rows are written dataset.CSV_BLOCK_ROWS at a time, so one
    block's text is alive at a time, not the file's; a block with a date
    to quote, or with no channels, goes through csv.writer itself.
    """
    c, t = values.shape
    values = np.asarray(values, dtype=np.float64)
    names = ["date"] + [f"ch{i}" for i in range(c)] if names is None else names
    if len(names) != c + 1 or (dates is not None and len(dates) != t):
        raise ValueError(f"{c} channels of {t} rows need {c + 1} names and {t} dates")
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text([names]))
        step = dataset.CSV_BLOCK_ROWS
        for lo in range(0, t, step):
            stamps = ([f"t{i:06d}" for i in range(lo, min(lo + step, t))] if dates is None
                      else dates[lo:lo + step])
            # The block's float lists are freed as the zip runs out, before the join.
            rows = zip(values[:, lo:lo + step].T.tolist(), stamps)
            if c and not _QUOTED.search("".join(stamps)):
                fh.write("".join([f"{d},{','.join(map(repr, row))}\r\n" for row, d in rows]))
            else:
                fh.write(_csv_text([d, *row] for row, d in rows))


def _csv_text(rows):
    """csv.writer's text for rows; a writer that has written keeps a 128 KiB buffer."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()
