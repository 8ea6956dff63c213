"""Benchmark CSV ingestion, normalization, splitting, and windowing.

A set of windows is one Windows object: an (n, C, b+h) array whose
window k is a look-back (its first b columns) followed by a horizon;
it is the one set type. A training batch is one fancy index into that
array; WindowSample is the single-window view, the type
augment.apply_augment takes and returns.

load_csv has one parser: csv.reader streams the file, and each
CSV_BLOCK_ROWS rows are checked and parsed to floats in bulk.
"""

import csv
import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Split schemes: (train_len, val_len, test_len); None = ratio-based 70/10/20.
SPLIT_SCHEMES = {
    "ett-hourly": (8640, 2880, 2880),
    "ett-minute": (34560, 11520, 11520),
    "generic": None,
}
CSV_BLOCK_ROWS = 1024  # rows that load_csv parses and synth.write_csv formats at a time


def check_count(name, value, least):
    """The one rule for counts: raise ValueError naming `name` unless value is
    an integer (numpy's too, not a bool) >= least."""
    if type(value) is int and value >= least:  # the common case, without the ABC check
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(eq=False)
class TimeSeriesDataset:
    """Multichannel series with optional normalization state and split bounds.

    values is a (C, T) float64 array; channel_names has length C.
    norm_stats, when set, holds per-channel (mean, std) computed on the
    training split only.
    """

    values: np.ndarray
    channel_names: list = field(default_factory=list)
    timestamps: list | None = None
    norm_stats: tuple | None = None
    split_bounds: tuple | None = None

    @property
    def length(self):
        return self.values.shape[1]

    def split_range(self, split):
        if self.split_bounds is None:
            raise ValueError("dataset has no split bounds; call split_and_normalize first")
        train_end, val_end = self.split_bounds
        if split == "train":
            return 0, train_end
        if split == "val":
            return train_end, val_end
        if split == "test":
            return val_end, self.length
        raise ValueError(f"unknown split {split!r}")


@dataclass(eq=False)
class WindowSample:
    """One (look-back, horizon) pair: lookback (C, b), horizon (C, h).

    start_index is a caller's label for the start column; the library never sets it."""

    lookback: np.ndarray
    horizon: np.ndarray
    start_index: int = 0

    def concat(self):
        """(C, b+h) concatenation of look-back and horizon."""
        return np.concatenate([self.lookback, self.horizon], axis=1)

    @classmethod
    def split(cls, window, b):
        """Sample viewing a (C, b+h) window: the first b columns are the look-back."""
        return cls(lookback=window[:, :b], horizon=window[:, b:])


def _check_rows(block, rownum, path, header, value_cols):
    """Raise ValueError naming the first row of the block, numbered from
    rownum, whose cell count differs from the header's or one of whose
    value cells is not a finite number. Each cell is read with load_csv's
    bulk cast, so a block that cast rejected always has such a row."""
    for rownum, row in enumerate(block, start=rownum):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}"
            )
        for i in value_cols:
            where = f"{path}: row {rownum}, column {header[i]!r}"
            try:
                value = np.array(row[i], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{where}: cannot parse {row[i]!r} as a number") from None
            if not np.isfinite(value):
                raise ValueError(f"{where}: {row[i]!r} is not a finite number")


def load_csv(path, date_column="date") -> TimeSeriesDataset:
    """Parse a header-and-date-column CSV into a dataset.

    All non-date columns are parsed as float64, in header order; a cell
    that is not a finite number is an error. csv.reader streams the
    file, and each CSV_BLOCK_ROWS rows are checked and parsed as one
    block, so one block of cell strings is alive at a time; only a
    block that fails is scanned again row by row, to name its first bad
    row. A leading UTF-8 byte-order mark is skipped.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FileNotFoundError(f"cannot open dataset file {path}: {exc}") from exc
    with fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if date_column not in header:
            raise ValueError(f"{path}: no column named {date_column!r} in header")
        width, date_idx = len(header), header.index(date_column)
        value_cols = [i for i in range(width) if i != date_idx]
        if not value_cols:
            raise ValueError(f"{path}: no numeric columns besides {date_column!r}")
        timestamps, blocks = [], []
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            values = None
            if set(map(len, block)) == {width}:
                cells = list(chain.from_iterable(block))
                stamps = cells[date_idx::width]
                del cells[date_idx::width]
                try:
                    values = np.array(cells, dtype=np.float64)
                except ValueError:
                    pass
            if values is None or not np.isfinite(values).all():
                _check_rows(block, 2 + len(timestamps), path, header, value_cols)  # raises
            timestamps += stamps
            blocks.append(values.reshape(len(block), -1))
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    values = np.concatenate(blocks).T
    return TimeSeriesDataset(values=values, channel_names=[header[i] for i in value_cols],
                             timestamps=timestamps)


def split_and_normalize(ds: TimeSeriesDataset, scheme="generic") -> TimeSeriesDataset:
    """Fix split boundaries and z-score every channel with train-split stats.

    Fixed-length schemes (ett-hourly, ett-minute) truncate the series to
    train+val+test; the generic scheme splits 70/10/20.
    """
    if scheme not in SPLIT_SCHEMES:
        raise ValueError(f"unknown split scheme {scheme!r}")
    lengths = SPLIT_SCHEMES[scheme]
    t_total = ds.length
    if lengths is None:
        train_end, val_end, end = int(t_total * 0.7), int(t_total * 0.8), t_total
    else:
        train_end, val_end, end = accumulate(lengths)
        if t_total < end:
            raise ValueError(
                f"series of length {t_total} too short for scheme {scheme!r} (needs {end})"
            )
    if not 0 < train_end < val_end <= end:
        raise ValueError(f"series of length {t_total} too short for scheme {scheme!r}: split "
                         f"bounds ({train_end}, {val_end}) leave a split empty")
    values = ds.values[:, :end]
    timestamps = ds.timestamps[:end] if ds.timestamps is not None else None

    train = values[:, :train_end]
    mean = train.mean(axis=1)
    std = train.std(axis=1)
    for c, s in enumerate(std):
        if s == 0.0:
            name = ds.channel_names[c] if ds.channel_names else str(c)
            raise ValueError(f"degenerate channel {name!r}: zero training std")
    # C order: windows are views of this array, and a batch stacked from
    # row-contiguous views is C-contiguous (load_csv's values are F-ordered).
    normalized = np.ascontiguousarray((values - mean[:, None]) / std[:, None])
    return replace(
        ds,
        values=normalized,
        timestamps=timestamps,
        norm_stats=(mean, std),
        split_bounds=(train_end, val_end),
    )


class Windows:
    """n windows as one (n, C, b+h) array ``data``, look-backs of b columns.

    ``ws[k]`` for an integer k is window k as a WindowSample of views,
    ``ws[i:j]`` a set of views, ``ws[idx]`` for a list or index array a
    set copied by one fancy index, and iteration yields WindowSamples in order.
    ``ws.lookback`` and ``ws.horizon`` are (n, C, b) and (n, C, h) views;
    ``ws.lookback[idx]`` is one fancy index, a contiguous copy of the
    look-backs at ``idx``. data is 3-D; b is a count with 0 <= b < b+h.
    """

    def __init__(self, data, b):
        if data.ndim != 3:
            raise ValueError(f"Windows data must be an (n, C, L) array, got shape {data.shape}")
        check_count("b", b, 0)
        if b >= data.shape[2]:
            raise ValueError(f"b must be < the window length {data.shape[2]}, got {b}")
        self.data = data
        self.b = b

    @property
    def lookback(self):
        return self.data[:, :, :self.b]

    @property
    def horizon(self):
        return self.data[:, :, self.b:]

    def __len__(self):
        return len(self.data)

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            return WindowSample.split(self.data[k], self.b)
        return Windows(self.data[k], self.b)

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def make_windows(ds: TimeSeriesDataset, split, b, h, stride=1):
    """Produce (look-back, horizon) samples from one split.

    With stride 1 the count is split_length - b - h (the final alignable
    window is dropped, matching the benchmark sample arithmetic); a split
    that holds no window is an error. The Windows are a read-only view
    of ds.values; span_windows checks b, h and stride.
    """
    lo, hi = ds.split_range(split)
    windows = span_windows(ds.values, lo, hi, b, h, stride)
    if not len(windows):
        raise ValueError(f"window exceeds split: b+h = {b + h} leaves no window "
                         f"in the {split} split of length {hi - lo}")
    return windows


def span_windows(values, lo, hi, b, h, stride=1):
    """Windows fully inside columns [lo, hi) of a (C, T) array.

    Window k starts at column s = lo + k * stride: look-back
    values[:, s:s+b], horizon the next h columns. The final alignable
    window is dropped, so a span of at most b+h columns gives an empty
    set. Nothing is copied: ``data`` is a read-only strided view of
    `values`. b, h and stride are counts >= 1, and the span must lie
    inside the series: 0 <= lo <= hi <= T.
    """
    for name, value, least in (("b", b, 1), ("h", h, 1), ("stride", stride, 1),
                               ("lo", lo, 0), ("hi", hi, 0)):
        check_count(name, value, least)
    if not lo <= hi <= values.shape[1]:
        raise ValueError(f"span needs lo <= hi <= T, got lo={lo}, hi={hi}, T={values.shape[1]}")
    n = b + h
    if hi - lo <= n:
        return Windows(np.empty((0, values.shape[0], n)), b)
    data = sliding_window_view(values[:, lo:hi], n, axis=1).transpose(1, 0, 2)
    return Windows(data[:hi - lo - n:stride], b)


def take_last_fraction(samples, fraction):
    """Final floor(fraction * n) samples (at least one), order preserved.

    A Windows set gives a slice of itself.
    """
    if not samples:
        raise ValueError("empty sample list")
    if isinstance(fraction, bool) or not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    count = max(1, math.floor(fraction * len(samples)))
    return samples[-count:]
