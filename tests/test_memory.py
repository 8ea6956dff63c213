"""Peak traced memory of the whole-series steps at ETT scale (17420 x 7).

load_csv, write_csv and the long transforms work one block of rows at
a time, so none of them holds a whole-file temporary: load_csv streams
the file through csv.reader and holds one block of cell strings beside
the parsed floats and timestamps. Before blocking, load_csv peaked at
13.4x its file, write_csv at 4.4x its text and the transform pair at
15.9 MiB; while load_csv read unquoted text whole and split it, a plain
file peaked at 2.5x and a quoted one at 2.0x.
"""

import tracemalloc

import numpy as np
import pytest

from fraug.dataset import load_csv
from fraug.spectral import irfft_signal, rfft_bins
from fraug.synth import write_csv

ROWS, CHANNELS = 17420, 7


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def series():
    return np.random.default_rng(0).normal(size=(CHANNELS, ROWS)).cumsum(axis=1)


def test_load_csv_peaks_within_1_6x_its_file(tmp_path, series):
    path = tmp_path / "series.csv"
    write_csv(series, path)
    assert path.read_bytes().count(b"\r\n") == ROWS + 1
    size = path.stat().st_size
    peak = _peak_bytes(lambda: load_csv(path))
    assert peak <= 1.6 * size, f"peak {peak} B for a {size} B file"


@pytest.mark.parametrize("quoting", ["dates", "all"])
def test_quoted_csv_peaks_within_1_6x_its_file(tmp_path, series, quoting):
    # Quoted dates after a plain header, or every cell, the header's too.
    plain = tmp_path / "plain.csv"
    write_csv(series, plain)
    lines = plain.read_text().splitlines()
    if quoting == "dates":
        lines[1:] = [f'"{line[:7]}"{line[7:]}' for line in lines[1:]]
    else:
        lines = [",".join(f'"{cell}"' for cell in line.split(",")) for line in lines]
    path = tmp_path / "quoted.csv"
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    size = path.stat().st_size
    peak = _peak_bytes(lambda: load_csv(path))
    assert peak <= 1.6 * size, f"peak {peak} B for a {size} B file"
    want, got = load_csv(plain), load_csv(path)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.timestamps == want.timestamps


def test_write_csv_peaks_within_a_quarter_of_its_text(tmp_path, series):
    path = tmp_path / "series.csv"
    peak = _peak_bytes(lambda: write_csv(series, path))
    size = path.stat().st_size
    assert peak <= size / 4, f"peak {peak} B for {size} B of text"


def test_long_transform_pair_peaks_within_half_the_stacked_one(series):
    irfft_signal(rfft_bins(series), ROWS)  # fill the kernel caches first
    peak = _peak_bytes(lambda: irfft_signal(rfft_bins(series), ROWS))
    assert peak <= 15.9 * 2**20 / 2, f"peak {peak / 2**20:.2f} MiB"
