import csv
import io
import re

import numpy as np
import pytest

from fraug import dataset
from fraug.dataset import (TimeSeriesDataset, WindowSample, Windows, load_csv,
                           make_windows, span_windows, split_and_normalize,
                           take_last_fraction)
from fraug.experiments import _part_bounds
from fraug.synth import SynthSpec, generate, write_csv

from conftest import assert_windows_equal


def write_small_csv(path, rows, header="date,a,b"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    write_small_csv(p, ["t0,1.0,4.0", "t1,2.0,5.0", "t2,3.0,6.0"])
    ds = load_csv(p)
    assert ds.channel_names == ["a", "b"]
    np.testing.assert_array_equal(ds.values, [[1, 2, 3], [4, 5, 6]])
    assert ds.timestamps == ["t0", "t1", "t2"]


def test_load_csv_single_channel(tmp_path):
    p = tmp_path / "d.csv"
    write_small_csv(p, ["t0,1.0", "t1,2.0", "t2,3.0"], header="date,x")
    ds = load_csv(p)
    assert ds.values.shape[0] == 1 and ds.length == 3


def test_load_csv_bad_cell_names_location(tmp_path):
    p = tmp_path / "d.csv"
    write_small_csv(p, ["t0,1.0,4.0", "t1,abc,5.0"])
    with pytest.raises(ValueError, match=r"row 3.*'a'.*'abc'"):
        load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    write_small_csv(p, ["t0,1.0,4.0", "t1,2.0"])
    with pytest.raises(ValueError, match="row 3"):
        load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def _csv_writer_reference(values, path):
    """The csv.writer loop that write_csv's one-join text must match."""
    c, t = values.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"ch{i}" for i in range(c)])
        for i in range(t):
            writer.writerow([f"t{i:06d}"] + [repr(float(values[ch, i])) for ch in range(c)])


def _awkward_values():
    values = np.random.default_rng(4).normal(size=(3, 50)) * 1e3
    values[:, :4] = [[0.0, -0.0, 1e-300, 1e16],
                     [-1e16, 5e-324, -1e-300, 123456789.125],
                     [1.0, -2.5, 1e22, 0.1]]
    return values


@pytest.mark.parametrize("channels", [3, 1, 0])
def test_write_csv_bytes_match_csv_writer(tmp_path, channels):
    values = _awkward_values()[:channels]
    write_csv(values, tmp_path / "new.csv")
    _csv_writer_reference(values, tmp_path / "old.csv")
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "old.csv").read_bytes()
    assert data.count(b"\r\n") == 51


def test_write_csv_names_and_dates_match_csv_writer(tmp_path, monkeypatch):
    # 7-row blocks: the first two hold dates that need quoting, the third
    # (with an empty date) none.
    values = _awkward_values()[:, :20]
    names = ["when", "a,b", 'say "hi"', "c"]
    dates = [f"2016-07-{i + 1:02d} 00:00:00" for i in range(20)]
    dates[3], dates[9], dates[10], dates[16] = "Jul 4, 2016", 'the "10th"', "line\nbreak", ""
    monkeypatch.setattr(dataset, "CSV_BLOCK_ROWS", 7)
    write_csv(values, tmp_path / "new.csv", names, dates)
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([d] + [repr(float(v)) for v in col] for d, col in zip(dates, values.T))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    ds = load_csv(tmp_path / "new.csv", date_column="when")
    assert ds.channel_names == names[1:] and ds.timestamps == dates
    assert ds.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("names,dates", [(["date", "a"], None), (None, ["t0"] * 49)])
def test_write_csv_rejects_names_or_dates_of_the_wrong_length(tmp_path, names, dates):
    with pytest.raises(ValueError, match="3 channels of 50 rows need 4 names and 50 dates"):
        write_csv(_awkward_values(), tmp_path / "new.csv", names, dates)
    assert not (tmp_path / "new.csv").exists()


# Cells that float() reads, and the value it reads from each; load_csv's
# bulk parse must read them the same.
AWKWARD_CELLS = [("1_000", 1000.0), (" 1.5 ", 1.5), ("  -0.0", -0.0),
                 ("\u0661\u0662", 12.0), ("1e-400", 0.0), ("+3", 3.0)]


@pytest.mark.parametrize("header,line_end", [("date,ch0,ch1,ch2", "\r\n"),
                                             ("ch0,date,ch1,ch2", "\n")])
def test_load_csv_reads_awkward_values_bit_for_bit(tmp_path, header, line_end):
    values = _awkward_values()
    texts = [[repr(v) for v in row] for row in values.T.tolist()]
    for i, (text, value) in enumerate(AWKWARD_CELLS):
        texts[4 + i][i % 3] = text
        values[i % 3, 4 + i] = value
    rows = []
    for i, cells in enumerate(texts):
        cells.insert(header.split(",").index("date"), f"t{i}")
        rows.append(",".join(cells))
    p = tmp_path / "d.csv"
    p.write_bytes((line_end.join([header] + rows) + line_end).encode())
    ds = load_csv(p)
    assert ds.timestamps == [f"t{i}" for i in range(values.shape[1])]
    assert ds.channel_names == ["ch0", "ch1", "ch2"]
    assert ds.values.tobytes() == values.tobytes()


def test_quoted_csv_reads_like_plain(tmp_path):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_small_csv(plain, ["t0,1.0,4.0", "t1,2.0,5.0"])
    write_small_csv(quoted, ['"t0",1.0,"4.0"', 't1,"2.0",5.0'], header='"date",a,b')
    a, b = load_csv(plain), load_csv(quoted)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.timestamps == b.timestamps and a.channel_names == b.channel_names


@pytest.mark.parametrize("text,message", [
    ("", "empty file"),
    ("date,a,b\n", "no data rows"),
    ("x,a,b\nt0,1,2\n", "no column named 'date' in header"),
    ("date\nt0\n", "no numeric columns besides 'date'"),
    ("date,a,b\nt0,1.0,4.0\nt1,2.0\n", "row 3 has 2 cells, expected 3"),
    ("date,a,b\nt0,1.0,4.0\nt1,2.0,5.0,6.0\n", "row 3 has 4 cells, expected 3"),
    ("date,a,b\nt0,1.0,4.0\n\nt2,3.0,6.0\n", "row 3 has 0 cells, expected 3"),
    ("date,a,b\nt0,1.0,4.0\nt1,abc,5.0\n", "row 3, column 'a': cannot parse 'abc' as a number"),
    ("date,a,b\nt0,1.0,\n", "row 2, column 'b': cannot parse '' as a number"),
    ('date,a,b\nt0,"1,5",4.0\n', "row 2, column 'a': cannot parse '1,5' as a number"),
    ("date,a,b\r\nt0,1.0,4.0\rt1,x,5.0\r\n",
     "row 3, column 'a': cannot parse 'x' as a number"),
    ("date,a,b\nt0,1.0,4.0\nt1,nan,5.0\n", "row 3, column 'a': 'nan' is not a finite number"),
    ("date,a,b\nt0,1.0,inf\n", "row 2, column 'b': 'inf' is not a finite number"),
    ('date,a,b\nt0,"1.0",4.0\nt1,2.0,-inf\n',
     "row 3, column 'b': '-inf' is not a finite number"),
    ("date,a,b\nt0,1.0,infinity\n", "row 2, column 'b': 'infinity' is not a finite number"),
    ("date,a,b\nt0,1e500,4.0\n", "row 2, column 'a': '1e500' is not a finite number"),
    ("date,a,b\nt0,0x10,4.0\n", "row 2, column 'a': cannot parse '0x10' as a number"),
])
def test_malformed_csv_messages(tmp_path, text, message):
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}") + "$"):
        load_csv(p)


def test_byte_order_mark_loads_like_the_file_without_it(tmp_path):
    text = "date,a,b\nt0,1.0,4.0\nt1,2.5,-5.0\n".encode()
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    a, b = load_csv(plain), load_csv(marked)
    assert b.channel_names == a.channel_names == ["a", "b"]
    assert b.timestamps == a.timestamps == ["t0", "t1"]
    assert b.values.tobytes() == a.values.tobytes()


@pytest.mark.parametrize("length", [48, 49, 50])
def test_write_csv_blocks_match_csv_writer(tmp_path, monkeypatch, length):
    # 7-row blocks: 48 and 50 rows end in a partial block, 49 in a full one.
    values = _awkward_values()[:, :length]
    monkeypatch.setattr(dataset, "CSV_BLOCK_ROWS", 7)
    write_csv(values, tmp_path / "new.csv")
    _csv_writer_reference(values, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("line_end,last", [("\r\n", "\r\n"), ("\n", "\n"), ("\n", "")],
                         ids=["crlf", "lf", "lf-unterminated"])
@pytest.mark.parametrize("length", [48, 49, 50])
def test_load_csv_blocks_match_one_block(tmp_path, monkeypatch, length, line_end, last):
    values = _awkward_values()[:, :length]
    path = tmp_path / "d.csv"
    _csv_writer_reference(values, path)
    lines = path.read_bytes().decode().split("\r\n")[:-1]
    path.write_bytes((line_end.join(lines) + last).encode())
    monkeypatch.setattr(dataset, "CSV_BLOCK_ROWS", 10**9)
    whole = load_csv(path)
    monkeypatch.setattr(dataset, "CSV_BLOCK_ROWS", 7)
    blocks = load_csv(path)
    assert blocks.timestamps == whole.timestamps == [f"t{i:06d}" for i in range(length)]
    assert blocks.values.tobytes() == whole.values.tobytes()
    np.testing.assert_array_equal(blocks.values, values)


@pytest.mark.parametrize("row,message", [
    ("t20,1.0,x", "row 22, column 'b': cannot parse 'x' as a number"),
    ("t20,inf,1.0", "row 22, column 'a': 'inf' is not a finite number"),
    ("t20,1.0", "row 22 has 2 cells, expected 3"),
])
def test_bad_row_in_a_later_block_names_its_row(tmp_path, monkeypatch, row, message):
    monkeypatch.setattr(dataset, "CSV_BLOCK_ROWS", 7)
    rows = [f"t{i},{i}.0,{i}.5" for i in range(30)]
    rows[20] = row
    p = tmp_path / "d.csv"
    write_small_csv(p, rows)
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}") + "$"):
        load_csv(p)


@pytest.mark.parametrize("header,line_end", [('"date","a,b",c', "\n"),
                                             ('date,"a",b', "\r\n"),
                                             ("date,a,b", "\r")],
                         ids=["comma-in-quoted-name", "quoted-name", "cr-lines"])
def test_quoted_or_cr_header_loads_like_csv_reader(tmp_path, monkeypatch, header, line_end):
    monkeypatch.setattr(dataset, "CSV_BLOCK_ROWS", 7)
    text = line_end.join([header] + [f"t{i},{i}.0,{i}.5" for i in range(20)]) + line_end
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    head, *rows = csv.reader(io.StringIO(text, newline=""))
    ds = load_csv(p)
    assert ds.channel_names == head[1:]
    assert ds.timestamps == [r[0] for r in rows]
    np.testing.assert_array_equal(ds.values, np.array([r[1:] for r in rows], float).T)


def _synthetic_ds(length=1000, channels=2, seed=0, noise=0.5):
    values = generate(SynthSpec(length=length, channels=channels,
                                tones=[(24.0, 1.0)], noise_std=noise,
                                trend_slope=0.002, seed=seed))
    return TimeSeriesDataset(values=values, channel_names=[f"ch{i}" for i in range(channels)])


def test_split_and_normalize_train_stats():
    ds = split_and_normalize(_synthetic_ds(), scheme="generic")
    train_end, val_end = ds.split_bounds
    assert (train_end, val_end) == (700, 800)
    train = ds.values[:, :train_end]
    assert np.all(np.abs(train.mean(axis=1)) < 1e-6)
    assert np.all(np.abs(train.std(axis=1) - 1.0) < 1e-6)


def test_normalization_uses_only_train_split():
    # Non-stationary data: val/test stats must differ from train stats.
    ds = split_and_normalize(_synthetic_ds(), scheme="generic")
    _, val_end = ds.split_bounds
    test = ds.values[:, val_end:]
    assert np.any(np.abs(test.mean(axis=1)) > 1e-3)


def test_normalize_idempotent_on_unit_stats():
    ds = split_and_normalize(_synthetic_ds(), scheme="generic")
    again = split_and_normalize(ds, scheme="generic")
    np.testing.assert_allclose(again.values, ds.values, atol=1e-9)


def test_degenerate_channel_rejected():
    values = np.vstack([np.ones(100), np.arange(100.0)])
    ds = TimeSeriesDataset(values=values, channel_names=["flat", "ramp"])
    with pytest.raises(ValueError, match="degenerate channel 'flat'"):
        split_and_normalize(ds, scheme="generic")


def test_ett_hourly_scheme_bounds():
    # 17420 hourly rows (the ETTh total) -> 12/4/4 month splits.
    ds = split_and_normalize(_synthetic_ds(length=17420, channels=1), scheme="ett-hourly")
    assert ds.split_bounds == (8640, 11520)
    assert ds.length == 14400


def test_ett_hourly_window_count_matches_benchmark_arithmetic():
    ds = split_and_normalize(_synthetic_ds(length=17420, channels=1), scheme="ett-hourly")
    samples = make_windows(ds, "train", 96, 96)
    assert len(samples) == 8448  # 8640 - 96 - 96


def test_window_contiguity():
    ds = split_and_normalize(_synthetic_ds(), scheme="generic")
    lo = ds.split_range("val")[0]
    for k, sample in enumerate(make_windows(ds, "val", 10, 5, stride=37)):
        s = lo + k * 37
        np.testing.assert_array_equal(sample.concat(), ds.values[:, s: s + 15])


def test_make_windows_counts():
    ds = TimeSeriesDataset(values=np.arange(5.0)[None], channel_names=["x"],
                           split_bounds=(5, 5))
    # train split is the whole length-5 series here
    ds.split_bounds = (5, 5)
    samples = make_windows(ds, "train", 2, 2)
    assert len(samples) == 1
    np.testing.assert_array_equal(samples[0].lookback, [[0.0, 1.0]])
    np.testing.assert_array_equal(samples[0].horizon, [[2.0, 3.0]])


def test_make_windows_too_short():
    ds = TimeSeriesDataset(values=np.arange(4.0)[None], channel_names=["x"],
                           split_bounds=(4, 4))
    with pytest.raises(ValueError, match="window exceeds split"):
        make_windows(ds, "train", 2, 3)


@pytest.mark.parametrize("stride", [1, 8])
def test_split_of_exactly_b_plus_h_columns_holds_no_window(stride):
    # The final alignable window is dropped, so b+h columns hold none.
    ds = TimeSeriesDataset(values=np.arange(30.0)[None], channel_names=["x"],
                           split_bounds=(10, 20))
    with pytest.raises(ValueError, match=re.escape(
            "window exceeds split: b+h = 10 leaves no window in the val split of length 10")):
        make_windows(ds, "val", 6, 4, stride)
    ds.split_bounds = (11, 20)
    ws = make_windows(ds, "train", 6, 4, stride)
    assert len(ws) == 1
    np.testing.assert_array_equal(ws[0].concat(), ds.values[:, :10])


@pytest.mark.parametrize("b,h,stride,message", [
    (0, 4, 1, "b must be an integer >= 1, got 0"), (4, 0, 1, "h must be an integer >= 1, got 0"),
    (4, 4, 0, "stride must be an integer >= 1, got 0"),
    (2.5, 4, 1, "b must be an integer >= 1, got 2.5"),
    (4, 2.5, 1, "h must be an integer >= 1, got 2.5"),
    (4, 4, 2.5, "stride must be an integer >= 1, got 2.5"),
    (True, 4, 1, "b must be an integer >= 1, got True"),
    (4, True, 1, "h must be an integer >= 1, got True"),
    (4, 4, True, "stride must be an integer >= 1, got True")])
def test_make_windows_rejects_lengths_below_one(b, h, stride, message):
    ds = split_and_normalize(_synthetic_ds(length=100))
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_windows(ds, "train", b, h, stride)


@pytest.mark.parametrize("length", [1, 2, 3, 6])
def test_generic_split_too_short_names_length_and_scheme(length):
    # 0.7 and 0.8 of the length floor to the same bound: one split is empty.
    with pytest.raises(ValueError, match=re.escape(
            f"series of length {length} too short for scheme 'generic': split bounds")):
        split_and_normalize(_synthetic_ds(length=length), scheme="generic")


def test_fixed_scheme_too_short_names_length_and_scheme():
    with pytest.raises(ValueError, match=re.escape(
            "series of length 1000 too short for scheme 'ett-hourly' (needs 14400)")):
        split_and_normalize(_synthetic_ds(), scheme="ett-hourly")


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="^unknown split scheme 'weekly'$"):
        split_and_normalize(_synthetic_ds(), scheme="weekly")


def test_split_range_needs_bounds_and_a_known_split():
    ds = _synthetic_ds(length=100)
    with pytest.raises(ValueError, match="no split bounds; call split_and_normalize first"):
        ds.split_range("train")
    with pytest.raises(ValueError, match="^unknown split 'dev'$"):
        split_and_normalize(ds).split_range("dev")


def copied_windows(values, lo, hi, b, h, stride=1):
    """Reference: a private copy of every window, the layout rule written out by hand."""
    return [(values[:, s: s + b].copy(), values[:, s + b: s + b + h].copy())
            for s in range(lo, hi - b - h, stride)]


@pytest.mark.parametrize("split,stride", [("train", 1), ("val", 1), ("test", 3),
                                          ("train", 8)])
def test_make_windows_equal_copied_windows(split, stride):
    ds = split_and_normalize(_synthetic_ds(), scheme="generic")
    lo, hi = ds.split_range(split)
    samples = make_windows(ds, split, 24, 12, stride=stride)
    assert_windows_equal(samples, copied_windows(ds.values, lo, hi, 24, 12, stride))
    assert len(samples) == len(range(0, hi - lo - 36, stride))


def test_ttt_span_windows_equal_copied_windows():
    ds = _synthetic_ds(length=600, channels=1)
    b, h = 8, 4
    bounds = _part_bounds(ds.length, 5)
    for i in range(1, 5):
        train = span_windows(ds.values, 0, bounds[i - 1][1], b, h)
        ref = copied_windows(ds.values, 0, bounds[i - 1][1], b, h)
        assert_windows_equal(train, ref)
        assert_windows_equal(span_windows(ds.values, *bounds[i], b, h),
                             copied_windows(ds.values, *bounds[i], b, h))
        # A part's windows are a slice of the training set: window k starts at k.
        for lo, hi in bounds[:i]:
            part = train[lo:hi]
            assert isinstance(part, Windows)
            assert_windows_equal(part, ref[lo:hi])


@pytest.mark.parametrize("lo,hi,message", [
    (0, 41, "span needs lo <= hi <= T, got lo=0, hi=41, T=40"),
    (21, 20, "span needs lo <= hi <= T, got lo=21, hi=20, T=40"),
    (-1, 20, "lo must be an integer >= 0, got -1"),
    (0, 20.5, "hi must be an integer >= 0, got 20.5"),
])
def test_span_windows_rejects_a_span_outside_the_series(lo, hi, message):
    values = np.arange(40.0)[None]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        span_windows(values, lo, hi, 8, 4)


def test_span_windows_may_end_at_the_last_column():
    values = np.arange(40.0)[None]
    assert len(span_windows(values, 0, 40, 8, 4)) == 28
    assert len(span_windows(values, 0, 40, 8, 4, 5)) == 6
    assert len(span_windows(values, 40, 40, 8, 4)) == 0


@pytest.mark.parametrize("name,value,least", [
    ("b", 2.5, 1), ("b", True, 1), ("b", 0, 1), ("n", np.float64(3.0), 1),
    ("n", np.True_, 0), ("n", "3", 1), ("n", None, 0), ("seed", -1, 0),
    ("n", np.int64(-1), 0), ("n", 2, 3),
])
def test_check_count_rejects_non_counts_naming_them(name, value, least):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be an integer >= {least}, got {value!r}")):
        dataset.check_count(name, value, least)


@pytest.mark.parametrize("value", [0, 7, np.int64(0), np.uint8(7), np.int32(2**31 - 1)])
def test_check_count_accepts_python_and_numpy_integers(value):
    dataset.check_count("n", value, 0)


@pytest.mark.parametrize("span", [0, 5, 11, 12])
def test_span_windows_empty_when_span_at_most_b_plus_h(span):
    values = np.arange(40.0)[None]
    empty = span_windows(values, 10, 10 + span, 8, 4)
    assert isinstance(empty, Windows) and len(empty) == 0 and list(empty) == []
    assert empty.data.shape == (0, 1, 12)
    assert len(span_windows(values, 10, 10 + 13, 8, 4)) == 1


def test_windows_are_read_only_views_of_the_dataset():
    ds = split_and_normalize(_synthetic_ds(), scheme="generic")
    samples = make_windows(ds, "train", 24, 12)
    for sample in (samples[0], samples[-1]):
        assert np.shares_memory(sample.lookback, ds.values)
        assert np.shares_memory(sample.horizon, ds.values)
        with pytest.raises(ValueError, match="read-only"):
            sample.lookback[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sample.horizon[...] = 0.0


def test_windows_of_a_loaded_csv_are_row_contiguous(tmp_path):
    path = tmp_path / "series.csv"
    write_csv(_synthetic_ds(length=200).values, path)
    loaded = load_csv(path)
    ds = split_and_normalize(loaded, scheme="generic")
    np.testing.assert_array_equal(
        ds.values, (loaded.values - ds.norm_stats[0][:, None]) / ds.norm_stats[1][:, None])
    assert ds.values.flags.c_contiguous
    sample = make_windows(ds, "train", 24, 12)[0]
    assert sample.lookback.strides == (ds.length * 8, 8)


def test_window_sample_split():
    window = np.arange(12.0).reshape(2, 6)
    sample = WindowSample.split(window, 4)
    np.testing.assert_array_equal(sample.lookback, window[:, :4])
    np.testing.assert_array_equal(sample.horizon, window[:, 4:])
    assert sample.lookback.shape == (2, 4) and sample.horizon.shape == (2, 2)
    np.testing.assert_array_equal(sample.concat(), window)


@pytest.mark.parametrize("b", [8, 20])
def test_windows_rejects_a_look_back_as_long_as_the_window(b):
    # b = 20 made look-backs of all 8 columns and empty horizons.
    with pytest.raises(ValueError, match=re.escape(f"b must be < the window length 8, got {b}")):
        Windows(np.zeros((3, 1, 8)), b)


@pytest.mark.parametrize("b", [0, 7])
def test_windows_accepts_a_look_back_shorter_than_the_window(b):
    ws = Windows(np.zeros((3, 1, 8)), b)
    assert ws.lookback.shape == (3, 1, b) and ws.horizon.shape == (3, 1, 8 - b)


@pytest.mark.parametrize("shape", [(3, 8), (3, 1, 2, 4)])
def test_windows_rejects_data_that_is_not_three_dimensional(shape):
    # (3, 8) raised IndexError; (3, 1, 2, 4) gave a (3, 1, 2, 2) look-back.
    with pytest.raises(ValueError, match=re.escape(
            f"Windows data must be an (n, C, L) array, got shape {shape}")):
        Windows(np.zeros(shape), 2)


def test_windows_set_access():
    values = np.arange(60.0).reshape(2, 30)
    ws = span_windows(values, 3, 30, 5, 3, stride=2)
    ref = copied_windows(values, 3, 30, 5, 3, stride=2)
    assert_windows_equal(ws, ref)
    assert_windows_equal(list(ws), ref)
    assert_windows_equal(ws[-1:], ref[-1:])
    assert isinstance(ws[2:5], Windows) and ws[2:5].b == 5
    assert_windows_equal(ws[2:5], ref[2:5])
    sample = ws[-2]
    assert isinstance(sample, WindowSample)
    assert ws.data.shape == (len(ref), 2, 8) and not ws.data.flags.owndata


def test_windows_index_array_is_one_stacked_set():
    values = np.arange(60.0).reshape(2, 30)
    ws = span_windows(values, 3, 30, 5, 3, stride=2)
    idx = np.array([4, 0, 4, 2])
    got = ws[idx]
    assert isinstance(got, Windows) and got.b == 5 and got.data.flags.c_contiguous
    np.testing.assert_array_equal(got.data, np.stack([ws.data[i] for i in idx]))
    assert_windows_equal(got, [(w.lookback, w.horizon) for w in (ws[int(i)] for i in idx)])


@pytest.mark.parametrize("index", [[4, 0, 2], []], ids=["list", "empty"])
def test_windows_list_index_is_a_set_like_an_index_array(index):
    values = np.arange(60.0).reshape(2, 30)
    ws = span_windows(values, 3, 30, 5, 3, stride=2)
    got, want = ws[index], ws[np.array(index, dtype=np.intp)]
    assert isinstance(got, Windows) and got.b == 5
    np.testing.assert_array_equal(got.data, want.data)
    for k in (2, np.int64(2), np.intp(-1)):
        assert isinstance(ws[k], WindowSample)
    # Window 2 of a stride-2 span from column 3 starts at column 3 + 2 * 2.
    np.testing.assert_array_equal(ws[np.int64(2)].concat(), values[:, 7:15])


def test_take_last_fraction_of_a_set_is_a_slice():
    ds = split_and_normalize(_synthetic_ds(), scheme="generic")
    ws = make_windows(ds, "train", 24, 12)
    out = take_last_fraction(ws, 0.1)
    assert isinstance(out, Windows) and len(out) == 66
    assert np.shares_memory(out.data, ds.values)
    assert_windows_equal(out, [(w.lookback, w.horizon) for w in ws][-66:])


def test_take_last_fraction():
    samples = list(range(8448))
    out = take_last_fraction(samples, 0.01)
    assert len(out) == 84
    assert out == samples[-84:]
    assert take_last_fraction(samples, 1.0) == samples
    assert take_last_fraction(list(range(100)), 0.5) == list(range(50, 100))


def test_take_last_fraction_is_suffix():
    samples = list(range(37))
    for f in (0.03, 0.2, 0.77):
        out = take_last_fraction(samples, f)
        assert out == samples[len(samples) - len(out):]


def test_take_last_fraction_errors():
    with pytest.raises(ValueError):
        take_last_fraction([], 0.5)
    with pytest.raises(ValueError):
        take_last_fraction([1], 0.0)


@pytest.mark.parametrize("fraction", [True, False, float("nan"), 1.5])
def test_take_last_fraction_rejects_a_bool_or_out_of_range_fraction(fraction):
    # True would read as 1.0 and silently keep the whole set.
    with pytest.raises(ValueError, match=re.escape(f"fraction must be in (0, 1], got {fraction}")):
        take_last_fraction(list(range(10)), fraction)


@pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf")])
def test_generate_rejects_a_negative_or_non_finite_noise_std(noise_std):
    # -1 and NaN generated no noise at all, and no error.
    with pytest.raises(ValueError, match=re.escape(
            f"noise_std must be finite and >= 0, got {noise_std!r}")):
        generate(SynthSpec(length=10, noise_std=noise_std))


@pytest.mark.parametrize("shift_at", [10, 50])
def test_generate_rejects_a_shift_at_or_past_the_end(shift_at):
    # It was silently ignored: the series came out unshifted.
    with pytest.raises(ValueError, match=re.escape(
            f"shift_at must be < length 10, got {shift_at}")):
        generate(SynthSpec(length=10, shift_at=shift_at, shift_delta=5.0))


def test_generate_shift_at_the_last_column():
    plain = generate(SynthSpec(length=10))
    shifted = generate(SynthSpec(length=10, shift_at=9, shift_delta=5.0))
    np.testing.assert_array_equal(shifted[:, :9], plain[:, :9])
    np.testing.assert_array_equal(shifted[:, 9], plain[:, 9] + 5.0)


@pytest.mark.parametrize("tones,bad", [
    ([(0.0, 1.0)], 0), ([(-24.0, 1.0)], 0), ([(24.0, 1.0), (float("nan"), 1.0)], 1),
    ([(float("inf"), 1.0)], 0), ([(24.0, float("inf"))], 0), ([(24.0, 1.0), (24.0,)], 1),
    ([24.0], 0), ([(24.0, 1.0, 0.5)], 0),
], ids=["zero-period", "negative-period", "nan-period", "inf-period", "inf-amplitude",
        "single", "bare-number", "triple"])
def test_generate_rejects_a_tone_that_is_not_a_finite_pair(tones, bad):
    # A zero period gave a NaN series; an infinite amplitude a non-finite one.
    message = (f"tones[{bad}] must be a (period, amplitude) pair of finite numbers "
               f"with period > 0, got {tones[bad]!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate(SynthSpec(length=10, tones=tones))


@pytest.mark.parametrize("name", ["trend_slope", "shift_delta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_generate_rejects_a_non_finite_trend_or_shift(name, value):
    message = f"{name} must be finite, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate(SynthSpec(length=10, shift_at=5, **{name: value}))


def test_generate_accepts_finite_fields_and_no_tones():
    values = generate(SynthSpec(length=10, tones=[], trend_slope=-0.5, shift_at=5,
                                shift_delta=2.0))
    np.testing.assert_array_equal(values[0], -0.5 * np.arange(10.0) + np.repeat([0.0, 2.0], 5))


def test_synth_csv_round_trip(tmp_path):
    spec = SynthSpec(length=200, channels=3, noise_std=0.1, seed=9)
    values = generate(spec)
    p = tmp_path / "s.csv"
    write_csv(values, p)
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.values, values)
