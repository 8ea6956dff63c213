import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraug import spectral
from fraug.spectral import (Spectrum, amplitude_spectrum, irfft, irfft_signal,
                            rfft, rfft_bins)

from conftest import naive_dft, naive_irfft, naive_rfft


def test_constant_signal_has_only_dc():
    s = rfft([3.0, 3.0, 3.0, 3.0])
    np.testing.assert_allclose(s.bins, [12.0, 0.0, 0.0], atol=1e-12)
    assert s.origin_len == 4


def test_alternating_signal():
    # Frozen from the naive DFT oracle.
    s = rfft([1.0, 0.0, -1.0, 0.0])
    np.testing.assert_allclose(s.bins, [0.0, 2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s.bins, naive_rfft([1.0, 0.0, -1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("n", list(range(1, 64)) + [96, 128, 192, 243, 251, 256])
def test_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    np.testing.assert_allclose(rfft(x).bins, naive_rfft(x), atol=1e-9)


@pytest.mark.parametrize("n", [48, 191, 288, 816, 1024])
def test_protocol_lengths_match_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    bins = rfft(x).bins
    np.testing.assert_allclose(bins, naive_rfft(x), rtol=0, atol=1e-9)
    np.testing.assert_allclose(irfft(rfft(x)), naive_irfft(bins, n), rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [192, 816, 191])
def test_batch_matches_row_by_row(n):
    # The radix step reshapes leading axes; a mix-up would show here.
    rng = np.random.default_rng(n)
    x = rng.normal(size=(4, 3, n))
    bins = rfft_bins(x)
    back = irfft_signal(bins, n)
    for i in range(4):
        for j in range(3):
            np.testing.assert_allclose(bins[i, j], rfft_bins(x[i, j]), rtol=0, atol=1e-12)
            np.testing.assert_allclose(back[i, j], irfft_signal(bins[i, j], n),
                                       rtol=0, atol=1e-12)


PATH_LENGTHS = [1, 2, 3, 24, 191, 192, spectral._REAL_N, spectral._REAL_N + 1,
                spectral._REAL_N + 2, 816, 1024, 17420]


def _complex_path_bins(x):
    n = x.shape[-1]
    return spectral._fft(x.astype(complex))[..., : n // 2 + 1]


def _normwise(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("shape", [(), (4, 3)])
@pytest.mark.parametrize("n", PATH_LENGTHS)
def test_every_path_matches_complex_fft(n, shape):
    # Real table up to _REAL_N, packed half-length above it for even n,
    # the complex FFT itself for odd n.
    x = np.random.default_rng(n).normal(size=shape + (n,))
    want = _complex_path_bins(x)
    bins = rfft_bins(x)
    assert bins.shape == want.shape
    assert _normwise(bins, want) <= 1e-12
    back = irfft_signal(want, n)
    assert back.shape == x.shape and back.dtype == np.float64
    assert _normwise(back, x) <= 1e-12


# First radix under the largest-divisor-up-to-8 rule, then the rest of
# the chain: 64 direct; 65 -> 5; 66 -> 6; 67 Bluestein; 68 -> 4;
# 96 -> 8; 99 -> 3; 126 -> 7; 134 -> 2, Bluestein at 67; 216 -> 8;
# 250 -> 5; 343 -> 7; 408 -> 8; 512 -> 8, direct at 64; 871 = 13*67
# Bluestein; 1000 -> 8, 5; 1742 -> 2, Bluestein at 871.
@pytest.mark.parametrize("n", [64, 65, 66, 67, 68, 96, 99, 126, 134, 216, 250, 343,
                               408, 512, 871, 1000, 1742])
def test_complex_fft_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    want = np.array([naive_dft(row) for row in x])
    assert _normwise(spectral._fft(x), want) <= 1e-12
    assert _normwise(spectral._ifft(want), x) <= 1e-12


@pytest.mark.parametrize("block_rows", [1, 4, None], ids=["1-row", "4-rows", "default"])
@pytest.mark.parametrize("n", [48, 191, 192, 288, 816, 1024, 17420])
def test_row_blocks_give_the_bits_of_one_2d_transform(monkeypatch, n, block_rows):
    # Reference: the rows as one 2-D array in one block, the unblocked
    # transform. A (k, C, n) input gives exactly the bits of its k*C
    # rows; a 1-D input those of the unblocked 1-D transform.
    x = np.random.default_rng(n).normal(size=(2, 3, n))
    rows = x.reshape(6, n)
    monkeypatch.setattr(spectral, "_BLOCK_POINTS", 1 << 40)
    bins, row_bins = rfft_bins(rows), rfft_bins(rows[4])
    back, row_back = irfft_signal(bins, n), irfft_signal(row_bins, n)
    if block_rows:  # 4 rows: blocks of 4 and 2
        monkeypatch.setattr(spectral, "_BLOCK_POINTS", block_rows * n)
    else:
        monkeypatch.undo()
    for got, want in [(rfft_bins(rows[4]), row_bins), (rfft_bins(rows), bins),
                      (rfft_bins(x), bins.reshape(2, 3, -1)),
                      (irfft_signal(row_bins, n), row_back), (irfft_signal(bins, n), back),
                      (irfft_signal(bins.reshape(2, 3, -1), n), back.reshape(x.shape))]:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", PATH_LENGTHS)
def test_inverse_ignores_imaginary_dc_and_nyquist(n):
    x = np.random.default_rng(n).normal(size=(4, 3, n))
    bins = _complex_path_bins(x)
    bins[..., 0] = bins[..., 0].real + 3.0j
    if n % 2 == 0:
        bins[..., -1] = bins[..., -1].real - 5.0j
    assert _normwise(irfft_signal(bins, n), x) <= 1e-12


# Above _REAL_N: the packed split for even n, the complex FFT for odd n.
@pytest.mark.parametrize("n", [2, 24, 191, 192, spectral._REAL_N,
                               386, 400, 401, 432, 816, 17420, 17421])
def test_real_table_dc_and_nyquist_bins_are_real(n):
    bins = rfft_bins(np.random.default_rng(n).normal(size=(4, 3, n)))
    assert np.all(bins[..., 0].imag == 0)
    if n % 2 == 0:
        assert np.all(bins[..., -1].imag == 0)


def test_cached_tables_are_read_only():
    rfft(np.ones(191 * 2 * 5))  # fills the radix, direct and Bluestein caches
    rfft(np.ones(spectral._REAL_N))  # and the real tables
    tables = [spectral._dft_matrix(5), spectral._radix_twiddles(955, 5),
              *spectral._bluestein_kernel(191), *spectral._packed_twiddles(1910),
              *spectral._real_tables(spectral._REAL_N)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    x = np.random.default_rng(0).normal(size=1910)
    np.testing.assert_allclose(rfft(x).bins, naive_rfft(x), rtol=0, atol=1e-9)


def test_irfft_constant_case():
    x = irfft(Spectrum(bins=np.array([12.0, 0.0, 0.0], dtype=complex), origin_len=4))
    np.testing.assert_allclose(x, [3.0, 3.0, 3.0, 3.0], atol=1e-12)


def test_irfft_matches_naive_inverse():
    bins = np.array([0.0, 2.0, 0.0], dtype=complex)
    x = irfft(Spectrum(bins=bins, origin_len=4))
    np.testing.assert_allclose(x, [1.0, 0.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(x, naive_irfft(bins, 4), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=256), st.integers())
def test_round_trip_random(n, seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    x = rng.normal(size=n)
    back = irfft(rfft(x))
    assert np.max(np.abs(back - x)) < 1e-9 * (1 + np.max(np.abs(x)))


@pytest.mark.parametrize("n", [192, 288, 432, 816, 1024, 4096])
def test_round_trip_long_windows(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * 10
    back = irfft(rfft(x))
    assert np.max(np.abs(back - x)) < 1e-9 * (1 + np.max(np.abs(x)))


# Spectra whose DC or Nyquist bin the complex FFT or the packed split once
# left with an imaginary part above irfft's 1e-12 check.
@pytest.mark.parametrize("n,scale,shift", [(17420, 1, 1), (400, 1000, 0), (432, 1000, 0),
                                           (401, 1000, 0)])
@pytest.mark.parametrize("seed", range(5))
def test_round_trip_large_values_long_windows(n, scale, shift, seed):
    x = np.random.default_rng(seed).normal(size=n) * scale + shift
    back = irfft(rfft(x))
    assert np.max(np.abs(back - x)) < 1e-9 * (1 + np.max(np.abs(x)))


@pytest.mark.parametrize("n", [5, 8, 31, 192, 200])
def test_parseval(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    bins = rfft(x).bins
    amps2 = np.abs(bins) ** 2
    spectral = amps2[0] + 2 * amps2[1: (n + 1) // 2].sum()
    if n % 2 == 0:
        spectral += amps2[-1]
    time_energy = np.sum(x * x)
    assert abs(time_energy - spectral / n) < 1e-9 * max(1.0, time_energy)


def test_linearity():
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=30), rng.normal(size=30)
    a, b = 2.5, -1.25
    combined = rfft(a * x + b * y).bins
    separate = a * rfft(x).bins + b * rfft(y).bins
    np.testing.assert_allclose(combined, separate, atol=1e-9)


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="empty input"):
        rfft([])


@pytest.mark.parametrize("signal", [np.ones((2, 3)), np.ones((1, 0)), 5.0])
def test_input_that_is_not_one_signal_names_its_shape(signal):
    shape = np.shape(signal)
    with pytest.raises(ValueError, match=re.escape(f"1-D signal, got shape {shape}")):
        rfft(signal)


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite sample"):
        rfft([1.0, np.nan, 2.0])


def test_malformed_spectrum_rejected():
    bins = np.array([1.0 + 1.0j, 0.0, 0.0])
    with pytest.raises(ValueError, match="malformed spectrum"):
        irfft(Spectrum(bins=bins, origin_len=4))


def test_imaginary_nyquist_rejected():
    bins = np.array([1.0, 0.5, 2.0 - 1.0j])
    with pytest.raises(ValueError, match="malformed spectrum: Nyquist bin"):
        irfft(Spectrum(bins=bins, origin_len=4))


# Each bin count matches origin_len // 2 + 1, so only origin_len is wrong.
@pytest.mark.parametrize("origin_len,bins", [(0, 1), (-1, 0), (-2, 0), (2.5, 2), (True, 1),
                                             (4.0, 3), ("4", 3)])
def test_origin_len_that_is_not_a_length_rejected(origin_len, bins):
    with pytest.raises(ValueError, match=re.escape(
            f"malformed spectrum: origin_len must be an integer >= 1, got {origin_len!r}")):
        Spectrum(bins=np.ones(bins, dtype=complex), origin_len=origin_len)


def test_numpy_integer_origin_len_accepted():
    x = np.arange(5.0)
    np.testing.assert_allclose(irfft(Spectrum(rfft(x).bins, np.int64(5))), x, atol=1e-12)


def test_wrong_bin_count_rejected():
    with pytest.raises(ValueError, match="malformed spectrum"):
        Spectrum(bins=np.zeros(4, dtype=complex), origin_len=4)


def test_amplitude_spectrum_examples():
    s = Spectrum(bins=np.array([0.0, 2.0, 0.0], dtype=complex), origin_len=4)
    np.testing.assert_allclose(amplitude_spectrum(s), [0.0, 2.0, 0.0])
    s = Spectrum(bins=np.array([3.0 + 4.0j]), origin_len=1)
    np.testing.assert_allclose(amplitude_spectrum(s), [5.0])


def test_amplitude_spectrum_random_modulus():
    rng = np.random.default_rng(3)
    x = rng.normal(size=17)
    s = rfft(x)
    expected = np.sqrt(s.bins.real**2 + s.bins.imag**2)
    np.testing.assert_allclose(amplitude_spectrum(s), expected, atol=1e-12)


def numpy_fft_uses(source):
    """Line numbers where source imports or touches numpy.fft (as np.fft too)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(re.match(r"(numpy|np)\.fft(\.|$)", name) for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source", [
    "import numpy.fft", "import numpy.fft as nf", "from numpy import fft",
    "from numpy.fft import rfft", "import numpy as np\nx = np.fft.rfft([1.0])",
    "import numpy\nf = numpy.fft",
])
def test_numpy_fft_detector_flags(source):
    assert numpy_fft_uses(source)


def test_library_uses_no_numpy_fft():
    """The README promises no FFT library: src/fraug never uses numpy.fft."""
    paths = sorted(Path(spectral.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = {p.name: numpy_fft_uses(p.read_text()) for p in paths}
    assert not {name: lines for name, lines in found.items() if lines}
