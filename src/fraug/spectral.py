"""Real-input discrete Fourier transform for arbitrary lengths.

Forward transform is unscaled, the inverse carries the 1/N factor.
Lengths that factor into {2, 3, 5, 7} go through a mixed-radix
Cooley-Tukey recursion with one recursive call per radix level: the
input is viewed as p interleaved subsequences, all transformed by that
one call, then combined with a cached twiddle table and one p x p DFT
matrix product (radix 4 goes before 2, halving the levels for powers
of two). Lengths up to _DIRECT_N, smooth or not, use a direct DFT
matrix. Longer lengths that do not factor fall back to Bluestein's
chirp-z algorithm, whose chirp and kernel spectrum are cached per
length, so non-power-of-two window sizes (192, 288, 432, 816, ...) are
handled exactly. The kernels are vectorized over leading axes so a
whole batch of channels is transformed at once. Cached tables are
read-only, so no caller can corrupt later transforms through them.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_RADICES = (4, 2, 3, 5, 7)
_DIRECT_N = 64  # at or below this, use a direct DFT matrix


@dataclass(frozen=True)
class Spectrum:
    """One-sided complex spectrum of a real signal.

    bins has length floor(origin_len/2) + 1; origin_len disambiguates
    even/odd signal lengths for exact inversion.
    """

    bins: np.ndarray
    origin_len: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        object.__setattr__(self, "bins", bins)
        expected = self.origin_len // 2 + 1
        if bins.ndim != 1 or len(bins) != expected:
            raise ValueError(
                f"malformed spectrum: {len(bins)} bins for origin_len "
                f"{self.origin_len}, expected {expected}"
            )


def _frozen(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _dft_matrix(n):
    # Symmetric, so it serves as its own transpose. Reducing j*k mod n
    # keeps the phase argument below 2*pi.
    jk = np.outer(np.arange(n), np.arange(n)) % n
    return _frozen(np.exp(-2j * np.pi * jk / n))


@lru_cache(maxsize=None)
def _radix_twiddles(n, p):
    # T[i, k] = exp(-2j*pi * i * k / n) for i < p, k < n/p
    return _frozen(np.exp(-2j * np.pi * np.outer(np.arange(p), np.arange(n // p)) / n))


@lru_cache(maxsize=None)
def _bluestein_kernel(n):
    """Chirp and the FFT of the chirp-z convolution kernel for length n.

    The kernel is padded to the smallest power of two >= 2n - 1, which
    the radix path handles. k^2 is reduced mod 2n before the exp, since
    the chirp has that period, so the phase stays accurate for large n.
    """
    size = 1 << (2 * n - 2).bit_length()
    k = np.arange(n)
    chirp = np.exp(-1j * np.pi * ((k * k) % (2 * n)) / n)
    b = np.zeros(size, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[size - n + 1:] = np.conj(chirp[1:][::-1])
    return _frozen(chirp), _frozen(_fft(b))


def _fft(x):
    """Complex FFT along the last axis of x."""
    n = x.shape[-1]
    if n <= _DIRECT_N:
        return x @ _dft_matrix(n)
    for p in _RADICES:
        if n % p == 0:
            return _fft_radix(x, p)
    return _fft_bluestein(x)


def _fft_radix(x, p):
    # Decimation in time. Row i of the (..., p, m) view holds x[i::p];
    # X[q*m + k] = sum_i W_p^(i*q) * W_n^(i*k) * DFT_m(x[i::p])[k].
    n = x.shape[-1]
    m = n // p
    subs = _fft(np.swapaxes(x.reshape(x.shape[:-1] + (m, p)), -1, -2))
    out = _dft_matrix(p) @ (subs * _radix_twiddles(n, p))
    return out.reshape(x.shape)


def _fft_bluestein(x):
    n = x.shape[-1]
    # Chirp-z: the length-n DFT as a circular convolution with the
    # cached kernel at a power-of-two length.
    chirp, kernel = _bluestein_kernel(n)
    a = np.zeros(x.shape[:-1] + kernel.shape, dtype=np.complex128)
    a[..., :n] = x * chirp
    return chirp * _ifft(_fft(a) * kernel)[..., :n]


def _ifft(x):
    return np.conj(_fft(np.conj(x))) / x.shape[-1]


def rfft_bins(x):
    """One-sided DFT bins along the last axis; no input validation."""
    n = x.shape[-1]
    full = _fft(np.asarray(x, dtype=np.complex128))
    return full[..., : n // 2 + 1]


def irfft_signal(bins, origin_len):
    """Real inverse of rfft_bins along the last axis; no validation."""
    n = origin_len
    k = bins.shape[-1]
    full = np.empty(bins.shape[:-1] + (n,), dtype=np.complex128)
    full[..., :k] = bins
    if n > 1:
        # Negative frequencies from Hermitian symmetry.
        tail = bins[..., 1: (n + 1) // 2]
        full[..., k:] = np.conj(tail[..., ::-1])
    return np.real(_ifft(full))


def rfft(signal) -> Spectrum:
    """Forward one-sided DFT of a real signal (no normalization)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite sample")
    return Spectrum(bins=rfft_bins(x), origin_len=len(x))


def irfft(spectrum: Spectrum):
    """Inverse of rfft, with the 1/N scaling; returns a real signal."""
    bins = spectrum.bins
    n = spectrum.origin_len
    if abs(bins[0].imag) > 1e-12:
        raise ValueError("malformed spectrum: DC bin has imaginary part")
    if n % 2 == 0 and abs(bins[-1].imag) > 1e-12:
        raise ValueError("malformed spectrum: Nyquist bin has imaginary part")
    return irfft_signal(bins, n)


def amplitude_spectrum(spectrum: Spectrum):
    """Per-bin modulus sqrt(re^2 + im^2)."""
    return np.abs(spectrum.bins)
