"""Real-input discrete Fourier transform for arbitrary lengths.

Forward transform is unscaled, the inverse carries the 1/N factor.
Real input is transformed as real, by one of three paths chosen from
the length n:

- n <= _REAL_N: one real matrix product against a cached (n, n+2)
  table of interleaved cos and -sin columns, whose result viewed as
  complex is the one-sided spectrum; the inverse is one product with
  the matching weighted table. No complex temporary is made.
- even n > _REAL_N: the even and odd samples are packed into one
  half-length complex signal, transformed by the complex FFT below and
  split into the one-sided spectrum with one cached twiddle pass; the
  inverse runs the same steps backwards.
- odd n > _REAL_N: the full complex FFT of the signal, truncated to
  the one-sided bins; the inverse rebuilds the negative frequencies by
  Hermitian symmetry.

Leading axes are rows: a stacked (k, C, n) input gives exactly the bits
of its k*C rows as one 2-D array. Above _REAL_N, rows are transformed
in blocks of about _BLOCK_POINTS signal points into one preallocated
result, so a long series holds one block's temporaries, not the
stack's; blocking changes no bit.

The complex FFT is a mixed-radix Cooley-Tukey recursion with radix p
the largest divisor of n up to _MAX_RADIX, one recursive call per
level: the input is viewed as p interleaved subsequences, all
transformed by that one call, then combined with a cached twiddle table
and one p x p DFT matrix product. Lengths up to _DIRECT_N use a direct
DFT matrix, longer ones with no such divisor Bluestein's chirp-z, whose
chirp and kernel spectrum are cached per length. The kernels are
vectorized over leading axes, so a whole batch of channels is
transformed at once; a stack times a cached table (real table or direct
DFT matrix) is one 2-D product over its rows, through _table_product.
Every inverse ignores the imaginary parts of the DC and Nyquist bins.
Cached tables are read-only, so no caller can corrupt later transforms
through them.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_MAX_RADIX = 8  # the radix is n's largest divisor up to this
_DIRECT_N = 64  # at or below this, use a direct DFT matrix
_REAL_N = 384  # at or below this, one real-table matmul per transform
_BLOCK_POINTS = 1 << 15  # above _REAL_N, signal points transformed at a time


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided complex spectrum of a real signal.

    bins has length floor(origin_len/2) + 1; origin_len disambiguates
    even/odd signal lengths for exact inversion.
    """

    bins: np.ndarray
    origin_len: int

    def __post_init__(self):
        n = self.origin_len
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"malformed spectrum: origin_len must be an integer >= 1, got {n!r}")
        bins = np.asarray(self.bins, dtype=np.complex128)
        object.__setattr__(self, "bins", bins)
        expected = n // 2 + 1
        if bins.ndim != 1 or len(bins) != expected:
            raise ValueError(
                f"malformed spectrum: {len(bins)} bins for origin_len "
                f"{n}, expected {expected}"
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


@lru_cache(maxsize=None)
def _real_tables(n):
    """Forward (n, 2k) and inverse (2k, n) real DFT tables, k = n//2 + 1.

    Forward columns 2j and 2j+1 hold cos and -sin of 2*pi*j*t/n, so a
    real row times the table, viewed as complex128, is the one-sided
    spectrum. The inverse rows hold the same functions weighted by 1/n
    for the DC and Nyquist bins and 2/n for the others, so a spectrum
    viewed as float64 times the table is the real signal. The sine rows
    and columns of the DC and Nyquist bins are zero: their imaginary
    parts are not produced and are ignored on the way back.
    """
    k = n // 2 + 1
    phase = 2 * np.pi * (np.outer(np.arange(n), np.arange(k)) % n) / n
    fwd = np.empty((n, 2 * k))
    fwd[:, 0::2] = np.cos(phase)
    fwd[:, 1::2] = -np.sin(phase)
    weights = np.full(k, 2.0 / n)
    weights[0] = 1.0 / n
    fwd[:, 1] = 0.0
    if n % 2 == 0:
        weights[-1] = 1.0 / n
        fwd[:, -1] = 0.0
    inv = fwd.T * np.repeat(weights, 2)[:, None]
    return _frozen(fwd), _frozen(np.ascontiguousarray(inv))


@lru_cache(maxsize=None)
def _packed_twiddles(n):
    # A = (1 - i*W)/2 and B = (1 + i*W)/2 with W[k] = exp(-2j*pi*k/n),
    # k = 0..n/2: the split of a packed half-length FFT (even n).
    w = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    return _frozen(0.5 * (1 - 1j * w)), _frozen(0.5 * (1 + 1j * w))


def _fft(x):
    """Complex FFT along the last axis of x."""
    n = x.shape[-1]
    if n <= _DIRECT_N:
        return _table_product(x, _dft_matrix(n))
    p = max((p for p in range(2, _MAX_RADIX + 1) if n % p == 0), default=None)
    return _fft_bluestein(x) if p is None else _fft_radix(x, p)


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


def _rfft_packed(x):
    # Even n: z[t] = x[2t] + i*x[2t+1] is one half-length complex
    # signal. With Z its DFT and Z[n/2] = Z[0], the one-sided spectrum
    # is X[k] = A[k]*Z[k] + B[k]*conj(Z[n/2 - k]) for k = 0..n/2.
    a, b = _packed_twiddles(x.shape[-1])
    z = _fft(np.ascontiguousarray(x, dtype=np.float64).view(np.complex128))
    ext = np.concatenate((z, z[..., :1]), axis=-1)
    return a * ext + b * np.conj(ext[..., ::-1])


def _irfft_packed(bins, n):
    # Inverse of _rfft_packed: for k < n/2,
    # Z[k] = conj(A[k])*X[k] + conj(B[k])*conj(X[n/2 - k]).
    # Z[0] is rebuilt from the real parts of the DC and Nyquist bins
    # alone, so their imaginary parts are ignored.
    half = n // 2
    a, b = _packed_twiddles(n)
    z = np.conj(a[:half]) * bins[..., :half] + np.conj(b[:half] * bins[..., half:0:-1])
    dc, nyquist = bins[..., 0].real, bins[..., half].real
    z[..., 0] = 0.5 * ((dc + nyquist) + 1j * (dc - nyquist))
    return np.ascontiguousarray(_ifft(z)).view(np.float64)


def _table_product(x, table):
    # x @ table, a stacked (..., n) x as one 2-D product over its rows:
    # matmul would run one product per leading index.
    if x.ndim < 3:
        return x @ table
    return (x.reshape(-1, x.shape[-1]) @ table).reshape(x.shape[:-1] + table.shape[1:])


def _by_row_blocks(transform, x, n, width, dtype):
    # transform of x viewed as (rows, x.shape[-1]), about _BLOCK_POINTS
    # signal points at a time, into one preallocated (..., width) result.
    # Input that fits one block goes through whole: a 1-D signal and the
    # same signal as a (1, n) row can differ in the last bit.
    rows = x.reshape(-1, x.shape[-1])
    step = max(1, _BLOCK_POINTS // n)
    if len(rows) <= step:
        return transform(x, n)
    out = np.empty((len(rows), width), dtype)
    for lo in range(0, len(rows), step):
        out[lo:lo + step] = transform(rows[lo:lo + step], n)
    return out.reshape(x.shape[:-1] + (width,))


def _rfft_long(x, n):
    if n % 2 == 0:
        return _rfft_packed(x)
    return _fft(np.asarray(x, dtype=np.complex128))[..., : n // 2 + 1]


def _irfft_long(bins, n):
    if n % 2 == 0:
        return _irfft_packed(bins, n)
    k = bins.shape[-1]
    full = np.empty(bins.shape[:-1] + (n,), dtype=np.complex128)
    full[..., :k] = bins
    # Negative frequencies from Hermitian symmetry.
    tail = bins[..., 1: (n + 1) // 2]
    full[..., k:] = np.conj(tail[..., ::-1])
    return np.real(_ifft(full))


def rfft_bins(x):
    """One-sided DFT bins along the last axis; no input validation."""
    n = x.shape[-1]
    if n <= _REAL_N:
        fwd, _ = _real_tables(n)
        return _table_product(np.asarray(x, dtype=np.float64), fwd).view(np.complex128)
    return _by_row_blocks(_rfft_long, np.asarray(x), n, n // 2 + 1, np.complex128)


def irfft_signal(bins, origin_len):
    """Real inverse of rfft_bins along the last axis; no validation.

    The imaginary parts of the DC bin and, for even lengths, of the
    Nyquist bin are ignored.
    """
    n = origin_len
    if n <= _REAL_N:
        _, inv = _real_tables(n)
        return _table_product(
            np.ascontiguousarray(bins, dtype=np.complex128).view(np.float64), inv)
    return _by_row_blocks(_irfft_long, np.asarray(bins), n, n, np.float64)


def rfft(signal) -> Spectrum:
    """Forward one-sided DFT of a real signal (no normalization)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"rfft takes one 1-D signal, got shape {x.shape}")
    if len(x) == 0:
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
