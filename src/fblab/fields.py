"""Scalar fields with synchronized physical/spectral representations.

A :class:`SpectralField` stores normalized Fourier-series coefficients
c_k, defined so that f(x) = sum_k c_k exp(i k.x).  With numpy's FFT this
means ``coef = fft2(samples) / n**2`` and ``samples = n**2 * ifft2(coef)``.
Fields are immutable after construction (the coefficient array is marked
read-only), so all operations are pure functions and safe to run
concurrently.

Products of fields are computed alias-free by zero-padding both spectra
to a finer grid (the 3/2 a.k.a. 2/3 rule), multiplying pointwise there
and truncating back.  The Nyquist row/column is zeroed on truncation:
those modes cannot carry a Hermitian partner on the coarse lattice.

numpy's FFT is stateless (no shared plans or workspaces), so concurrent
evaluation needs no synchronization beyond the immutability above.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid

_PAD_NUMERATOR = 3
_PAD_DENOMINATOR = 2


class SpectralField:
    """A real (or complex) scalar field on a periodic grid."""

    __slots__ = ("grid", "coef", "real", "_physical")

    def __init__(self, grid: Grid, coef: np.ndarray, real: bool = True):
        if coef.shape != (grid.n, grid.n):
            raise ValueError(f"coefficient array shape {coef.shape} does not match grid n={grid.n}")
        coef = np.ascontiguousarray(coef, dtype=np.complex128)
        coef.setflags(write=False)
        self.grid = grid
        self.coef = coef
        self.real = bool(real)
        self._physical = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values)
        if values.shape != (grid.n, grid.n):
            raise ValueError(f"sample array shape {values.shape} does not match grid n={grid.n}")
        real = not np.iscomplexobj(values)
        coef = np.fft.fft2(values) / grid.n**2
        return cls(grid, coef, real=real)

    @classmethod
    def from_coef(cls, grid: Grid, coef: np.ndarray, real: bool = True) -> "SpectralField":
        return cls(grid, coef, real=real)

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((grid.n, grid.n), dtype=np.complex128))

    # -- representations ----------------------------------------------

    def physical(self) -> np.ndarray:
        """Grid samples; cached after the first inverse transform."""
        if self._physical is None:
            raw = np.fft.ifft2(self.coef) * self.grid.n**2
            out = raw.real if self.real else raw
            out.setflags(write=False)
            self._physical = out
        return self._physical

    def physical_on(self, m: int) -> np.ndarray:
        """Samples of the same trigonometric polynomial on a finer m-grid."""
        if m == self.grid.n:
            return self.physical()
        raw = np.fft.ifft2(pad_coef(self.coef, m)) * m**2
        return raw.real if self.real else raw

    def mean(self) -> complex:
        return complex(self.coef[0, 0])

    def is_mean_free(self, tol: float = 1e-12) -> bool:
        scale = max(1.0, float(np.linalg.norm(self.coef)))
        return abs(self.coef[0, 0]) <= tol * scale

    def hermitian_defect(self) -> float:
        """Max deviation from coef(-k) == conj(coef(k))."""
        mirrored = np.roll(self.coef[::-1, ::-1], 1, axis=(0, 1))
        return float(np.max(np.abs(self.coef - np.conj(mirrored))))

    # -- algebra --------------------------------------------------------

    def _check_grid(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_grid(other)
        return SpectralField(self.grid, self.coef + other.coef, real=self.real and other.real)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_grid(other)
        return SpectralField(self.grid, self.coef - other.coef, real=self.real and other.real)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coef, real=self.real)

    def __mul__(self, scalar) -> "SpectralField":
        if isinstance(scalar, SpectralField):
            raise TypeError("use multiply() for field products, * is scalar-only")
        return SpectralField(self.grid, self.coef * scalar, real=self.real and not np.iscomplexobj(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        kind = "real" if self.real else "complex"
        return f"SpectralField(n={self.grid.n}, L={self.grid.length:.6g}, {kind})"


# -- spectrum padding / truncation -------------------------------------


def pad_coef(coef: np.ndarray, m: int) -> np.ndarray:
    """Embed an n-grid spectrum into an m-grid spectrum (m >= n), zero-padded."""
    n = coef.shape[0]
    if m == n:
        return coef.copy()
    if m < n:
        raise ValueError("padding target must be at least the source size")
    out = np.zeros((m, m), dtype=np.complex128)
    h = n // 2
    out[:h, :h] = coef[:h, :h]
    out[:h, m - h:] = coef[:h, h:]
    out[m - h:, :h] = coef[h:, :h]
    out[m - h:, m - h:] = coef[h:, h:]
    return out


def truncate_coef(coef: np.ndarray, n: int) -> np.ndarray:
    """Restrict an m-grid spectrum to the n-grid band, zeroing the Nyquist line."""
    m = coef.shape[0]
    if m == n:
        out = coef.copy()
    else:
        if m < n:
            raise ValueError("truncation target must be at most the source size")
        h = n // 2
        out = np.empty((n, n), dtype=np.complex128)
        out[:h, :h] = coef[:h, :h]
        out[:h, h:] = coef[:h, m - h:]
        out[h:, :h] = coef[m - h:, :h]
        out[h:, h:] = coef[m - h:, m - h:]
    out[n // 2, :] = 0.0
    out[:, n // 2] = 0.0
    return out


def nice_fft_size(minimum: int) -> int:
    """Smallest even 5-smooth integer >= minimum (keeps padded FFTs fast)."""
    m = max(2, int(minimum))
    if m % 2:
        m += 1
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 2


def pad_size(n: int, factor_num: int = _PAD_NUMERATOR, factor_den: int = _PAD_DENOMINATOR) -> int:
    return nice_fft_size(-(-n * factor_num // factor_den))


def multiply(a: SpectralField, b: SpectralField, dealias: bool = True) -> SpectralField:
    """Pointwise product of two fields.

    With ``dealias=True`` (the default) the product is evaluated on a
    zero-padded grid and truncated back, so every retained coefficient
    (|k_i| <= n/2 - 1) is the exact product coefficient: aliases of true
    product modes land outside the retained band on the padded grid.
    Without it the raw grid product is used.
    """
    a._check_grid(b)
    n = a.grid.n
    if not dealias:
        return SpectralField.from_physical(a.grid, a.physical() * b.physical())
    m = pad_size(n)
    prod = a.physical_on(m) * b.physical_on(m)
    coef = truncate_coef(np.fft.fft2(prod) / m**2, n)
    return SpectralField(a.grid, coef, real=a.real and b.real)


def dealias_projection(field: SpectralField) -> SpectralField:
    """Project onto the band kept by the padded-product rule (drops the
    modes a product on the padded grid cannot represent alias-free)."""
    n = field.grid.n
    keep = band_mask(n)
    return SpectralField(field.grid, np.where(keep, field.coef, 0.0), real=field.real)


def band_mask(n: int) -> np.ndarray:
    """Boolean mask of modes |m_i| <= n/3 (alias-safe under one product)."""
    cut = n // 3
    m = np.fft.fftfreq(n, d=1.0 / n)
    ax = np.abs(m) <= cut
    return np.logical_and.outer(ax, ax)
