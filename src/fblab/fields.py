"""Real scalar fields with synchronized physical/spectral representations.

Every field is real: the unknowns of the Boussinesq system (theta, omega,
the hybrid variable f, the velocity) and every field fed to a commutator
estimate.  A :class:`SpectralField` stores normalized Fourier-series
coefficients c_k, defined so that f(x) = sum_k c_k exp(i k.x).  With
numpy's FFT this means ``coef = fft2(samples) / n**2`` and
``samples = n**2 * Re(ifft2(coef))``.  The coefficient array is marked
read-only, so all operations are pure functions and safe to run
concurrently.

The samples are Re(ifft2(c)), which is ifft2 of the Hermitian part
(c_k + conj c_-k) / 2 of the spectrum.  On a padded grid they come from
``irfft2``, and the half spectrum handed to it is that Hermitian part,
never a plain slice: a spectrum need not be Hermitian to the last bit,
and on the padded lattice the Nyquist line k_i = -n/2 gains a partner at
+n/2 that a slice would drop.  Samples on the field's own grid
(:meth:`SpectralField.physical`) keep the complex transform, so what is
read from them, such as the CFL guard of a state, does not move by a
bit.  The full n-by-n ``coef`` layout is kept for every field.

Every product of fields is dealiased: both spectra are zero-padded to a
grid 3/2 as fine (the 3/2 a.k.a. 2/3 rule), multiplied pointwise there
and transformed back with ``rfft2`` and truncated.  The Nyquist
row/column is zeroed on truncation: those modes cannot carry a Hermitian
partner on the coarse lattice.  A product operand keeps its padded
samples (one velocity component feeds several products), in a slot only
:func:`multiply` writes.  The padded samples that the norms request
through :meth:`SpectralField.physical_on` are not kept: they are taken
once per field at grids of several sizes, and holding them would only
raise the peak memory of a ledger run.  What a power pairing needs of
its field is kept instead: the (n+1)-by-(n/2+1) band of the power, per
power, in a second slot only :func:`power_band` writes.

numpy's FFT is stateless (no shared plans or workspaces), so concurrent
evaluation needs no synchronization: the cached samples are pure
functions of the read-only coefficients.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid

class SpectralField:
    """A real scalar field on a periodic grid."""

    __slots__ = ("grid", "coef", "_physical", "_padded", "_bands")

    def __init__(self, grid: Grid, coef: np.ndarray):
        if coef.shape != (grid.n, grid.n):
            raise ValueError(f"coefficient array shape {coef.shape} does not match grid n={grid.n}")
        coef = np.ascontiguousarray(coef, dtype=np.complex128)
        coef.setflags(write=False)
        self.grid = grid
        self.coef = coef
        self._physical = None
        self._padded = None
        self._bands = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values)
        if values.shape != (grid.n, grid.n):
            raise ValueError(f"sample array shape {values.shape} does not match grid n={grid.n}")
        if np.iscomplexobj(values):
            raise ValueError("fields are real; got complex samples")
        return cls(grid, np.fft.fft2(values) / grid.n**2)

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((grid.n, grid.n), dtype=np.complex128))

    # -- representations ----------------------------------------------

    def physical(self) -> np.ndarray:
        """Grid samples; cached after the first inverse transform."""
        if self._physical is None:
            out = (np.fft.ifft2(self.coef) * self.grid.n**2).real
            out.setflags(write=False)
            self._physical = out
        return self._physical

    def physical_on(self, m: int) -> np.ndarray:
        """Samples of the same trigonometric polynomial on a finer m-grid."""
        if m == self.grid.n:
            return self.physical()
        return np.fft.irfft2(hermitian_half(self.coef, m), s=(m, m)) * m**2

    def mean(self) -> complex:
        return complex(self.coef[0, 0])

    def is_mean_free(self, tol: float = 1e-12) -> bool:
        scale = max(1.0, float(np.linalg.norm(self.coef)))
        return abs(self.coef[0, 0]) <= tol * scale

    # -- algebra --------------------------------------------------------

    def _check_grid(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_grid(other)
        return SpectralField(self.grid, self.coef + other.coef)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_grid(other)
        return SpectralField(self.grid, self.coef - other.coef)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coef)

    def __mul__(self, scalar) -> "SpectralField":
        if isinstance(scalar, SpectralField):
            raise TypeError("use multiply() for field products, * is scalar-only")
        if np.iscomplexobj(scalar):
            raise TypeError("fields are real; * takes a real scalar")
        return SpectralField(self.grid, self.coef * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SpectralField(n={self.grid.n}, L={self.grid.length:.6g})"


# -- spectrum padding / truncation -------------------------------------
# pad_coef and truncate_coef are the complex path: the reference that the
# real transforms below (hermitian_half, truncate_half) are tested against.


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


def hermitian_band(coef: np.ndarray) -> np.ndarray:
    """The Hermitian part of the spectrum as an (n+1)-by-(n/2+1) band:
    rows are frequencies -n/2..n/2, columns 0..n/2.

    The Nyquist line k_i = -n/2 is split evenly with its partner at +n/2,
    which a padded lattice (m > n) has and the n-lattice lacks.
    """
    n = coef.shape[0]
    h = n // 2
    box = np.zeros((n + 1, n + 1), dtype=np.complex128)  # frequencies -h..h on both axes
    box[h:n, h:n] = coef[:h, :h]
    box[h:n, :h] = coef[:h, h:]
    box[:h, h:n] = coef[h:, :h]
    box[:h, :h] = coef[h:, h:]
    return 0.5 * (box[:, h:] + np.conj(box[::-1, h::-1]))


def hermitian_half(coef: np.ndarray, m: int) -> np.ndarray:
    """Columns 0..m/2 of the Hermitian part of the spectrum padded to m;
    ``irfft2`` of it equals Re(ifft2) of the padded spectrum."""
    n = coef.shape[0]
    if m <= n:
        raise ValueError("padding target must exceed the source size")
    h = n // 2
    herm = hermitian_band(coef)
    out = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    out[:h + 1, :h + 1] = herm[h:]
    out[m - h:, :h + 1] = herm[:h]
    return out


def power_band(field: SpectralField, power: int, m: int) -> np.ndarray:
    """The band of ``field**power`` laid out as :func:`hermitian_band`.

    The power is sampled on the m-grid and transformed back; with
    m > (power + 1) n / 2 no alias of the power reaches the band, and the
    band is exactly what an m-grid quadrature of a product with a field
    of the n-band sees.  The band is kept on the field, per power; the
    m-grid arrays are dropped on return.
    """
    if field._bands is None:
        field._bands = {}
    band = field._bands.get(power)
    if band is None:
        h = field.grid.n // 2
        values = field.physical_on(m)
        sampled = values
        for _ in range(power - 1):  # repeated products: ndarray ** k calls pow, ~30x slower
            sampled = sampled * values
        spec = np.fft.rfft2(sampled)
        band = np.concatenate((spec[m - h:, :h + 1], spec[:h + 1, :h + 1])) / m**2
        band.setflags(write=False)
        field._bands[power] = band
    return band


def truncate_half(half: np.ndarray, n: int) -> np.ndarray:
    """Full n-grid band of a real signal's half spectrum (columns 0..m/2),
    with the Nyquist line zeroed as in :func:`truncate_coef`."""
    m = half.shape[0]
    h = n // 2
    band = np.concatenate((half[:h, :h], half[m - h:, :h]))  # rows 0..h-1, -h..-1
    out = np.empty((n, n), dtype=np.complex128)
    out[:, :h] = band
    out[:, h + 1:] = np.conj(band[-np.arange(n) % n, h - 1:0:-1])
    out[h, :] = 0.0
    out[:, h] = 0.0
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


def pad_size(n: int) -> int:
    """Size of the product grid: 3/2 of n, rounded up to a fast FFT size."""
    return nice_fft_size(-(-n * 3 // 2))


def multiply(a: SpectralField, b: SpectralField) -> SpectralField:
    """Dealiased pointwise product of two fields.

    The product is evaluated on a zero-padded grid and truncated back, so
    every retained coefficient (|k_i| <= n/2 - 1) is the exact product
    coefficient: aliases of true product modes land outside the retained
    band on the padded grid.  Each operand's padded samples are kept on it
    for its next product.
    """
    a._check_grid(b)
    n = a.grid.n
    m = pad_size(n)
    prod = _padded_samples(a, m) * _padded_samples(b, m)
    return SpectralField(a.grid, truncate_half(np.fft.rfft2(prod) / m**2, n))


def _padded_samples(field: SpectralField, m: int) -> np.ndarray:
    if field._padded is None:
        field._padded = field.physical_on(m)
        field._padded.setflags(write=False)
    return field._padded


def dealias_projection(field: SpectralField) -> SpectralField:
    """Project onto the band kept by the padded-product rule (drops the
    modes a product on the padded grid cannot represent alias-free)."""
    n = field.grid.n
    keep = band_mask(n)
    return SpectralField(field.grid, np.where(keep, field.coef, 0.0))


def band_mask(n: int) -> np.ndarray:
    """Boolean mask of modes |m_i| <= n/3 (alias-safe under one product)."""
    cut = n // 3
    m = np.fft.fftfreq(n, d=1.0 / n)
    ax = np.abs(m) <= cut
    return np.logical_and.outer(ax, ax)
