"""Real scalar fields with synchronized physical/spectral representations.

Every field is real: the unknowns of the Boussinesq system (theta, omega,
the hybrid variable f, the velocity) and every field fed to a commutator
estimate.  A :class:`SpectralField` stores normalized Fourier-series
coefficients c_k, defined so that f(x) = sum_k c_k exp(i k.x), in the
``rfft2`` half layout: an n-by-(n/2+1) array whose rows are
k_1 = 0..n/2-1, -n/2..-1 and whose columns are k_2 = 0..n/2.  So
``coef = rfft2(samples) / n**2`` and ``samples = n**2 * irfft2(coef)``;
every transform here folds that scale into the FFT (``norm="forward"``)
rather than making a separate pass over the array.
The modes with k_2 < 0 are the conjugates of the stored ones, so a field
is Hermitian by construction.  The coefficient array is marked
read-only, so all operations are pure functions and safe to run
concurrently.

Sums over the whole lattice (Parseval) count columns 0 and n/2 once and
every other column twice, once for the stored mode and once for its
conjugate: :func:`parseval`.

Every product of fields is dealiased: both spectra are zero-padded to a
grid 3/2 as fine (the 3/2 a.k.a. 2/3 rule), multiplied pointwise there
and transformed back and truncated.  A padded transform makes the two
1-D passes of ``irfft2``/``rfft2`` itself, its column pass (along k_1)
over the columns k_2 = 0..n/2 only: the other columns of the m-grid
half spectrum are zero going in and dropped coming out.  Every 1-D
transform that runs is the one the 2-D call makes, on the same
numbers, so samples and spectra are bit-identical to the 2-D call's
(``tests/oracles.py`` keeps that path).  The column pass runs in place
(``out=`` of ``numpy.fft``, new in numpy 2.0, the declared floor).
A sum of products is one call: :func:`multiply` also takes two tuples
of fields and accumulates their products on the padded grid, so the
advection u_1 d_1 f + u_2 d_2 f costs one forward transform.  On the padded
lattice the Nyquist lines of the n-lattice gain partners: the row
k_1 = -n/2 is split evenly between -n/2 and +n/2, and the column
k_2 = n/2 is halved, its other half being the implied conjugate at
-n/2; a plain copy would sample another trigonometric polynomial.  The
Nyquist row/column is zeroed on truncation.  A product operand keeps its
padded samples (one velocity component feeds several products), in a
slot only :func:`multiply` writes.  The padded samples that the norms
request through :meth:`SpectralField.physical_on` are not kept: they are
taken once per field at grids of several sizes, and holding them would
only raise the peak memory of a ledger run.  What a power pairing needs
of its field is kept instead: the n-lattice band of the power, per
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
        if coef.shape != (grid.n, grid.n // 2 + 1):
            raise ValueError(f"coefficient array shape {coef.shape} is not the half layout "
                             f"{(grid.n, grid.n // 2 + 1)} of grid n={grid.n}")
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
        return cls(grid, np.fft.rfft2(values, norm="forward"))

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128))

    # -- representations ----------------------------------------------

    def physical(self) -> np.ndarray:
        """Grid samples; cached after the first inverse transform."""
        if self._physical is None:
            n = self.grid.n
            out = np.fft.irfft2(self.coef, s=(n, n), norm="forward")
            out.setflags(write=False)
            self._physical = out
        return self._physical

    def physical_on(self, m: int) -> np.ndarray:
        """Samples of the same trigonometric polynomial on a finer m-grid."""
        if m == self.grid.n:
            return self.physical()
        band = _pad(self.coef, m)
        np.fft.ifft(band, axis=0, norm="forward", out=band)
        return np.fft.irfft(band, n=m, axis=1, norm="forward")

    def mean(self) -> complex:
        return complex(self.coef[0, 0])

    def is_mean_free(self, tol: float = 1e-12) -> bool:
        scale = max(1.0, np.sqrt(parseval(self.coef, self.coef)))
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
        if isinstance(scalar, (int, float)) and scalar == 1:
            return self  # fields are immutable, and 1 * c is c to the last bit
        return SpectralField(self.grid, self.coef * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SpectralField(n={self.grid.n}, L={self.grid.length:.6g})"


def parseval(a: np.ndarray, b: np.ndarray) -> float:
    """Real part of sum_k a_k conj(b_k) over the whole lattice, from two
    half spectra: columns 0 and n/2 count once, the others twice."""
    val = 2.0 * np.vdot(b, a) - np.vdot(b[:, 0], a[:, 0]) - np.vdot(b[:, -1], a[:, -1])
    return float(val.real)


# -- spectrum padding / truncation -------------------------------------


def _pad(coef: np.ndarray, m: int) -> np.ndarray:
    """Columns k_2 = 0..n/2 of the m-lattice half spectrum (m > n) of the
    n-lattice one, zero-padded: an m-by-(n/2+1) block; the columns past
    n/2 are zero, and ``irfft`` pads them itself.

    The n-lattice row k_1 = -n/2 stands for both -n/2 and +n/2 on the
    m-lattice and is split evenly between them; the column k_2 = n/2 is
    halved, the implied conjugate at -n/2 carrying the other half; the
    corner goes to (+n/2, +n/2), its conjugate to (-n/2, -n/2).
    """
    n = coef.shape[0]
    if m <= n:
        raise ValueError("padding target must exceed the source size")
    h = n // 2
    out = np.zeros((m, h + 1), dtype=np.complex128)
    out[:h] = coef[:h]
    out[m - h + 1:] = coef[h + 1:]
    out[:, h] *= 0.5
    out[h] = 0.5 * coef[h]
    out[m - h, :h] = 0.5 * coef[h, :h]
    return out


def _spectrum_columns(values: np.ndarray, cols: int) -> np.ndarray:
    """Columns k_2 = 0..cols-1 of ``rfft2(values, norm="forward")``: the
    row pass over all of ``values``, the column pass in place over the
    kept columns only."""
    spec = np.fft.rfft(values, axis=1, norm="forward")[:, :cols]
    np.fft.fft(spec, axis=0, norm="forward", out=spec)
    return spec


def _truncate(spec: np.ndarray, n: int) -> np.ndarray:
    """The n-lattice band |k_i| < n/2 of an m-lattice half spectrum (its
    columns 0..n/2-1 suffice); the Nyquist row and column stay zero."""
    m = spec.shape[0]
    h = n // 2
    out = np.zeros((n, h + 1), dtype=np.complex128)
    out[:h, :h] = spec[:h, :h]
    out[h + 1:, :h] = spec[m - h + 1:, :h]
    return out


def power_band(field: SpectralField, power: int) -> np.ndarray:
    """The n-lattice band of ``field**power``, folded so that
    ``parseval(a.coef, band)`` is the m-grid quadrature of
    ``a * field**power`` for every field a on the n-grid.

    The power is sampled on an m-grid with m > (power + 1) n / 2, where
    no alias of the power reaches the band, and transformed back; only
    the columns k_2 = 0..n/2 that the fold reads get the column pass.
    The fold is the adjoint of the padding: the row k_1 = -n/2 averages
    the power's modes at -n/2 and +n/2, the column k_2 = n/2 and the
    corner take the modes the padding puts them on.  The band is kept on
    the field, per power; the m-grid arrays are dropped on return.
    """
    if field._bands is None:
        field._bands = {}
    band = field._bands.get(power)
    if band is None:
        h = field.grid.n // 2
        m = nice_fft_size((power + 1) * h + 2)
        values = field.physical_on(m)
        sampled = values if power == 1 else values * values
        for _ in range(power - 2):  # repeated products: ndarray ** k calls pow, ~30x slower
            sampled *= values
        del values  # at most two m-grid arrays live at once
        spec = _spectrum_columns(sampled, h + 1)
        band = np.concatenate((spec[:h + 1, :h + 1], spec[m - h + 1:, :h + 1]))
        band[h, :h] = 0.5 * (band[h, :h] + spec[m - h, :h])
        band.setflags(write=False)
        field._bands[power] = band
    return band


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


def multiply(a, b) -> SpectralField:
    """Dealiased pointwise product of two fields, or the dealiased sum
    a_0 b_0 + a_1 b_1 + ... of two equal-length tuples of fields.

    The product is evaluated on a zero-padded grid and truncated back, so
    every retained coefficient (|k_i| <= n/2 - 1) is the exact product
    coefficient: aliases of true product modes land outside the retained
    band on the padded grid.  A sum of products is accumulated on the
    padded grid and takes one forward transform, not one per term, whose
    column pass covers only the n/2 columns the truncation keeps.  Each
    operand's padded samples are kept on it for its next product.
    """
    if isinstance(a, SpectralField) and isinstance(b, SpectralField):
        a, b = (a,), (b,)
    if isinstance(a, SpectralField) or isinstance(b, SpectralField) or len(a) != len(b) or not a:
        raise ValueError("multiply takes two fields or two equal-length, nonempty tuples of fields")
    for x in (*a, *b):
        a[0]._check_grid(x)
    n = a[0].grid.n
    m = pad_size(n)
    acc = _padded_samples(a[0], m) * _padded_samples(b[0], m)
    for x, y in zip(a[1:], b[1:]):
        acc += _padded_samples(x, m) * _padded_samples(y, m)
    return SpectralField(a[0].grid, _truncate(_spectrum_columns(acc, n // 2), n))


def _padded_samples(field: SpectralField, m: int) -> np.ndarray:
    if field._padded is None:
        field._padded = field.physical_on(m)
        field._padded.setflags(write=False)
    return field._padded


def band_mask(n: int) -> np.ndarray:
    """Boolean half-layout mask of modes |m_i| <= n/3 (alias-safe under one product)."""
    cut = n // 3
    rows = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= cut
    cols = np.fft.rfftfreq(n, d=1.0 / n) <= cut
    return np.logical_and.outer(rows, cols)
