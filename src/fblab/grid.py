"""Periodic grid and wavenumber bookkeeping.

Everything in the package lives on the square torus [0, L)^2 sampled at
n uniform points per axis.  Wavenumbers k_i = (2*pi/L) * m_i live on the
half lattice of ``rfft2``, the layout every field's coefficients use:
n-by-(n/2+1) arrays with m_1 = 0, 1, ..., n/2-1, -n/2, ..., -1 along the
rows and m_2 = 0, 1, ..., n/2 along the columns.  The zero mode sits at
index (0, 0) and occurs exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n discretization of the periodic box [0, length)^2."""

    n: int
    length: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 8:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n!r}")
        if not 0 < self.length < np.inf:
            raise ValueError(f"box period must be positive and finite, got {self.length!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "length", float(self.length))

        dk = 2.0 * np.pi / self.length
        rows = np.fft.fftfreq(self.n, d=1.0 / self.n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
        cols = np.fft.rfftfreq(self.n, d=1.0 / self.n)  # 0, 1, ..., n/2
        kx, ky = np.meshgrid(dk * rows, dk * cols, indexing="ij")
        ksq = kx**2 + ky**2
        kmag = np.sqrt(ksq)
        x = np.arange(self.n) * (self.length / self.n)
        for name, arr in (("kx", kx), ("ky", ky), ("ksq", ksq), ("kmag", kmag), ("x1d", x)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dk(self) -> float:
        """Wavenumber spacing 2*pi/length."""
        return 2.0 * np.pi / self.length

    @property
    def kmax(self) -> float:
        """Largest wavenumber magnitude on the lattice (corner mode)."""
        return self.dk * (self.n // 2) * np.sqrt(2.0)

    def meshgrid(self):
        """Physical coordinates X1, X2 with 'ij' indexing."""
        return np.meshgrid(self.x1d, self.x1d, indexing="ij")

def make_grid(n: int, length: float) -> Grid:
    """Build a periodic grid; rejects non-power-of-two n and a length <= 0 or infinite."""
    return Grid(n, length)
