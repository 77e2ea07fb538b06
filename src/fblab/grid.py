"""Periodic grid and wavenumber bookkeeping.

Everything in the package lives on the square torus [0, L)^2 sampled at
n uniform points per axis.  Wavenumbers follow the standard FFT layout,
k_i = (2*pi/L) * m_i with integer m_i in [-n/2, n/2); the zero mode sits
at index (0, 0) and occurs exactly once.
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
        if not self.length > 0:
            raise ValueError(f"box period must be positive, got {self.length!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "length", float(self.length))

        dk = 2.0 * np.pi / self.length
        modes = np.fft.fftfreq(self.n, d=1.0 / self.n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
        kx, ky = np.meshgrid(dk * modes, dk * modes, indexing="ij")
        ksq = kx**2 + ky**2
        kmag = np.sqrt(ksq)
        x = np.arange(self.n) * (self.length / self.n)
        for name, arr in (("mode_ints", modes.astype(np.int64)), ("kx", kx), ("ky", ky),
                          ("ksq", ksq), ("kmag", kmag), ("x1d", x)):
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

    @property
    def nyquist_index(self) -> int:
        return self.n // 2

    def meshgrid(self):
        """Physical coordinates X1, X2 with 'ij' indexing."""
        return np.meshgrid(self.x1d, self.x1d, indexing="ij")

def make_grid(n: int, length: float) -> Grid:
    """Build a periodic grid; rejects non-power-of-two n and length <= 0."""
    return Grid(n, length)
