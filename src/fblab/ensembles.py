"""Seeded generators for synthetic fields.

Random fields are drawn mode-by-mode over a canonical ordering of the
wavenumber annulus, so a fixed seed yields the same trigonometric
polynomial on every grid that can represent the band.  That is what
makes best-constant measurements comparable across resolutions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .fields import SpectralField, band_mask
from .grid import Grid
from .multipliers import Multiplier, apply_multiplier
from .norms import l2_norm_sq

Velocity = Tuple[SpectralField, SpectralField]


@lru_cache(maxsize=256)
def _annulus_modes_cached(dk: float, mmax: int, jlo: int, jhi: int):
    lo, hi = 2.0 ** jlo, 2.0 ** jhi
    m1g, m2g = np.meshgrid(np.arange(0, mmax + 1), np.arange(-mmax, mmax + 1), indexing="ij")
    half = (m1g > 0) | ((m1g == 0) & (m2g > 0))
    kk = dk * np.hypot(m1g, m2g)
    sel = half & (kk >= lo - 1e-12) & (kk <= hi + 1e-12)
    m1 = m1g[sel]
    m2 = m2g[sel]
    order = np.lexsort((m2, m1))
    out = np.stack([m1[order], m2[order]], axis=1)
    out.setflags(write=False)
    return out


def annulus_modes(grid: Grid, band: Tuple[int, int]) -> np.ndarray:
    """Integer modes with 2^jlo <= |k| <= 2^jhi on the half lattice
    (m1 > 0, or m1 == 0 and m2 > 0), in a fixed deterministic order."""
    modes = _annulus_modes_cached(grid.dk, grid.n // 2 - 1, int(band[0]), int(band[1]))
    if modes.shape[0] == 0:
        raise ValueError(f"band {band} selects no modes on this grid")
    return modes


def random_scalar_field(grid: Grid, seed, band: Tuple[int, int] = (0, 3),
                        decay: float = 0.0, amplitude: float = 1.0,
                        dealias_safe: bool = True) -> SpectralField:
    """Mean-free random real field with spectrum in the band and
    coefficient magnitudes ~ |k|^(-decay), L^2-normalized to ``amplitude``."""
    modes = annulus_modes(grid, band)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(2 * len(modes))
    kk = grid.dk * np.hypot(modes[:, 0], modes[:, 1])
    with np.errstate(over="ignore"):  # a steep rising slope overflows; refused below
        c = (draws[0::2] + 1j * draws[1::2]) * kk ** (-decay)
    # onto the rfft2 half lattice (m2 >= 0): a mode with m2 < 0 goes in
    # as its conjugate at -m, and one with m2 == 0 fills both m and -m
    coef = np.zeros(grid.kmag.shape, dtype=np.complex128)
    m1, m2 = modes[:, 0], modes[:, 1]
    upper, lower = m2 >= 0, m2 <= 0
    coef[m1[upper], m2[upper]] = c[upper]
    coef[-m1[lower] % grid.n, -m2[lower]] = np.conj(c[lower])
    if dealias_safe:
        coef[~band_mask(grid.n)] = 0.0
    f = SpectralField(grid, coef)
    norm = np.sqrt(l2_norm_sq(f))
    if not 0 < norm < np.inf:
        raise ValueError(f"degenerate draw: its L2 norm is {norm:g} (a band emptied by the "
                         "dealias restriction, or a spectral slope that overflows)")
    return f * (amplitude / norm)


def random_divfree_field(grid: Grid, seed, band: Tuple[int, int] = (0, 3),
                         decay: float = 0.0) -> Velocity:
    """Divergence-free velocity grad_perp(Lambda^{-1} psi) for a random
    dealias-safe psi, L^2-normalized to 1."""
    psi = random_scalar_field(grid, seed, band, decay)
    op1 = Multiplier.compose(Multiplier.inv_lap_perp_grad(0), Multiplier.lambda_pow(1.0))
    op2 = Multiplier.compose(Multiplier.inv_lap_perp_grad(1), Multiplier.lambda_pow(1.0))
    v = (apply_multiplier(psi, op1), apply_multiplier(psi, op2))
    norm = np.sqrt(l2_norm_sq(v[0]) + l2_norm_sq(v[1]))
    if norm == 0:
        raise ValueError("degenerate draw for divergence-free field")
    scale = 1.0 / norm
    return v[0] * scale, v[1] * scale


def gaussian_bump_field(grid: Grid, center: Tuple[float, float], width: float,
                        amplitude: float = 1.0) -> SpectralField:
    """Periodized Gaussian built directly in Fourier space, so its
    spectrum is exactly Gaussian and truncation tails are negligible;
    scaled to peak ``amplitude``, then its mean removed."""
    x0, y0 = center
    phase = np.exp(-1j * (grid.kx * x0 + grid.ky * y0))
    envelope = np.exp(-0.5 * width**2 * grid.ksq)
    coef = envelope * phase
    coef[~band_mask(grid.n)] = 0.0
    f = SpectralField(grid, coef)
    peak = float(np.max(np.abs(f.physical())))
    c = (f * (amplitude / peak)).coef.copy()
    c[0, 0] = 0.0
    return SpectralField(grid, c)


def gaussian_dipole_field(grid: Grid, center: Tuple[float, float], separation: float,
                          width: float, amplitude: float = 1.0) -> SpectralField:
    """Opposite-signed pair of mean-free bumps."""
    x0, y0 = center
    plus = gaussian_bump_field(grid, (x0, y0 + separation / 2), width, amplitude)
    return plus - gaussian_bump_field(grid, (x0, y0 - separation / 2), width, amplitude)
