"""Norms, inner products and quadrature helpers.

L^p norms use the uniform-grid rectangle rule (spectrally accurate for
smooth periodic integrands); p = infinity returns the max over samples,
a lower bound of the continuum sup.  For integrands that are products
of band-limited fields, :func:`integral_product` is exact: it pairs the
spectrum of one factor with the band of the power of the other
(Parseval), the power taken on a padded grid fine enough that no alias
reaches that band.
"""

from __future__ import annotations

import numpy as np

from .fields import SpectralField, parseval, power_band
from .multipliers import Multiplier, apply_multiplier
from .operators import require_mean_free


def lp_norm(field: SpectralField, p: float, pad: int | None = None) -> float:
    """L^p norm over the box; ``pad`` samples on a finer grid first."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    values = field.physical_on(pad) if pad else field.physical()
    return samples_lp(values, p, field.grid.length ** 2)


_TINY = np.finfo(np.float64).tiny  # the smallest normal float


def samples_lp(values: np.ndarray, p: float, area: float) -> float:
    """L^p norm over a box of ``area`` of the uniform grid samples ``values``:
    (mean(|values|^p) area)^(1/p), or m (mean((|values|/m)^p) area)^(1/p)
    where m^p (m = max |values|) is not a normal finite float."""
    mag = np.abs(values)
    top = mag.max()
    if p == np.inf:
        return float(top)
    with np.errstate(over="ignore", under="ignore"):
        scaled = 0 < top < np.inf and not _TINY <= top ** p < np.inf
    if scaled:
        return float(top * (np.mean((mag / top) ** p) * area) ** (1.0 / p))
    return float((np.mean(mag ** p) * area) ** (1.0 / p))


def sobolev_norm(field: SpectralField, s: float, p: float, homogeneous: bool = False) -> float:
    """W^{s,p} norm ||Lambda^s f||_p + ||f||_p, or just the seminorm."""
    if s < 0:
        if not homogeneous:
            raise ValueError("the W^{s,p} form requires s >= 0; use homogeneous=True")
        require_mean_free(field, "field with negative-order norm")
    hi = lp_norm(apply_multiplier(field, Multiplier.lambda_pow(s)), p)
    if homogeneous:
        return hi
    return hi + lp_norm(field, p)


def inner(a: SpectralField, b: SpectralField) -> float:
    """L^2 pairing integral(a*b); exact for band-limited fields (Parseval)."""
    a._check_grid(b)
    return parseval(a.coef, b.coef) * a.grid.length ** 2


def l2_norm_sq(field: SpectralField) -> float:
    return parseval(field.coef, field.coef) * field.grid.length ** 2


def integral_product(a: SpectralField, b: SpectralField, b_power: int = 1) -> float:
    """integral(a * b**b_power), exact for band-limited a, b.

    Evaluated by Parseval: the spectrum of a is paired with the band of
    b**b_power, which :func:`fblab.fields.power_band` computes once on an
    m-grid with m > (b_power + 1) n / 2 and keeps on b.  On that grid the
    quadrature mean(a * b**b_power) sees no alias at the zero mode, and
    it equals this pairing; repeated pairings against the same b cost no
    transform.
    """
    if b_power < 1 or int(b_power) != b_power:
        raise ValueError("b_power must be a positive integer")
    a._check_grid(b)
    return parseval(a.coef, power_band(b, int(b_power))) * a.grid.length ** 2
