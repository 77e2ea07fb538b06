"""Norms, inner products and quadrature helpers.

L^p norms use the uniform-grid rectangle rule (spectrally accurate for
smooth periodic integrands); p = infinity returns the max over samples,
a lower bound of the continuum sup.  For integrands that are products
of band-limited fields, :func:`integral_product` evaluates on a padded
grid chosen so the quadrature is exact.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import SpectralField, nice_fft_size
from .multipliers import Multiplier, apply_multiplier
from .operators import require_mean_free


def lp_norm(field: SpectralField, p: float, pad: int | None = None) -> float:
    """L^p norm over the box; ``pad`` samples on a finer grid first."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    values = field.physical_on(pad) if pad else field.physical()
    if not field.real:
        values = np.abs(values)
    if p == np.inf:
        return float(np.max(np.abs(values)))
    area = field.grid.length ** 2
    return float((np.mean(np.abs(values) ** p) * area) ** (1.0 / p))


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
    val = np.vdot(b.coef, a.coef) * a.grid.length ** 2
    return float(val.real) if (a.real and b.real) else complex(val)


def l2_norm_sq(field: SpectralField) -> float:
    return float(np.sum(np.abs(field.coef) ** 2) * field.grid.length ** 2)


def integral_product(a: SpectralField, b: SpectralField, b_power: int = 1) -> float:
    """integral(a * b**b_power) with a padded grid sized so no alias
    reaches the zero mode (exact for band-limited a, b)."""
    if b_power < 0 or int(b_power) != b_power:
        raise ValueError("b_power must be a nonnegative integer")
    n = a.grid.n
    m = nice_fft_size(int((b_power + 1) * n / 2) + 2)
    av = a.physical_on(m)
    bv = b.physical_on(m)
    return float(np.mean(av * bv ** b_power) * a.grid.length ** 2)


def grid_argmax(values: np.ndarray):
    idx = int(np.argmax(values))
    return np.unravel_index(idx, values.shape)


def refined_sup(field: SpectralField, pad_factor: int = 4, newton_steps: int = 6) -> float:
    """Sup of |f| for the band-limited field: padded grid max followed by
    Newton refinement on the trigonometric polynomial.

    The plain grid max underestimates the continuum sup by O(n^-2); the
    refinement removes that sampling error, which matters when checking
    monotone decay to tight tolerances.
    """
    grid = field.grid
    m = pad_factor * grid.n
    vals = field.physical_on(m)
    best = float(np.max(np.abs(vals)))
    i, j = grid_argmax(np.abs(vals))
    sign = 1.0 if vals[i, j] >= 0 else -1.0
    x = np.array([i * grid.length / m, j * grid.length / m])

    mask = np.abs(field.coef) > 1e-18 * max(1e-300, float(np.max(np.abs(field.coef))))
    if not np.any(mask):
        return best
    kx = grid.kx[mask]
    ky = grid.ky[mask]
    ck = field.coef[mask]

    def eval_all(pt):
        phase = np.exp(1j * (kx * pt[0] + ky * pt[1]))
        f = np.real(np.sum(ck * phase))
        g = np.array([np.real(np.sum(1j * kx * ck * phase)),
                      np.real(np.sum(1j * ky * ck * phase))])
        h = np.array([[np.real(np.sum(-kx * kx * ck * phase)),
                       np.real(np.sum(-kx * ky * ck * phase))],
                      [np.real(np.sum(-kx * ky * ck * phase)),
                       np.real(np.sum(-ky * ky * ck * phase))]])
        return f, g, h

    for _ in range(newton_steps):
        f, g, h = eval_all(x)
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > grid.length / m:
            break
        x = x - step
    f, _, _ = eval_all(x)
    return max(best, abs(sign * f))


def rel_l2_diff(a: SpectralField, b: SpectralField) -> float:
    num = math.sqrt(l2_norm_sq(a - b))
    den = max(math.sqrt(l2_norm_sq(a)), math.sqrt(l2_norm_sq(b)), 1e-300)
    return num / den
