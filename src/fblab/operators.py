"""Differential and integral operators built from multipliers.

Velocity recovery follows the stream-function convention
u = grad_perp(Delta^{-1} omega) = (-d2 psi, d1 psi) with Delta psi = omega,
so the output is divergence-free exactly in its coefficients.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .fields import SpectralField, multiply
from .multipliers import Multiplier, apply_multiplier

Velocity = Tuple[SpectralField, SpectralField]

_D1 = Multiplier.partial(0)
_D2 = Multiplier.partial(1)
_BS1 = Multiplier.inv_lap_perp_grad(0)
_BS2 = Multiplier.inv_lap_perp_grad(1)


class MeanFreeError(ValueError):
    pass


def require_mean_free(field: SpectralField, what: str = "field", tol: float = 1e-12):
    if not field.is_mean_free(tol):
        raise MeanFreeError(f"{what} must be mean-free (zero mode {field.mean():.3e})")


def gradient(f: SpectralField) -> Velocity:
    return apply_multiplier(f, _D1), apply_multiplier(f, _D2)


def divergence(v: Velocity) -> SpectralField:
    return apply_multiplier(v[0], _D1) + apply_multiplier(v[1], _D2)


def curl(v: Velocity) -> SpectralField:
    """Scalar curl d1(v2) - d2(v1)."""
    return apply_multiplier(v[1], _D1) - apply_multiplier(v[0], _D2)


def advect(v: Velocity, f: SpectralField, dealias: bool = True) -> SpectralField:
    """v . grad(f) with alias-free products."""
    fx, fy = gradient(f)
    return multiply(v[0], fx, dealias) + multiply(v[1], fy, dealias)


def biot_savart(omega: SpectralField) -> Velocity:
    """Velocity from scalar vorticity; rejects vorticity with a mean.

    The output is divergence-free coefficientwise and curl(u) returns
    omega up to its Nyquist line, which the odd symbols drop (no
    Hermitian partner exists for it on the lattice).
    """
    require_mean_free(omega, "vorticity")
    return apply_multiplier(omega, _BS1), apply_multiplier(omega, _BS2)


def temperature_vorticity_operator(alpha: float) -> Multiplier:
    """Multiplier mapping the temperature to its vorticity contribution,
    i.e. the symbol of R_alpha (I + Lambda^(beta-alpha)) with beta = 1 - alpha."""
    beta = 1.0 - alpha
    riesz = Multiplier.riesz(alpha)
    return Multiplier.sum(riesz, Multiplier.compose(riesz, Multiplier.lambda_pow(beta - alpha)))


def check_alpha(alpha: float):
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (1/2, 1), got {alpha}")


def commutator_apply(op: Multiplier, v: Velocity, phi: SpectralField, dealias: bool = True) -> SpectralField:
    """[op, v.grad] phi = op(v.grad phi) - v.grad(op phi), products dealiased."""
    applied = apply_multiplier(phi, op)
    first = apply_multiplier(advect(v, phi, dealias), op)
    return first - advect(v, applied, dealias)


def leray_project(v: Velocity) -> Velocity:
    """Remove the gradient part: P = I - grad Delta^{-1} div."""
    div = divergence(v)
    grid = v[0].grid
    with np.errstate(divide="ignore"):
        inv = np.where(grid.kmag > 0, 1.0 / np.where(grid.kmag > 0, grid.ksq, 1.0), 0.0)
    phi_coef = -div.coef * inv  # Delta phi = div v
    phi = SpectralField(grid, phi_coef, real=div.real)
    gx, gy = gradient(phi)
    return v[0] - gx, v[1] - gy
