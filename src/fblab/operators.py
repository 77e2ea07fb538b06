"""Differential and integral operators built from multipliers.

Velocity recovery follows the stream-function convention
u = grad_perp(Delta^{-1} omega) = (-d2 psi, d1 psi) with Delta psi = omega,
so the output is divergence-free exactly in its coefficients.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .fields import SpectralField, multiply
from .multipliers import Multiplier, SymbolTable, apply_multiplier, symbol_of

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


def gradient(f: SpectralField, symbols: Optional[SymbolTable] = None) -> Velocity:
    return apply_multiplier(f, _D1, symbols), apply_multiplier(f, _D2, symbols)


def divergence(v: Velocity) -> SpectralField:
    return apply_multiplier(v[0], _D1) + apply_multiplier(v[1], _D2)


def curl(v: Velocity) -> SpectralField:
    """Scalar curl d1(v2) - d2(v1)."""
    return apply_multiplier(v[1], _D1) - apply_multiplier(v[0], _D2)


def advect(v: Velocity, f: SpectralField, symbols: Optional[SymbolTable] = None) -> SpectralField:
    """v . grad(f) with alias-free products."""
    return multiply(v, gradient(f, symbols))


def biot_savart(omega: SpectralField, symbols: Optional[SymbolTable] = None) -> Velocity:
    """Velocity from scalar vorticity; rejects vorticity with a mean.

    The output is divergence-free coefficientwise and curl(u) returns
    omega up to its Nyquist line, which the odd symbols drop (no
    Hermitian partner exists for it on the lattice).
    """
    require_mean_free(omega, "vorticity")
    return apply_multiplier(omega, _BS1, symbols), apply_multiplier(omega, _BS2, symbols)


def temperature_vorticity_operator(alpha: float) -> Multiplier:
    """Multiplier mapping the temperature to its vorticity contribution,
    i.e. the symbol of R_alpha (I + Lambda^(beta-alpha)) with beta = 1 - alpha."""
    beta = 1.0 - alpha
    riesz = Multiplier.riesz(alpha)
    return Multiplier.sum(riesz, Multiplier.compose(riesz, Multiplier.lambda_pow(beta - alpha)))


def check_alpha(alpha: float):
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (1/2, 1), got {alpha}")


def commutator_apply(op: Multiplier, v: Velocity, phi: SpectralField,
                     transported: Optional[SpectralField] = None,
                     carry: Optional[SpectralField] = None,
                     symbols: Optional[SymbolTable] = None) -> SpectralField:
    """[op, v.grad] phi = op(v.grad phi) - v.grad(op phi), products dealiased.

    The commutator is linear in op, so a weighted sum of operators
    (``Multiplier.sum(..., weights=...)``) gives the same weighted sum of
    commutators in one call: two advections instead of two per part.
    ``transported`` is ``advect(v, phi)`` if the caller has already
    computed it (the temperature equation transports theta with the same
    velocity); the result is then the same to the last bit, one advection
    cheaper.  Transport is linear in the transported field too, so
    ``carry`` rides along in the second advection: the result is then
    [op, v.grad] phi - v.grad(carry), one advection fewer than the two
    terms apart.  Symbols come from ``symbols`` if given.
    """
    sym = symbol_of(op, phi.grid, symbols)
    applied = SpectralField(phi.grid, phi.coef * sym)
    if carry is not None:
        applied = applied + carry
    if transported is None:
        transported = advect(v, phi, symbols)
    first = SpectralField(phi.grid, transported.coef * sym)
    return first - advect(v, applied, symbols)
