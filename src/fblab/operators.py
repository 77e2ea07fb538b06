"""Differential and integral operators built from multipliers.

Velocity recovery follows the stream-function convention
u = grad_perp(Delta^{-1} omega) = (-d2 psi, d1 psi) with Delta psi = omega,
so the output is divergence-free exactly in its coefficients.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .fields import SpectralField, multiply
from .multipliers import Multiplier, SymbolTable, apply_multiplier, symbol_of

Velocity = Tuple[SpectralField, SpectralField]
# ``advect`` and ``commutator_apply`` take either form: one Velocity gives
# one SpectralField back, a tuple of Velocities one SpectralField per
# velocity, in order.  The form is told by whether v[0] is a field.
Velocities = Union[Velocity, Tuple[Velocity, ...]]

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


def _is_velocity(v) -> bool:
    return isinstance(v[0], SpectralField)


def advect(v: Velocities, f: SpectralField, symbols: Optional[SymbolTable] = None):
    """v . grad(f) with alias-free products.

    ``v`` is one velocity or a tuple of velocities; given a tuple, grad f
    is built once and one term is returned per velocity, each the same to
    the last bit as its own call.
    """
    grad = gradient(f, symbols)
    if _is_velocity(v):
        return multiply(v, grad)
    return tuple(multiply(u, grad) for u in v)


def biot_savart(omega: SpectralField, symbols: Optional[SymbolTable] = None) -> Velocity:
    """Velocity from scalar vorticity; rejects vorticity with a mean.

    The output is divergence-free coefficientwise and curl(u) returns
    omega up to its Nyquist line, which the odd symbols drop (no
    Hermitian partner exists for it on the lattice).
    """
    require_mean_free(omega, "vorticity")
    return apply_multiplier(omega, _BS1, symbols), apply_multiplier(omega, _BS2, symbols)


def commutator_apply(op: Multiplier, v: Velocities, phi: SpectralField,
                     transported=None, carry: Optional[SpectralField] = None,
                     symbols: Optional[SymbolTable] = None):
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
    terms apart.  ``v`` may be a tuple of velocities, ``transported``
    then the tuple of their ``advect`` terms: op phi + carry and its
    gradient are built once, and one commutator is returned per
    velocity, each the same to the last bit as its own call.  Symbols
    come from ``symbols`` if given.
    """
    sym = symbol_of(op, phi.grid, symbols)
    applied = SpectralField(phi.grid, phi.coef * sym)
    if carry is not None:
        applied = applied + carry
    if transported is None:
        transported = advect(v, phi, symbols)
    if _is_velocity(v):
        return SpectralField(phi.grid, transported.coef * sym) - advect(v, applied, symbols)
    if len(transported) != len(v):
        raise ValueError(f"{len(transported)} transported terms for {len(v)} velocities")
    return tuple(SpectralField(phi.grid, t.coef * sym) - w
                 for t, w in zip(transported, advect(v, applied, symbols)))
