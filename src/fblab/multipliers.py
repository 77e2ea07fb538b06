"""Fourier multipliers: fractional powers, Riesz-type operators, dyadic bumps.

The fractional Laplacian power acts as |xi|^s on coefficients; the
Riesz-type operator of order 1-alpha acts as i*xi_1*|xi|^(-alpha).  Any
symbol that is singular (or vanishes) at xi = 0 annihilates the zero
mode, which is the right convention for mean-free data on the torus.

Symbols built here all satisfy m(-xi) = conj(m(xi)), so real fields map
to real fields.  Odd symbols (plain derivatives and Riesz factors) zero
the Nyquist row/column: that line has no Hermitian partner on the
lattice, and dropping it keeps discrete summation by parts exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Tuple

import numpy as np

from .fields import SpectralField
from .grid import Grid

ANNIHILATE = "annihilate"
IDENTITY = "identity"


# -- radial cutoffs ------------------------------------------------------


def upsilon(t):
    """Even radial cutoff: 1 on [-1, 1], 0 outside (-2, 2), monotone bridge.

    The bridge on (1, 2) is exp(1 - 1/(1 - (|t|-1)^2)).
    """
    t = np.abs(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    s = t[mid] - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[mid] = np.exp(1.0 - 1.0 / (1.0 - s * s))
    return out


def zeta(r):
    """Dyadic ring bump zeta(r) = upsilon(r) - upsilon(2r), supported in (1/2, 2)."""
    return upsilon(r) - upsilon(2.0 * np.asarray(r, dtype=np.float64))


def _exp_bridge(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return a / (a + b)


def smooth_upsilon(t):
    """C-infinity analog of :func:`upsilon` (used where kernel decay matters)."""
    return _exp_bridge(2.0 - np.abs(np.asarray(t, dtype=np.float64)))


def smooth_zeta(r):
    return smooth_upsilon(r) - smooth_upsilon(2.0 * np.asarray(r, dtype=np.float64))


# -- multiplier spec ------------------------------------------------------

_KINDS = ("lambda_pow", "riesz", "partial", "inv_lap_perp_grad", "smooth_bump",
          "composite", "sum")


@dataclass(frozen=True)
class Multiplier:
    """A radial or directional Fourier symbol with a zero-mode rule."""

    kind: str
    params: Tuple = ()
    zero_mode: str = ANNIHILATE
    parts: Tuple["Multiplier", ...] = dc_field(default=tuple())

    # -- factories --

    @staticmethod
    def lambda_pow(s: float) -> "Multiplier":
        """|xi|^s.  Identity at the zero mode only for s = 0."""
        rule = IDENTITY if s == 0 else ANNIHILATE
        return Multiplier("lambda_pow", (float(s),), rule)

    @staticmethod
    def riesz(alpha: float) -> "Multiplier":
        """i*xi_1*|xi|^(-alpha), a derivative of order 1 - alpha."""
        return Multiplier("riesz", (float(alpha),), ANNIHILATE)

    @staticmethod
    def partial(axis: int) -> "Multiplier":
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        return Multiplier("partial", (axis,), ANNIHILATE)

    @staticmethod
    def inv_lap_perp_grad(component: int) -> "Multiplier":
        """Component of grad-perp of the inverse Laplacian (stream-function velocity)."""
        if component not in (0, 1):
            raise ValueError("component must be 0 or 1")
        return Multiplier("inv_lap_perp_grad", (component,), ANNIHILATE)

    @staticmethod
    def smooth_bump(j: int) -> "Multiplier":
        """C-infinity ring symbol at scale 2^j (fast-decaying physical kernel)."""
        return Multiplier("smooth_bump", (int(j),), ANNIHILATE)

    @staticmethod
    def compose(*parts: "Multiplier") -> "Multiplier":
        rule = ANNIHILATE if any(p.zero_mode == ANNIHILATE for p in parts) else IDENTITY
        return Multiplier("composite", (), rule, tuple(parts))

    @staticmethod
    def sum(*parts: "Multiplier", weights: Tuple[float, ...] | None = None) -> "Multiplier":
        """Weighted sum of symbols, the weights (all 1 by default) held in
        ``params``.  Its zero mode is the sum of the parts' zero modes, so
        at most one part may be the identity there, with weight 1."""
        weights = (1.0,) * len(parts) if weights is None else tuple(float(w) for w in weights)
        if len(weights) != len(parts):
            raise ValueError("a weighted sum needs one weight per part")
        identity = [w for p, w in zip(parts, weights) if p.zero_mode == IDENTITY]
        if len(identity) > 1:
            raise ValueError("a sum with several identity zero modes has no zero-mode rule")
        if identity and identity[0] != 1.0:
            raise ValueError("an identity zero mode must carry weight 1 in a sum")
        return Multiplier("sum", weights, IDENTITY if identity else ANNIHILATE, tuple(parts))

    def with_zero_mode(self, rule: str) -> "Multiplier":
        return Multiplier(self.kind, self.params, rule, self.parts)

    # -- symbol construction --

    def singular_at_zero(self) -> bool:
        if self.kind == "lambda_pow":
            return self.params[0] < 0
        if self.kind == "riesz":
            return self.params[0] >= 1
        if self.kind == "inv_lap_perp_grad":
            return True
        if self.kind in ("composite", "sum"):
            return any(p.singular_at_zero() for p in self.parts)
        return False

    def symbol(self, grid: Grid) -> np.ndarray:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")
        if self.zero_mode == IDENTITY and self.singular_at_zero():
            raise ValueError(f"singular symbol {self.kind}{self.params} cannot use the identity zero-mode rule")

        if self.kind == "composite":
            sym = np.ones(grid.kmag.shape, dtype=np.complex128)
            for p in self.parts:
                sym = sym * p.with_zero_mode(ANNIHILATE).symbol(grid)
            sym[0, 0] = 1.0 if self.zero_mode == IDENTITY else 0.0
            return sym
        if self.kind == "sum":
            sym = np.zeros(grid.kmag.shape, dtype=np.complex128)
            for p, w in zip(self.parts, self.params):
                sym += w * p.with_zero_mode(ANNIHILATE).symbol(grid)
            sym[0, 0] = 1.0 if self.zero_mode == IDENTITY else 0.0
            return sym

        kmag = grid.kmag
        if self.kind == "lambda_pow":
            (s,) = self.params
            with np.errstate(divide="ignore"):
                sym = np.where(kmag > 0, kmag, 1.0) ** s
            sym = sym.astype(np.complex128)
        elif self.kind == "riesz":
            (alpha,) = self.params
            with np.errstate(divide="ignore"):
                radial = np.where(kmag > 0, kmag, 1.0) ** (-alpha)
            sym = 1j * grid.kx * radial
        elif self.kind == "partial":
            (axis,) = self.params
            sym = 1j * (grid.kx if axis == 0 else grid.ky)
        elif self.kind == "inv_lap_perp_grad":
            (comp,) = self.params
            with np.errstate(divide="ignore"):
                inv = np.where(kmag > 0, 1.0 / np.where(kmag > 0, grid.ksq, 1.0), 0.0)
            # grad-perp of Delta^{-1}: (i ky, -i kx) / |k|^2
            sym = (1j * grid.ky * inv) if comp == 0 else (-1j * grid.kx * inv)
        elif self.kind == "smooth_bump":
            (j,) = self.params
            sym = smooth_zeta(kmag * 2.0 ** (-j)).astype(np.complex128)

        sym = np.asarray(sym, dtype=np.complex128)
        sym[0, 0] = 1.0 if self.zero_mode == IDENTITY else sym[0, 0]
        if self.zero_mode == ANNIHILATE:
            sym[0, 0] = 0.0
        if self.kind in ("riesz", "partial", "inv_lap_perp_grad"):
            ny = sym.shape[0] // 2  # the Nyquist row k_1 = -n/2 and column k_2 = n/2
            sym[ny, :] = 0.0
            sym[:, ny] = 0.0
        return sym


def apply_multiplier(field: SpectralField, spec: Multiplier) -> SpectralField:
    """Coefficientwise product with the symbol."""
    sym = spec.symbol(field.grid)
    return SpectralField(field.grid, field.coef * sym)
