"""Fourier multipliers: fractional powers, Riesz-type operators, dyadic bumps.

The fractional Laplacian power acts as |xi|^s on coefficients; the
Riesz-type operator of order 1-alpha acts as i*xi_1*|xi|^(-alpha); the
Littlewood-Paley ring Delta_j and low-pass f_{<j} act as zeta(2^-j |xi|)
and upsilon(2^(1-j) |xi|).  The value at xi = 0 follows from the symbol:
Lambda^0 and a low-pass keep the mean and every other atom drops it, the
convention for mean-free data on the torus; composites and sums combine
their parts' values.

Symbols built here all satisfy m(-xi) = conj(m(xi)), so real fields map
to real fields.  Odd symbols (plain derivatives and Riesz factors) zero
the Nyquist row/column: that line has no Hermitian partner on the
lattice, and dropping it keeps discrete summation by parts exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Tuple

import numpy as np

from .fields import SpectralField
from .grid import Grid

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


@dataclass(frozen=True)
class Multiplier:
    """A radial or directional Fourier symbol; its value at xi = 0 is
    :meth:`at_zero`, fixed by what the symbol is."""

    kind: str
    params: Tuple = ()
    parts: Tuple["Multiplier", ...] = dc_field(default=tuple())

    # -- factories --

    @staticmethod
    def lambda_pow(s: float) -> "Multiplier":
        """|xi|^s.  Identity at the zero mode only for s = 0."""
        return Multiplier("lambda_pow", (float(s),))

    @staticmethod
    def riesz(alpha: float) -> "Multiplier":
        """i*xi_1*|xi|^(-alpha), a derivative of order 1 - alpha."""
        return Multiplier("riesz", (float(alpha),))

    @staticmethod
    def partial(axis: int) -> "Multiplier":
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        return Multiplier("partial", (axis,))

    @staticmethod
    def inv_lap_perp_grad(component: int) -> "Multiplier":
        """Component of grad-perp of the inverse Laplacian (stream-function velocity)."""
        if component not in (0, 1):
            raise ValueError("component must be 0 or 1")
        return Multiplier("inv_lap_perp_grad", (component,))

    @staticmethod
    def ring(j: int) -> "Multiplier":
        """The dyadic block Delta_j: zeta(2^-j |xi|), supported in 2^(j-1) < |xi| < 2^(j+1)."""
        return Multiplier("ring", (int(j),))

    @staticmethod
    def lowpass(j: int) -> "Multiplier":
        """The low-pass f_{<j}: upsilon(2^(1-j) |xi|), the mean included."""
        return Multiplier("lowpass", (int(j),))

    @staticmethod
    def smooth_bump(j: int) -> "Multiplier":
        """C-infinity ring symbol at scale 2^j (fast-decaying physical kernel)."""
        return Multiplier("smooth_bump", (int(j),))

    @staticmethod
    def compose(*parts: "Multiplier") -> "Multiplier":
        return Multiplier("composite", (), tuple(parts))

    @staticmethod
    def sum(*parts: "Multiplier", weights: Tuple[float, ...] | None = None) -> "Multiplier":
        """Weighted sum of symbols, the weights (all 1 by default) held in ``params``."""
        weights = (1.0,) * len(parts) if weights is None else tuple(float(w) for w in weights)
        if len(weights) != len(parts):
            raise ValueError("a weighted sum needs one weight per part")
        return Multiplier("sum", weights, tuple(parts))

    # -- symbol construction --

    def at_zero(self) -> float:
        """The symbol's value at xi = 0: 1 for Lambda^0 and a low-pass, 0
        for every other atom, the product of the parts' for a composite and
        their weighted sum for a sum."""
        if self.kind == "composite":
            return math.prod(p.at_zero() for p in self.parts)
        if self.kind == "sum":
            return sum(w * p.at_zero() for p, w in zip(self.parts, self.params))
        keeps_mean = self.kind == "lowpass" or (self.kind == "lambda_pow" and self.params[0] == 0)
        return 1.0 if keeps_mean else 0.0

    def symbol(self, grid: Grid) -> np.ndarray:
        kmag = grid.kmag
        if self.kind == "composite":
            sym = np.ones(kmag.shape, dtype=np.complex128)
            for p in self.parts:
                sym = sym * p.symbol(grid)
        elif self.kind == "sum":
            sym = np.zeros(kmag.shape, dtype=np.complex128)
            for p, w in zip(self.parts, self.params):
                sym += w * p.symbol(grid)
        elif self.kind == "lambda_pow":
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
        elif self.kind == "ring":
            sym = zeta(kmag * 2.0 ** (-self.params[0])).astype(np.complex128)
        elif self.kind == "lowpass":
            sym = upsilon(kmag * 2.0 ** (1 - self.params[0])).astype(np.complex128)
        elif self.kind == "smooth_bump":
            (j,) = self.params
            sym = smooth_zeta(kmag * 2.0 ** (-j)).astype(np.complex128)
        else:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")

        sym = np.asarray(sym, dtype=np.complex128)
        sym[0, 0] = self.at_zero()
        if self.kind in ("riesz", "partial", "inv_lap_perp_grad"):
            ny = sym.shape[0] // 2  # the Nyquist row k_1 = -n/2 and column k_2 = n/2
            sym[ny, :] = 0.0
            sym[:, ny] = 0.0
        return sym


class SymbolTable:
    """The symbols of one grid, each built on first use and then reused.

    A table belongs to the call that makes it (``model.integrate`` makes
    one per run, a lone ``model.step`` its own) and is dropped with it;
    nothing is cached module-wide.  Its arrays are read-only.
    """

    __slots__ = ("grid", "_symbols")

    def __init__(self, grid: Grid):
        self.grid = grid
        self._symbols = {}

    def symbol(self, spec: Multiplier, grid: Grid) -> np.ndarray:
        if grid != self.grid:
            raise ValueError("the symbol table belongs to another grid")
        sym = self._symbols.get(spec)
        if sym is None:
            sym = spec.symbol(grid)
            sym.setflags(write=False)
            self._symbols[spec] = sym
        return sym


def symbol_of(spec: Multiplier, grid: Grid, symbols: Optional[SymbolTable] = None) -> np.ndarray:
    """The symbol of ``spec`` on ``grid``, from ``symbols`` if given."""
    return spec.symbol(grid) if symbols is None else symbols.symbol(spec, grid)


def apply_multiplier(field: SpectralField, spec: Multiplier,
                     symbols: Optional[SymbolTable] = None) -> SpectralField:
    """Coefficientwise product with the symbol."""
    return SpectralField(field.grid, field.coef * symbol_of(spec, field.grid, symbols))
