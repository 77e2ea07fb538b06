"""Dyadic frequency decomposition, Besov norms, paraproducts, maximal function.

Every dyadic piece is a Fourier multiplier of :mod:`fblab.multipliers`:
the block Delta_j is ``Multiplier.ring(j)``, symbol zeta(2^-j |xi|), and
the low-pass f_{<j} is ``Multiplier.lowpass(j)``, symbol
upsilon(2^(1-j) |xi|).  zeta(xi) = upsilon(|xi|) - upsilon(2|xi|) is
supported in the ring 1/2 < |xi| < 2 and the scaled copies telescope,

    sum_{j=a}^{b} zeta(2^-j r) = upsilon(2^-b r) - upsilon(2^(1-a) r),

so the partition of unity holds exactly on 2^a <= r <= 2^b.  Block
projections, low-pass aggregates and the paraproduct split are all plain
multiplier applications; products inside the paraproduct are dealiased.
The maximal function reads the window means of every dyadic radius from
one table of periodic prefix sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import SpectralField, multiply
from .grid import Grid
from .multipliers import Multiplier, SymbolTable, apply_multiplier
from .norms import lp_norm
from .operators import require_mean_free

DEFAULT_BLOCK_OFFSET = 10
FEFFERMAN_STEIN_PS = (1.5, 2.0, 4.0)  # the p of the reported Fefferman-Stein ratios


def levels(grid: Grid) -> range:
    """The block levels j of ``grid``, jmin to jmax: 2^jmin is at most its
    smallest nonzero wavenumber and 2^jmax at least its largest."""
    jmin = int(math.floor(math.log2(grid.dk) + 1e-12))
    jmax = int(math.ceil(math.log2(grid.kmax) - 1e-12))
    return range(jmin, jmax + 1)


def _require_level(j: int, grid: Grid, what: str):
    lv = levels(grid)
    if j not in lv:
        raise ValueError(f"{what} {j} outside the levels [{lv.start}, {lv[-1]}] of the grid")


def dyadic_block(f: SpectralField, j: int, symbols: Optional[SymbolTable] = None) -> SpectralField:
    """Delta_j f, its symbol from ``symbols`` if given."""
    _require_level(j, f.grid, "block index")
    return apply_multiplier(f, Multiplier.ring(j), symbols)


@dataclass
class BlockSet:
    """The dyadic blocks of one field, each built once, and its aggregates."""

    f: SpectralField
    offset: int = DEFAULT_BLOCK_OFFSET
    _blocks: Dict[int, SpectralField] = dc_field(default_factory=dict, repr=False)

    @property
    def levels(self) -> range:
        return levels(self.f.grid)

    def block(self, j: int) -> SpectralField:
        if j not in self._blocks:
            self._blocks[j] = dyadic_block(self.f, j)
        return self._blocks[j]

    def blocks(self) -> List[Tuple[int, SpectralField]]:
        return [(j, self.block(j)) for j in self.levels]

    def below(self, k: int) -> SpectralField:
        """f_{<k}: every block strictly below level k plus the low remainder."""
        return apply_multiplier(self.f, Multiplier.lowpass(k))

    def near(self, k: int) -> SpectralField:
        """f_{~k}: blocks within ``offset`` of k, clipped to the levels."""
        lv = self.levels
        window = range(max(lv.start, k - self.offset), min(lv.stop, k + self.offset + 1))
        return apply_multiplier(self.f, Multiplier.sum(*map(Multiplier.ring, window)))


def square_function(f: SpectralField, weight_s: float = 0.0) -> np.ndarray:
    """S(x) = (sum_j 2^(2 j s) |Delta_j f(x)|^2)^(1/2), pointwise, over
    the grid's levels."""
    require_mean_free(f, "square-function input")
    acc = np.zeros((f.grid.n, f.grid.n))
    for j in levels(f.grid):
        vals = dyadic_block(f, j).physical()
        acc += (2.0 ** (2 * j * weight_s)) * vals**2
    return np.sqrt(acc)


def besov_norm(f: SpectralField, s: float, r: float,
               symbols: Optional[SymbolTable] = None) -> float:
    """sup_j 2^(j s) ||Delta_j f||_{L^r} over the grid's levels, the ring
    symbols from ``symbols`` if given."""
    if r != np.inf and r < 1:
        raise ValueError(f"integrability index must be >= 1, got {r}")
    require_mean_free(f, "Besov-norm input")
    best = 0.0
    for j in levels(f.grid):
        block = dyadic_block(f, j, symbols)
        best = max(best, 2.0 ** (j * s) * lp_norm(block, r))
    return best


def paraproduct_split(f: SpectralField, g: SpectralField, k: int,
                      offset: int = DEFAULT_BLOCK_OFFSET):
    """Three-piece frequency split of Delta_k(f g).

    Returns (lowhigh, highlow, highhigh):

        lowhigh  = Delta_k( f_{<k-offset} * g_{~k} )
        highlow  = Delta_k( f_{~k} * g_{<k+offset} )
        highhigh = Delta_k( sum_{l >= k+offset} f_l * g_{~l} )

    Block sums are truncated at the grid's levels.  Whenever those span
    fewer than ``offset`` levels (every grid this package targets), the
    three pieces add up to Delta_k(f g) exactly, because the clipped
    aggregates collapse onto exact low/high splits of f and g and
    Delta_k kills the constant f_low * g_low leftover.
    """
    _require_level(k, f.grid, "paraproduct level")
    fb, gb = BlockSet(f, offset), BlockSet(g, offset)

    lowhigh = dyadic_block(multiply(fb.below(k - offset), gb.near(k)), k)
    highlow = dyadic_block(multiply(fb.near(k), gb.below(k + offset)), k)
    high = range(k + offset, fb.levels.stop)
    hh = (multiply(tuple(fb.block(l) for l in high), tuple(gb.near(l) for l in high))
          if high else SpectralField.zero(f.grid))
    highhigh = dyadic_block(hh, k)
    return lowhigh, highlow, highhigh


# -- discrete Hardy-Littlewood maximal function --------------------------


def maximal_radii(n: int) -> List[int]:
    radii = [0]
    r = 1
    while r <= n // 2:
        radii.append(r)
        r *= 2
    return radii


def maximal_function(values: np.ndarray) -> np.ndarray:
    """Discrete maximal function: the largest window average of |f| over
    square windows of dyadic half-width (0, 1, 2, 4, ... up to half the
    box).  The half-width-0 window is the point itself, so M[f] >= |f|.

    With R = n/2, the table T[a, b] (0 <= a, b <= 2n) sums |f| over rows
    [-R, a - R) and columns [-R, b - R) of the periodic plane: its n-by-n
    block is two cumulative sums of |f| rolled by R, the rest follows
    from T[a + n, b] = T[a, b] + T[n, b] and likewise in b.  The window
    of half-width r around (i, j) is the four-corner difference of T at
    rows i + R - r, i + R + r + 1 and the same columns.
    """
    out = np.abs(np.asarray(values, dtype=np.float64))  # the half-width-0 window
    n = out.shape[0]
    big = n // 2
    table = np.zeros((2 * n + 1, 2 * n + 1))
    block = table[1:n + 1, 1:n + 1]
    np.cumsum(np.roll(out, big, axis=(0, 1)), axis=0, out=block)
    np.cumsum(block, axis=1, out=block)
    np.add(table[:n + 1, 1:n + 1], table[:n + 1, n:n + 1], out=table[:n + 1, n + 1:])
    np.add(table[1:n + 1], table[n], out=table[n + 1:])
    for r in maximal_radii(n)[1:]:
        lo, hi = big - r, big + r + 1
        window = table[hi:hi + n, hi:hi + n] - table[lo:lo + n, hi:hi + n]
        window -= table[hi:hi + n, lo:lo + n]
        window += table[lo:lo + n, lo:lo + n]
        window *= 1.0 / (2 * r + 1) ** 2
        np.maximum(out, window, out=out)
    return out


def measure_block_domination(bs: BlockSet) -> float:
    """Largest pointwise ratio |Delta_j f|(x) / M[f](x) over the blocks
    and low-pass aggregates of ``bs``, whose samples stay with the caller;
    the constant is measured, never assumed."""
    m = maximal_function(bs.f.physical())
    floor = 1e-14 * max(np.max(m), 1e-300)
    safe = np.where(m > floor, m, np.inf)
    worst = 0.0
    for j in bs.levels:
        worst = max(worst, float(np.max(np.abs(bs.block(j).physical()) / safe)))
        worst = max(worst, float(np.max(np.abs(bs.below(j).physical()) / safe)))
    return worst


def measure_fefferman_stein(blocks: Sequence[np.ndarray], ps: Sequence[float],
                            grid: Grid) -> List[float]:
    """Ratios ||(sum_k (M g_k)^r)^(1/r)||_p / ||(sum_k |g_k|^r)^(1/r)||_p
    with r = 2, one per p in ``ps``; the sums over the blocks are formed once."""
    r = 2.0
    num = np.zeros_like(blocks[0])
    den = np.zeros_like(blocks[0])
    for g in blocks:
        num += maximal_function(g) ** r
        den += np.abs(g) ** r
    area = grid.length ** 2
    ratios = []
    for p in ps:
        lhs = (np.mean(num ** (p / r)) * area) ** (1.0 / p)
        rhs = (np.mean(den ** (p / r)) * area) ** (1.0 / p)
        ratios.append(float(lhs / rhs) if rhs > 0 else 0.0)
    return ratios


def measurement_rows(grid_sizes: Sequence[int] = (64, 128), seed: int = 0):
    """Measured decomposition constants as report rows
    (quantity, parameter, value, grid_n, seed), the Fefferman-Stein ratio
    at each p of ``FEFFERMAN_STEIN_PS``; all torus-specific."""
    from .ensembles import random_scalar_field

    rows = []
    for n in grid_sizes:
        grid = Grid(n, 2 * np.pi)
        f = random_scalar_field(grid, (seed, n), band=(0, 4), decay=1.0)
        bs = BlockSet(f)  # both measurements read the same block samples
        rows.append(("block_domination", "", measure_block_domination(bs), n, seed))
        blocks = [block.physical() for _, block in bs.blocks()]
        ratios = measure_fefferman_stein(blocks, FEFFERMAN_STEIN_PS, grid)
        for p, ratio in zip(FEFFERMAN_STEIN_PS, ratios):
            rows.append(("fefferman_stein", f"p={p}", ratio, n, seed))
    return rows
