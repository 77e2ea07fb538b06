"""Dyadic frequency decomposition, Besov norms, paraproducts, maximal function.

The partition is built from the concrete radial cutoff of
:mod:`fblab.multipliers`: zeta(xi) = upsilon(|xi|) - upsilon(2|xi|) is
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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fields import SpectralField, multiply
from .grid import Grid
from .multipliers import upsilon, zeta
from .norms import lp_norm
from .operators import require_mean_free

DEFAULT_BLOCK_OFFSET = 10
FEFFERMAN_STEIN_PS = (1.5, 2.0, 4.0)  # the p of the reported Fefferman-Stein ratios


@dataclass(frozen=True)
class DyadicPartition:
    """Dyadic ring symbols zeta(2^-j xi) for j in [jmin, jmax]."""

    grid: Grid
    jmin: int
    jmax: int

    def __post_init__(self):
        smallest = self.grid.dk
        if 2.0 ** self.jmin > smallest * (1 + 1e-12):
            raise ValueError(f"jmin={self.jmin} too large: 2^jmin must not exceed the "
                             f"smallest nonzero wavenumber {smallest:g}")
        if 2.0 ** self.jmax < self.grid.kmax * (1 - 1e-12):
            raise ValueError(f"jmax={self.jmax} too small for the grid: need 2^jmax >= {self.grid.kmax:g}")
        object.__setattr__(self, "_sym_cache", {})

    @property
    def levels(self) -> range:
        return range(self.jmin, self.jmax + 1)

    def ring_symbol(self, j: int) -> np.ndarray:
        key = ("ring", j)
        cache = self._sym_cache
        if key not in cache:
            cache[key] = zeta(self.grid.kmag * 2.0 ** (-j))
        return cache[key]

    def lowpass_symbol(self, j: int) -> np.ndarray:
        """Symbol of f_{<j}: upsilon(2^(1-j)|xi|), includes the mean."""
        key = ("low", j)
        cache = self._sym_cache
        if key not in cache:
            cache[key] = upsilon(self.grid.kmag * 2.0 ** (1 - j))
        return cache[key]

    def partition_sum(self) -> np.ndarray:
        out = np.zeros_like(self.grid.kmag)
        for j in self.levels:
            out += self.ring_symbol(j)
        return out

    def covered_mask(self) -> np.ndarray:
        """Modes where the ring symbols must sum to one."""
        r = self.grid.kmag
        return (r >= 2.0 ** self.jmin) & (r <= 2.0 ** (self.jmax - 1))


def default_levels(grid: Grid) -> Tuple[int, int]:
    jmin = int(math.floor(math.log2(grid.dk) + 1e-12))
    jmax = int(math.ceil(math.log2(grid.kmax) - 1e-12))
    return jmin, jmax


def build_partition(grid: Grid, jmin: int | None = None, jmax: int | None = None) -> DyadicPartition:
    auto_min, auto_max = default_levels(grid)
    return DyadicPartition(grid, auto_min if jmin is None else jmin,
                           auto_max if jmax is None else jmax)


def dyadic_block(f: SpectralField, j: int, partition: DyadicPartition | None = None) -> SpectralField:
    part = partition or build_partition(f.grid)
    if not part.jmin <= j <= part.jmax:
        raise ValueError(f"block index {j} outside partition range [{part.jmin}, {part.jmax}]")
    return SpectralField(f.grid, f.coef * part.ring_symbol(j))


@dataclass
class BlockSet:
    """All dyadic blocks of one field, with cached aggregates."""

    f: SpectralField
    partition: DyadicPartition
    offset: int = DEFAULT_BLOCK_OFFSET
    _blocks: Dict[int, SpectralField] = dc_field(default_factory=dict, repr=False)

    @property
    def levels(self) -> range:
        return self.partition.levels

    def block(self, j: int) -> SpectralField:
        if j not in self._blocks:
            self._blocks[j] = dyadic_block(self.f, j, self.partition)
        return self._blocks[j]

    def blocks(self) -> List[Tuple[int, SpectralField]]:
        return [(j, self.block(j)) for j in self.levels]

    def below(self, k: int) -> SpectralField:
        """f_{<k}: every block strictly below level k plus the low remainder."""
        sym = self.partition.lowpass_symbol(k)
        return SpectralField(self.f.grid, self.f.coef * sym)

    def near(self, k: int) -> SpectralField:
        """f_{~k}: blocks within ``offset`` of k, clipped to the partition range."""
        lo = max(self.partition.jmin, k - self.offset)
        hi = min(self.partition.jmax, k + self.offset)
        coef = np.zeros_like(self.f.coef)
        for j in range(lo, hi + 1):
            coef += self.block(j).coef
        return SpectralField(self.f.grid, coef)


def square_function(f: SpectralField, weight_s: float = 0.0) -> np.ndarray:
    """S(x) = (sum_j 2^(2 j s) |Delta_j f(x)|^2)^(1/2), pointwise, over
    the default partition."""
    require_mean_free(f, "square-function input")
    part = build_partition(f.grid)
    acc = np.zeros((f.grid.n, f.grid.n))
    for j in part.levels:
        vals = dyadic_block(f, j, part).physical()
        acc += (2.0 ** (2 * j * weight_s)) * vals**2
    return np.sqrt(acc)


def besov_norm(f: SpectralField, s: float, r: float,
               partition: DyadicPartition | None = None) -> float:
    """sup_j 2^(j s) ||Delta_j f||_{L^r} over the partition range."""
    if r != np.inf and r < 1:
        raise ValueError(f"integrability index must be >= 1, got {r}")
    require_mean_free(f, "Besov-norm input")
    part = partition or build_partition(f.grid)
    best = 0.0
    for j in part.levels:
        block = dyadic_block(f, j, part)
        best = max(best, 2.0 ** (j * s) * lp_norm(block, r))
    return best


def paraproduct_split(f: SpectralField, g: SpectralField, k: int,
                      offset: int = DEFAULT_BLOCK_OFFSET,
                      partition: DyadicPartition | None = None):
    """Three-piece frequency split of Delta_k(f g).

    Returns (lowhigh, highlow, highhigh):

        lowhigh  = Delta_k( f_{<k-offset} * g_{~k} )
        highlow  = Delta_k( f_{~k} * g_{<k+offset} )
        highhigh = Delta_k( sum_{l >= k+offset} f_l * g_{~l} )

    Block sums are truncated at the partition bounds.  Whenever the
    partition spans fewer than ``offset`` levels (every grid this
    package targets), the three pieces add up to Delta_k(f g) exactly,
    because the clipped aggregates collapse onto exact low/high splits
    of f and g and Delta_k kills the constant f_low * g_low leftover.
    """
    part = partition or build_partition(f.grid)
    if not part.jmin <= k <= part.jmax:
        raise ValueError(f"paraproduct level {k} outside partition range [{part.jmin}, {part.jmax}]")
    fb = BlockSet(f, part, offset)
    gb = BlockSet(g, part, offset)

    lowhigh = dyadic_block(multiply(fb.below(k - offset), gb.near(k)), k, part)
    highlow = dyadic_block(multiply(fb.near(k), gb.below(k + offset)), k, part)
    high = range(k + offset, part.jmax + 1)
    hh = (multiply(tuple(fb.block(l) for l in high), tuple(gb.near(l) for l in high))
          if high else SpectralField.zero(f.grid))
    highhigh = dyadic_block(hh, k, part)
    return lowhigh, highlow, highhigh


# -- discrete Hardy-Littlewood maximal function --------------------------


def maximal_radii(n: int) -> List[int]:
    radii = [0]
    r = 1
    while r <= n // 2:
        radii.append(r)
        r *= 2
    return radii


def maximal_function(values) -> np.ndarray:
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
    if isinstance(values, SpectralField):
        values = values.physical()
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


def measure_block_domination(f: SpectralField | BlockSet) -> float:
    """Largest pointwise ratio |Delta_j f|(x) / M[f](x) over blocks and
    low-pass aggregates; the constant is measured, never assumed.  Given
    a :class:`BlockSet`, its blocks and their samples are the ones read,
    and stay with the caller; given a field, the default partition's."""
    bs = f if isinstance(f, BlockSet) else BlockSet(f, build_partition(f.grid))
    m = maximal_function(bs.f)
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
        part = build_partition(grid)
        f = random_scalar_field(grid, (seed, n), band=(0, 4), decay=1.0)
        bs = BlockSet(f, part)  # both measurements read the same block samples
        rows.append(("block_domination", "", measure_block_domination(bs), n, seed))
        blocks = [block.physical() for _, block in bs.blocks()]
        ratios = measure_fefferman_stein(blocks, FEFFERMAN_STEIN_PS, grid)
        for p, ratio in zip(FEFFERMAN_STEIN_PS, ratios):
            rows.append(("fefferman_stein", f"p={p}", ratio, n, seed))
    return rows
