"""Commutator fields, kernel representation checks, best-constant sampling.

The discrete commutator [A, V.grad] phi = A(V.grad phi) - V.grad(A phi)
is bilinear in (V, phi) and vanishes for constant V or constant phi.
For a band-supported block operator it also admits an exact kernel form

    [P_k, g.grad] f (x) = sum_y G_k(x - y) . [g(y) - g(x)] f(y),

where G_k is the lattice kernel of grad(P_k); the identity relies only
on div g = 0.  :func:`representation_check` evaluates the right side by
direct kernel quadrature (a literal sum over displacements) and reports
the max-norm residual against the spectral commutator.

Best constants of the registered inequalities are estimated by sampled
lower bounds: draw (V, phi, ...) from banded ensembles, record LHS/RHS,
keep the max.  The harness never claims an inequality holds universally;
it falsifies resolution instability and measures constants on the torus
(constants here are torus-specific and may differ from whole-plane ones).
Trial t's fields are shared across specs: every spec of a campaign
reads the same draw of (grid, trial), and each spec's ratios reduce
through the same max as when it runs alone, so a spec's report does not
depend on which other specs run with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fields import SpectralField
from .grid import Grid
from .multipliers import Multiplier, apply_multiplier
from .norms import lp_norm
from .operators import Velocity, commutator_apply, divergence
from .registry import InequalitySpec, TrialDraw

# kernel tail above which RepresentationResult.aliasing_warning is set: the
# block kernel then reaches the box edge and periodization may touch the
# quadrature (the tail itself is RepresentationResult.kernel_tail)
KERNEL_TAIL_WARN = 1e-10


def commutator_field(op, v: Velocity, phi: SpectralField, div_tol: float = 1e-12) -> SpectralField:
    """Exact discrete commutator with a divergence-free velocity."""
    div = divergence(v)
    vnorm = max(np.max(np.abs(v[0].coef)), np.max(np.abs(v[1].coef)), 1e-300)
    if np.max(np.abs(div.coef)) > div_tol * vnorm:
        raise ValueError("commutator_field requires a divergence-free velocity")
    return commutator_apply(op, v, phi)


# -- representation formula ---------------------------------------------------


def block_kernels(grid: Grid, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical kernels (P_k, d1 P_k, d2 P_k) of the smooth band symbol at
    scale 2^k, sampled on the lattice (exact for grid functions)."""
    op = Multiplier.smooth_bump(k)
    sym = op.symbol(grid)
    shape = (grid.n, grid.n)
    kernel = np.fft.irfft2(sym, s=shape)
    g1 = np.fft.irfft2(1j * grid.kx * sym, s=shape)
    g2 = np.fft.irfft2(1j * grid.ky * sym, s=shape)
    return kernel, g1, g2


def kernel_tail_fraction(kernel: np.ndarray) -> float:
    """Relative kernel magnitude near the box antipode (aliasing indicator)."""
    n = kernel.shape[0]
    h = n // 2
    band = kernel[h - 1:h + 2, :], kernel[:, h - 1:h + 2]
    tail = max(np.max(np.abs(band[0])), np.max(np.abs(band[1])))
    return float(tail / max(np.max(np.abs(kernel)), 1e-300))


def _direct_convolution(kernel: np.ndarray, values: np.ndarray, skip_below: float = 1e-20) -> np.ndarray:
    """Circular convolution as an explicit sum over displacements.

    Displacements whose kernel weight is below ``skip_below`` times the
    kernel max contribute less than roundoff and are skipped.  The sum
    over the column displacements d2 of one row displacement d1 is one
    matrix product, roll(values, d1, axis=0) @ circulant(kernel[d1]), with
    circulant(k)[l, j] = k[(j - l) mod n]; no FFT is involved.
    """
    n = kernel.shape[0]
    out = np.zeros_like(values)
    keep = np.abs(kernel) > skip_below * np.max(np.abs(kernel))
    shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    for d1 in np.flatnonzero(keep.any(axis=1)):
        row = np.where(keep[d1], kernel[d1], 0.0)
        out += np.roll(values, d1, axis=0) @ row[shift]
    return out


@dataclass
class RepresentationResult:
    residual: float
    scale: float
    kernel_tail: float
    aliasing_warning: bool

    @property
    def relative(self) -> float:
        return self.residual / max(self.scale, 1e-300)


def representation_check(k: int, g: Velocity, f: SpectralField,
                         skip_below: float = 1e-20) -> RepresentationResult:
    """Compare the spectral commutator of the scale-2^k block with the
    direct kernel quadrature; the residual scale is ||f||_inf ||grad g||_inf."""
    grid = f.grid
    op = Multiplier.smooth_bump(k)
    spectral = commutator_field(op, g, f)

    kernel, g1, g2 = block_kernels(grid, k)
    tail = kernel_tail_fraction(kernel)

    fv = f.physical()
    gv = (g[0].physical(), g[1].physical())
    quad = np.zeros_like(fv)
    for gk, gcomp in ((g1, gv[0]), (g2, gv[1])):
        quad += _direct_convolution(gk, gcomp * fv, skip_below)
        quad -= gcomp * _direct_convolution(gk, fv, skip_below)

    residual = float(np.max(np.abs(spectral.physical() - quad)))
    from .operators import gradient
    grad_inf = 0.0
    for comp in g:
        gx, gy = gradient(comp)
        grad_inf = max(grad_inf, lp_norm(gx, np.inf), lp_norm(gy, np.inf))
    scale = float(np.max(np.abs(fv))) * max(grad_inf, 1e-300)
    return RepresentationResult(residual, scale, tail, tail > KERNEL_TAIL_WARN)


# -- best-constant sampling ----------------------------------------------------


@dataclass
class EstimateReport:
    spec_id: str
    trials: int
    seed: int
    ratios: Dict[int, List[float]]      # grid n -> per-trial LHS/RHS
    c_hat: float
    c_hat_per_grid: Dict[int, float]
    degenerate: int
    canary: bool
    near_boundary: bool

    @property
    def resolution_stable(self) -> bool:
        ns = sorted(self.c_hat_per_grid)
        if len(ns) < 2:
            return True
        return all(
            self.c_hat_per_grid[ns[i + 1]] <= 2.0 * max(self.c_hat_per_grid[ns[i]], 1e-300)
            for i in range(len(ns) - 1))

    def growth_factor(self) -> float:
        ns = sorted(self.c_hat_per_grid)
        if len(ns) < 2 or self.c_hat_per_grid[ns[0]] <= 0:
            return float("nan")
        return self.c_hat_per_grid[ns[-1]] / self.c_hat_per_grid[ns[0]]


def estimate_constants(problems: Sequence, trials: int, grid_sizes: Sequence[int],
                       seed: int = 0, length: float = 2 * np.pi,
                       max_resample: int = 4) -> List[EstimateReport]:
    """Sample LHS/RHS ratios of several registered inequalities across grids.

    Fields for trial t are drawn from the same banded coefficients on
    every grid, so the per-grid max ratios are directly comparable.  The
    loop runs grid -> trial -> spec, and every registry spec of one
    (grid, trial, attempt) reads one shared :class:`TrialDraw`: the
    fields, v.grad(phi) and the norms of the fields are computed once
    however many specs use them, and each report is the one the spec
    gets alone.  A trial whose RHS degenerates is redrawn a few times
    (attempt 1, 2, ...) for that spec only and counted.  Give at least
    two grid sizes for a meaningful scaling table (with one the
    stability verdict is vacuous).
    """
    from .grid import make_grid

    problems = list(problems)
    ratios: List[Dict[int, List[float]]] = [{} for _ in problems]
    degenerate = [0] * len(problems)
    for n in grid_sizes:
        grid = make_grid(n, length)
        for per_grid in ratios:
            per_grid[n] = []
        for t in range(trials):
            draws: Dict[int, TrialDraw] = {}  # attempt -> the draw every spec shares
            for i, problem in enumerate(problems):
                ratio, redraws = _sample_ratio(problem, grid, draws, seed, t, max_resample)
                ratios[i][n].append(ratio)
                degenerate[i] += redraws
    reports = []
    for problem, per_grid, redraws in zip(problems, ratios, degenerate):
        c_per = {n: max(vals) for n, vals in per_grid.items()}
        reports.append(EstimateReport(problem.spec_id, trials, seed, per_grid,
                                      max(c_per.values()), c_per, redraws,
                                      getattr(problem, "canary", False),
                                      getattr(problem, "near_boundary", False)))
    return reports


def _sample_ratio(problem, grid: Grid, draws: Dict[int, TrialDraw], seed: int, t: int,
                  max_resample: int) -> Tuple[float, int]:
    """LHS/RHS of one trial and the number of redraws it took.  Registry
    specs draw through ``draws``; any other problem draws alone."""
    shared = isinstance(problem, InequalitySpec)
    for attempt in range(max_resample):
        key = (seed, t, attempt)
        if shared:
            if attempt not in draws:
                draws[attempt] = TrialDraw(grid, key)
            fields = problem.draw(grid, key, draws[attempt])
        else:
            fields = problem.draw(grid, key)
        lhs = problem.lhs(grid, fields)
        rhs = problem.rhs(grid, fields)
        if rhs > 1e-14 * max(lhs, 1.0):
            return lhs / rhs, attempt
    raise RuntimeError(f"degenerate ensemble for {problem.spec_id}: "
                       "RHS vanished on every redraw")


def estimate_constant(problem, trials: int, grid_sizes: Sequence[int], seed: int = 0,
                      length: float = 2 * np.pi, max_resample: int = 4) -> EstimateReport:
    """One-spec call of :func:`estimate_constants`."""
    (report,) = estimate_constants([problem], trials, grid_sizes, seed, length, max_resample)
    return report


def smoothing_comparison(alpha: float, trials: int, n: int, seed: int = 0) -> Dict[str, float]:
    """Measured constants for the two temperature commutators on a shared
    ensemble: the extra negative-order factor should not make the term
    harder.  Reported as an observation, not asserted."""
    from .grid import make_grid
    from .ensembles import random_divfree_field, random_scalar_field

    grid = make_grid(n, 2 * np.pi)
    beta = 1.0 - alpha
    rough = Multiplier.riesz(alpha)
    smooth = Multiplier.compose(Multiplier.lambda_pow(beta - 2 * alpha), Multiplier.partial(0))
    worst = {"rough": 0.0, "smooth": 0.0}
    for t in range(trials):
        v = random_divfree_field(grid, (seed, t, 0), band=(0, 3), decay=1.0)
        th = random_scalar_field(grid, (seed, t, 1), band=(1, 4), decay=1.0)
        den = lp_norm(v[0], np.inf) + lp_norm(v[1], np.inf)
        den *= lp_norm(apply_multiplier(th, Multiplier.lambda_pow(1.0 - alpha)), 2.0)
        if den <= 0:
            continue
        for name, op in (("rough", rough), ("smooth", smooth)):
            c = commutator_field(op, v, th)
            worst[name] = max(worst[name], lp_norm(c, 2.0) / den)
    worst["smooth_over_rough"] = worst["smooth"] / max(worst["rough"], 1e-300)
    return worst
