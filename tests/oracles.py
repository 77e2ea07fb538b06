"""Test-only reference helpers.

None of these has a caller in ``fblab``: each is an independent route to
a quantity the package computes another way (a second formula for f, the
velocity-pressure form of the right-hand side, a Newton-refined sup), or
a plain measure the tests compare with (relative L2 distance, Hermitian
defect, block reconstruction).
"""

import math

import numpy as np

from fblab.dyadic import BlockSet
from fblab.fields import SpectralField
from fblab.model import ModelParams
from fblab.multipliers import Multiplier, apply_multiplier
from fblab.norms import l2_norm_sq
from fblab.operators import Velocity, advect, check_alpha, leray_project


def rel_l2_diff(a: SpectralField, b: SpectralField) -> float:
    num = math.sqrt(l2_norm_sq(a - b))
    den = max(math.sqrt(l2_norm_sq(a)), math.sqrt(l2_norm_sq(b)), 1e-300)
    return num / den


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
    i, j = np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape)
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


def hermitian_defect(field: SpectralField) -> float:
    """Max deviation from coef(-k) == conj(coef(k))."""
    mirrored = np.roll(field.coef[::-1, ::-1], 1, axis=(0, 1))
    return float(np.max(np.abs(field.coef - np.conj(mirrored))))


def reconstruct(blocks: BlockSet) -> SpectralField:
    """The low remainder plus every block of the partition: f again."""
    coef = blocks.low_remainder().coef.copy()
    for j in blocks.levels:
        coef = coef + blocks.block(j).coef
    return SpectralField(blocks.f.grid, coef)


def f_from_g(g: SpectralField, theta: SpectralField, alpha: float) -> SpectralField:
    """Second formula for f: subtract Lambda^(beta-2alpha) d1 theta from G."""
    check_alpha(alpha)
    beta = 1.0 - alpha
    op = Multiplier.compose(Multiplier.lambda_pow(beta - 2 * alpha), Multiplier.partial(0))
    return g - apply_multiplier(theta, op)


def primitive_rhs(u: Velocity, theta: SpectralField, params: ModelParams):
    """Velocity-pressure form of the vorticity formulation's right-hand
    side, via Leray projection: (du/dt, dtheta/dt)."""
    adv = (advect(u, u[0]), advect(u, u[1]))
    buoyancy = (SpectralField.zero(theta.grid), theta)
    raw = (buoyancy[0] - adv[0], buoyancy[1] - adv[1])
    proj = leray_project(raw)
    lam = Multiplier.lambda_pow(params.alpha)
    du = (proj[0] - params.nu * apply_multiplier(u[0], lam),
          proj[1] - params.nu * apply_multiplier(u[1], lam))
    dtheta = -advect(u, theta) - params.kappa * apply_multiplier(theta, Multiplier.lambda_pow(params.beta))
    return du, dtheta
