"""Test-only reference helpers.

None of these has a caller in ``fblab``: each is an independent route to
a quantity the package computes another way (a second formula for f, the
velocity-pressure form of the right-hand side, a Newton-refined sup, the
full n-by-n spectrum layout), or a plain measure the tests compare with
(relative L2 distance, Hermitian defect, block reconstruction).
"""

import math
from types import SimpleNamespace

import numpy as np

from fblab.dyadic import BlockSet
from fblab.fields import SpectralField, pad_size
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

    coef = full_coef(field)
    mask = np.abs(coef) > 1e-18 * max(1e-300, float(np.max(np.abs(coef))))
    if not np.any(mask):
        return best
    lattice = full_lattice(grid)
    kx = lattice.kx[mask]
    ky = lattice.ky[mask]
    ck = coef[mask]

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
    """Max deviation from coef(-k) == conj(coef(k)) on the columns
    k_2 = 0 and k_2 = n/2 of the half layout, the two that hold both
    members of a conjugate pair."""
    c = field.coef[:, [0, -1]]
    mirrored = c[-np.arange(c.shape[0]) % c.shape[0]]
    return float(np.max(np.abs(c - np.conj(mirrored))))


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


# -- the full n-by-n spectrum layout ------------------------------------------
# numpy's fft2 layout: rows and columns both k_i = 0..n/2-1, -n/2..-1.  The
# references below take this route to what ``fblab.fields`` computes on
# the rfft2 half layout.


def full_lattice(grid) -> SimpleNamespace:
    """The wavenumbers of the full n-by-n lattice, with the attributes
    ``Multiplier.symbol`` reads from a grid."""
    k = grid.dk * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    ksq = kx**2 + ky**2
    return SimpleNamespace(kx=kx, ky=ky, ksq=ksq, kmag=np.sqrt(ksq))


def full_coef(field: SpectralField) -> np.ndarray:
    """The n-by-n spectrum of a field: columns 0..n/2 as stored, the
    others the conjugates of their mirror modes."""
    c = field.coef
    n = c.shape[0]
    h = n // 2
    out = np.empty((n, n), dtype=np.complex128)
    out[:, :h + 1] = c
    out[:, h + 1:] = np.conj(c[-np.arange(n) % n, h - 1:0:-1])
    return out


def pad_coef(coef: np.ndarray, m: int) -> np.ndarray:
    """Embed an n-grid spectrum into an m-grid spectrum (m >= n), zero-padded."""
    n = coef.shape[0]
    if m == n:
        return coef.copy()
    if m < n:
        raise ValueError("padding target must be at least the source size")
    out = np.zeros((m, m), dtype=np.complex128)
    h = n // 2
    out[:h, :h] = coef[:h, :h]
    out[:h, m - h:] = coef[:h, h:]
    out[m - h:, :h] = coef[h:, :h]
    out[m - h:, m - h:] = coef[h:, h:]
    return out


def truncate_coef(coef: np.ndarray, n: int) -> np.ndarray:
    """Restrict an m-grid spectrum to the n-grid band, zeroing the Nyquist line."""
    m = coef.shape[0]
    if m == n:
        out = coef.copy()
    else:
        if m < n:
            raise ValueError("truncation target must be at most the source size")
        h = n // 2
        out = np.empty((n, n), dtype=np.complex128)
        out[:h, :h] = coef[:h, :h]
        out[:h, h:] = coef[:h, m - h:]
        out[h:, :h] = coef[m - h:, :h]
        out[h:, h:] = coef[m - h:, m - h:]
    out[n // 2, :] = 0.0
    out[:, n // 2] = 0.0
    return out


def full_physical_on(field: SpectralField, m: int) -> np.ndarray:
    """Samples on the m-grid by the complex path: pad, ifft2, real part
    (the real part takes the Hermitian part of the padded spectrum, which
    splits the Nyquist lines between +n/2 and -n/2)."""
    return (np.fft.ifft2(pad_coef(full_coef(field), m)) * m**2).real


def full_multiply(a: SpectralField, b: SpectralField) -> np.ndarray:
    """n-by-n spectrum of the dealiased product by the complex path: pad
    both, ifft2, multiply, fft2, truncate."""
    n = a.grid.n
    m = pad_size(n)
    prod = full_physical_on(a, m) * full_physical_on(b, m)
    return truncate_coef(np.fft.fft2(prod) / m**2, n)


def full_apply_multiplier(field: SpectralField, spec: Multiplier) -> np.ndarray:
    """n-by-n spectrum of the multiplier applied on the full lattice."""
    return full_coef(field) * spec.symbol(full_lattice(field.grid))


def full_inner(a: SpectralField, b: SpectralField) -> float:
    return float(np.vdot(full_coef(b), full_coef(a)).real) * a.grid.length ** 2


def full_integral_product(a: SpectralField, b: SpectralField, power: int, m: int) -> float:
    """integral(a * b**power) by the rectangle rule on the m-grid."""
    av, bv = full_physical_on(a, m), full_physical_on(b, m)
    return float(np.mean(av * bv**power)) * a.grid.length ** 2
