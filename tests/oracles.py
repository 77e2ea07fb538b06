"""Test-only reference helpers.

None of these has a caller in ``fblab``: each is an independent route to
a quantity the package computes another way (a second formula for f, the
velocity-pressure form of the right-hand side, a Newton-refined sup, the
full n-by-n spectrum layout, the full-width padded transforms), or a plain measure the tests compare with
(relative L2 distance, Hermitian defect, block reconstruction, the
specs whose hypotheses hold, the change of variables' operator as the
paper writes it), or a slower route the package replaced
(the Leray projection, the per-radius window means of the maximal
function, the hybrid source terms with f advected on its own, the
zero-mode rule symbols once stored, the dyadic partition's own ring and
low-pass formulas, a registered estimate's ratios evaluated with no
shared draw and no memo), or an integrand
the package has no caller of (the dissipation rates).
"""

import math
from types import SimpleNamespace

import numpy as np

from fblab.dyadic import BlockSet, maximal_function, maximal_radii
from fblab.commutators import MAX_RESAMPLE
from fblab.fields import SpectralField, nice_fft_size, pad_size
from fblab.grid import make_grid
from fblab.model import ModelParams, SimState, hybrid_terms, state_velocity
from fblab.multipliers import Multiplier, apply_multiplier, smooth_zeta, upsilon, zeta
from fblab.norms import inner, l2_norm_sq, samples_lp
from fblab.operators import Velocity, advect, commutator_apply, divergence, gradient
from fblab.ranges import check
from fblab.registry import SPEC_IDS, _draw_role


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
    """The low remainder (the content below the lowest level, mean
    included, from upsilon directly) plus every block: f again."""
    coef = blocks.f.coef * upsilon(blocks.f.grid.kmag * 2.0 ** (1 - blocks.levels.start))
    for j in blocks.levels:
        coef = coef + blocks.block(j).coef
    return SpectralField(blocks.f.grid, coef)


def hypothesis_satisfying_ids(registry) -> list:
    """The registered spec ids whose hypotheses hold (no canary), in
    registry order."""
    return [sid for sid in SPEC_IDS if sid in registry and not registry[sid].canary]


# -- a registered estimate without its shared draw -------------------------------
# How each spec was evaluated from a bare {"v", "phi", "psi"} dict before
# every spec read its trial's TrialDraw: each attempt draws alone, and
# every norm, commutator and v.grad(phi) is computed afresh.


def unshared_ratios(spec, trials, grid_sizes, seed) -> dict:
    """Grid n -> per-trial LHS/RHS of ``spec``, each trial's first attempt
    whose RHS does not degenerate, its roles drawn through
    ``registry._draw_role``."""
    out = {}
    for n in grid_sizes:
        grid = make_grid(n, 2 * np.pi)
        out[n] = []
        for t in range(trials):
            for attempt in range(MAX_RESAMPLE):
                fields = {role: _draw_role(grid, (seed, t, attempt), role)
                          for role in ("v", "phi", "psi")}
                lhs, rhs = _unshared_lhs(spec, fields), _unshared_rhs(spec, fields)
                if rhs > 1e-14 * max(lhs, 1.0):
                    out[n].append(lhs / rhs)
                    break
    return out


def _unshared_lhs(spec, fields) -> float:
    if spec.kind == "norm":
        return _unshared_norm(fields, spec.work, *spec.outer)
    if spec.kind == "pairing":
        return abs(inner(_unshared_commutator(spec.work, fields), fields["psi"]))
    comm = np.abs(_unshared_commutator(spec.work, fields).physical())
    bound = math.prod(maximal_function(np.abs(_unshared_samples(fields, role, order)) ** p)
                      ** (1.0 / p) for role, order, p in spec.factors)
    mask = bound > 1e-12 * max(np.max(bound), 1e-300)
    if not np.any(mask):
        return 0.0
    return float(np.max(comm[mask] / bound[mask]))


def _unshared_rhs(spec, fields) -> float:
    if spec.kind == "pointwise":
        return 1.0
    return math.prod(_unshared_norm(fields, *factor) for factor in spec.factors)


def _unshared_commutator(work, fields) -> SpectralField:
    order, op = work
    v, phi = fields["v"], fields["phi"]
    if order == 0.0:
        return commutator_apply(op, v, phi)
    lam = Multiplier.lambda_pow(order)
    w = (apply_multiplier(v[0], lam), apply_multiplier(v[1], lam))
    return commutator_apply(op, w, phi, transported=advect(w, phi))


def _unshared_samples(fields, role, order: float) -> np.ndarray:
    if role == "grad_v":
        acc = None
        for comp in fields["v"]:
            gx, gy = gradient(comp)
            sq = gx.physical() ** 2 + gy.physical() ** 2
            acc = sq if acc is None else acc + sq
        return np.sqrt(acc)
    f = fields[role] if isinstance(role, str) else _unshared_commutator(role, fields)
    if order != 0.0:
        lam = Multiplier.lambda_pow(order)
        f = (apply_multiplier(f[0], lam), apply_multiplier(f[1], lam)) if role == "v" \
            else apply_multiplier(f, lam)
    return np.hypot(f[0].physical(), f[1].physical()) if role == "v" else f.physical()


def _unshared_norm(fields, role, order: float, p: float) -> float:
    return samples_lp(_unshared_samples(fields, role, order), p, fields["phi"].grid.length ** 2)


def f_from_g(g: SpectralField, theta: SpectralField, alpha: float) -> SpectralField:
    """Second formula for f: subtract Lambda^(beta-2alpha) d1 theta from G."""
    check({"alpha": alpha})
    beta = 1.0 - alpha
    op = Multiplier.compose(Multiplier.lambda_pow(beta - 2 * alpha), Multiplier.partial(0))
    return g - apply_multiplier(theta, op)


def leray_project(v: Velocity) -> Velocity:
    """Remove the gradient part: P = I - grad Delta^{-1} div."""
    div = divergence(v)
    grid = v[0].grid
    with np.errstate(divide="ignore"):
        inv = np.where(grid.kmag > 0, 1.0 / np.where(grid.kmag > 0, grid.ksq, 1.0), 0.0)
    phi_coef = -div.coef * inv  # Delta phi = div v
    phi = SpectralField(grid, phi_coef)
    gx, gy = gradient(phi)
    return v[0] - gx, v[1] - gy


def temperature_vorticity_operator(alpha: float) -> Multiplier:
    """R_alpha (I + Lambda^(beta-alpha)) with beta = 1 - alpha, written from
    its definition: the operator of the change of variables, which
    ``HybridTerms.v`` writes as R_alpha + Lambda^(beta-2alpha) d1."""
    beta = 1.0 - alpha
    riesz = Multiplier.riesz(alpha)
    return Multiplier.sum(riesz, Multiplier.compose(riesz, Multiplier.lambda_pow(beta - alpha)))


def reference_zero_rule(spec: Multiplier) -> str:
    """The zero-mode rule the ``Multiplier`` factories once stored on each
    symbol: "identity" for Lambda^0, for a low-pass (which keeps the mean),
    for a composite of identities and for a sum with one identity part, of
    weight 1; "annihilate" otherwise."""
    if spec.kind == "lambda_pow":
        return "identity" if spec.params[0] == 0 else "annihilate"
    if spec.kind == "lowpass":
        return "identity"
    rules = [reference_zero_rule(p) for p in spec.parts]
    if spec.kind == "composite":
        return "identity" if all(r == "identity" for r in rules) else "annihilate"
    if spec.kind == "sum":
        identity = [w for r, w in zip(rules, spec.params) if r == "identity"]
        if len(identity) > 1 or (identity and identity[0] != 1.0):
            raise ValueError("the stored rule had no zero mode for this sum")
        return "identity" if identity else "annihilate"
    return "annihilate"


def reference_symbol(spec: Multiplier, grid, rule: str | None = None) -> np.ndarray:
    """The symbol as built when the zero mode was a stored rule: the parts
    of a composite or sum built under "annihilate", then the whole's
    [0, 0] set by its rule; a leaf from its formula, its [0, 0] set by the
    rule, then an odd leaf's Nyquist lines zeroed."""
    identity = (rule or reference_zero_rule(spec)) == "identity"
    if spec.kind in ("composite", "sum"):
        if spec.kind == "composite":
            sym = np.ones(grid.kmag.shape, dtype=np.complex128)
            for p in spec.parts:
                sym = sym * reference_symbol(p, grid, "annihilate")
        else:
            sym = np.zeros(grid.kmag.shape, dtype=np.complex128)
            for p, w in zip(spec.parts, spec.params):
                sym += w * reference_symbol(p, grid, "annihilate")
        sym[0, 0] = 1.0 if identity else 0.0
        return sym
    kmag = grid.kmag
    with np.errstate(divide="ignore"):
        if spec.kind == "lambda_pow":
            sym = (np.where(kmag > 0, kmag, 1.0) ** spec.params[0]).astype(np.complex128)
        elif spec.kind == "riesz":
            sym = 1j * grid.kx * np.where(kmag > 0, kmag, 1.0) ** (-spec.params[0])
        elif spec.kind == "partial":
            sym = 1j * (grid.kx if spec.params[0] == 0 else grid.ky)
        elif spec.kind == "inv_lap_perp_grad":
            inv = np.where(kmag > 0, 1.0 / np.where(kmag > 0, grid.ksq, 1.0), 0.0)
            sym = (1j * grid.ky * inv) if spec.params[0] == 0 else (-1j * grid.kx * inv)
        elif spec.kind == "ring":  # the retired dyadic partition's formulas
            sym = zeta(kmag * 2.0 ** (-spec.params[0])).astype(np.complex128)
        elif spec.kind == "lowpass":
            sym = upsilon(kmag * 2.0 ** (1 - spec.params[0])).astype(np.complex128)
        else:  # smooth_bump
            sym = smooth_zeta(kmag * 2.0 ** (-spec.params[0])).astype(np.complex128)
    sym = np.asarray(sym, dtype=np.complex128)
    sym[0, 0] = 1.0 if identity else 0.0
    if spec.kind in ("riesz", "partial", "inv_lap_perp_grad"):
        ny = sym.shape[0] // 2
        sym[ny, :] = 0.0
        sym[:, ny] = 0.0
    return sym


def nonlinear_three_advections(state: SimState):
    """The hybrid form's source terms with f advected on its own:
    -a u.grad f + w Lambda^(2(beta-alpha)) d1 theta + [C, u.grad] theta,
    three advections where ``model.nonlinear`` makes two."""
    u, th = state_velocity(state), state.theta
    h = hybrid_terms(state.params)
    w_lin, lin = h.linear
    transported = advect(u, th)
    dP = (-h.advect * advect(u, state.primary)
          + w_lin * apply_multiplier(th, lin)
          + commutator_apply(h.commutator(), u, th, transported))
    return dP, -h.advect * transported


def theta_dissipation_rate(state: SimState) -> float:
    """||Lambda^(beta/2) theta||^2, an accumulator of ``model.integrate``."""
    half = apply_multiplier(state.theta, Multiplier.lambda_pow(state.params.beta / 2.0))
    return l2_norm_sq(half)


def velocity_dissipation_rate(state: SimState) -> float:
    """||Lambda^(alpha/2) u||^2, an accumulator of ``model.integrate``."""
    u = state_velocity(state)
    lam = Multiplier.lambda_pow(state.params.alpha / 2.0)
    return l2_norm_sq(apply_multiplier(u[0], lam)) + l2_norm_sq(apply_multiplier(u[1], lam))


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


# -- the full-width padded transforms -------------------------------------------
# The 2-D transforms ``fblab.fields`` replaced by passes over the band: the
# padded half spectrum keeps all m/2+1 columns, ``irfft2`` and ``rfft2``
# run their column pass over every one of them, and the columns the band
# needs are sliced out afterwards.  The band-only passes must agree with
# these to the last bit.


def full_width_pad(coef: np.ndarray, m: int) -> np.ndarray:
    """The m-lattice half spectrum, all m/2+1 columns, of the n-lattice
    one, with the Nyquist lines split as ``fblab.fields`` splits them."""
    n = coef.shape[0]
    h = n // 2
    out = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    out[:h, :h + 1] = coef[:h]
    out[m - h + 1:, :h + 1] = coef[h + 1:]
    out[:, h] *= 0.5
    out[h, :h + 1] = 0.5 * coef[h]
    out[m - h, :h] = 0.5 * coef[h, :h]
    return out


def full_width_physical_on(field: SpectralField, m: int) -> np.ndarray:
    return np.fft.irfft2(full_width_pad(field.coef, m), s=(m, m), norm="forward")


def full_width_multiply(a, b) -> np.ndarray:
    """Half spectrum of the dealiased product (or sum of products) by
    ``rfft2`` over the whole padded grid, then truncation."""
    if isinstance(a, SpectralField):
        a, b = (a,), (b,)
    n = a[0].grid.n
    m = pad_size(n)
    h = n // 2
    acc = full_width_physical_on(a[0], m) * full_width_physical_on(b[0], m)
    for x, y in zip(a[1:], b[1:]):
        acc += full_width_physical_on(x, m) * full_width_physical_on(y, m)
    spec = np.fft.rfft2(acc, norm="forward")
    out = np.zeros((n, h + 1), dtype=np.complex128)
    out[:h, :h] = spec[:h, :h]
    out[h + 1:, :h] = spec[m - h + 1:, :h]
    return out


def full_width_power_band(field: SpectralField, power: int) -> np.ndarray:
    """The folded band of ``field**power`` by ``rfft2`` over the whole
    m-grid, the power built in the same order of products."""
    h = field.grid.n // 2
    m = nice_fft_size((power + 1) * h + 2)
    values = full_width_physical_on(field, m)
    sampled = values if power == 1 else values * values
    for _ in range(power - 2):
        sampled *= values
    spec = np.fft.rfft2(sampled, norm="forward")
    band = np.concatenate((spec[:h + 1, :h + 1], spec[m - h + 1:, :h + 1]))
    band[h, :h] = 0.5 * (band[h, :h] + spec[m - h, :h])
    return band


# -- the per-radius maximal function -------------------------------------------


def window_mean(absvals: np.ndarray, radius: int) -> np.ndarray:
    """Mean of |f| over the periodic square window of half-width ``radius``,
    from its own wrap-padded prefix-sum table."""
    if radius == 0:
        return absvals
    side = 2 * radius + 1
    padded = np.pad(absvals, radius, mode="wrap")
    c = np.cumsum(np.cumsum(padded, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    n = absvals.shape[0]
    total = (c[side:side + n, side:side + n] - c[:n, side:side + n]
             - c[side:side + n, :n] + c[:n, :n])
    return total / side**2


def maximal_function_per_radius(values: np.ndarray) -> np.ndarray:
    """The dyadic maximal function with one table per half-width."""
    absvals = np.abs(np.asarray(values, dtype=np.float64))
    out = absvals.copy()
    for r in maximal_radii(absvals.shape[0])[1:]:
        np.maximum(out, window_mean(absvals, r), out=out)
    return out


def fefferman_stein_per_p(blocks, p: float, grid, r: float = 2.0) -> float:
    """The Fefferman-Stein ratio of one p, its block sums formed for it alone."""
    num = np.zeros_like(blocks[0])
    den = np.zeros_like(blocks[0])
    for g in blocks:
        num += maximal_function(g) ** r
        den += np.abs(g) ** r
    area = grid.length ** 2
    lhs = (np.mean(num ** (p / r)) * area) ** (1.0 / p)
    rhs = (np.mean(den ** (p / r)) * area) ** (1.0 / p)
    return float(lhs / rhs) if rhs > 0 else 0.0
