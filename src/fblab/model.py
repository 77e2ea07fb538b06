"""Time integration of the fractional Boussinesq system on the torus.

A state carries one of two tags:

``omega``   vorticity/temperature,
            d_t omega + u.grad omega + nu Lambda^alpha omega = d1 theta,
            d_t theta + u.grad theta + kappa Lambda^beta theta = 0,
            u = grad_perp Delta^{-1} omega.

``f``       hybrid variable f = omega - R_alpha (I + Lambda^(beta-alpha)) theta,
            d_t f + u.grad f + Lambda^alpha f
                = Lambda^(2(beta-alpha)) d1 theta
                  + [R_alpha, u.grad] theta
                  + [Lambda^(beta-2alpha) d1, u.grad] theta,
            with u = u_f + u_theta recovered from (f, theta).

The ``f`` tag also carries the rescaled hybrid system (the config word
``scaled``, meaning the ``f`` form with eps0 < 1): after
t -> eps0^beta t, x -> eps0 x each term picks up the power of eps0 in
:func:`hybrid_terms` and the velocity split is the rescaled one.  eps0
lives in :class:`ModelParams`, and eps0 = 1 gives the equation above.
:func:`nonlinear` is the one definition of these source terms.  It
evaluates the two temperature commutators as one, [C, u.grad] theta with
C the eps0-weighted sum of their operators, since a commutator is linear
in its operator.

Stepping the hybrid form requires nu = kappa = 1 (the change of
variables mixes the two dissipations); :func:`hybrid_terms` checks it.
An ``f`` state of any parameters can still be built and converted, which
the diagnostics of a vorticity run rely on.  Dissipation is integrated exactly through an
integrating-factor RK4 step; advection and source terms are treated
explicitly with alias-free products.

A single trajectory advances sequentially; independent trajectories
(parameter sweeps, seed families) share no mutable state and can run in
parallel freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .fields import SpectralField
from .grid import Grid
from .multipliers import Multiplier, apply_multiplier
from .norms import l2_norm_sq
from .operators import (Velocity, advect, biot_savart, check_alpha, commutator_apply,
                        require_mean_free, temperature_vorticity_operator)

FORMULATIONS = ("omega", "f")


class IntegrationBlowupError(RuntimeError):
    """Raised when the state stops being finite; carries diagnostics."""

    def __init__(self, time: float, detail: str):
        super().__init__(f"non-finite state at t={time:.6g}: {detail}")
        self.time = time
        self.detail = detail


class StabilityError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; beta is always 1 - alpha (critical coupling)."""

    alpha: float
    nu: float = 1.0
    kappa: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        check_alpha(self.alpha)
        for key, value in (("nu", self.nu), ("kappa", self.kappa)):
            if not 0 <= value < np.inf:  # also refuses NaN
                raise ValueError(f"{key} must be finite and nonnegative, got {value}")
        if not 0.0 < self.eps0 <= 1.0:
            raise ValueError(f"eps0 must lie in (0, 1], got {self.eps0}")

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha

    def require_unit_dissipation(self, context: str):
        if self.nu != 1.0 or self.kappa != 1.0:
            raise ValueError(f"{context} requires nu = kappa = 1")


@dataclass(frozen=True)
class SimState:
    time: float
    theta: SpectralField
    primary: SpectralField
    tag: str
    params: ModelParams

    def __post_init__(self):
        if self.tag not in FORMULATIONS:
            raise ValueError(f"unknown formulation tag {self.tag!r}")
        require_mean_free(self.theta, "temperature", tol=1e-10)
        require_mean_free(self.primary, "primary field", tol=1e-10)

    @property
    def grid(self) -> Grid:
        return self.theta.grid


# -- changes of variables -------------------------------------------------


def transform_to_g(omega: SpectralField, theta: SpectralField, alpha: float) -> SpectralField:
    """First-stage hybrid variable G = omega - R_alpha theta."""
    check_alpha(alpha)
    require_mean_free(omega, "vorticity")
    return omega - apply_multiplier(theta, Multiplier.riesz(alpha))


def transform_to_f(omega: SpectralField, theta: SpectralField, alpha: float) -> SpectralField:
    """Second-stage hybrid variable f = omega - R_alpha (I + Lambda^(beta-alpha)) theta."""
    check_alpha(alpha)
    require_mean_free(omega, "vorticity")
    return omega - apply_multiplier(theta, temperature_vorticity_operator(alpha))


def vorticity_from_f(f: SpectralField, theta: SpectralField, alpha: float) -> SpectralField:
    check_alpha(alpha)
    return f + apply_multiplier(theta, temperature_vorticity_operator(alpha))


def convert_state(state: SimState, tag: str) -> SimState:
    """Re-express the state in the other formulation at fixed theta."""
    if tag == state.tag:
        return state
    a = state.params.alpha
    if tag == "f":
        new = transform_to_f(state.primary, state.theta, a)
    else:
        new = vorticity_from_f(state.primary, state.theta, a)
    return replace(state, primary=new, tag=tag)


# -- velocity reconstruction ----------------------------------------------


def scaled_velocity_split(f: SpectralField, theta: SpectralField,
                          params: ModelParams) -> Tuple[Velocity, Velocity]:
    """Velocity split (U_F, U_Theta) of the hybrid formulation.

    u_f = grad_perp Delta^{-1} f carries the hybrid variable and
    u_theta = grad_perp Delta^{-1} R_alpha (I + Lambda^(beta-alpha)) theta
    the temperature.  Substituting t -> eps0^beta t, x -> eps0 x into the
    stream-function inversion gives U_F = eps0^{-1} grad_perp Delta^{-1} F
    and rescales the two temperature factors by eps0^{beta-1} and
    eps0^{2beta-alpha-1}; with eps0 = 1 the factors are 1.
    """
    a, b, e = params.alpha, params.beta, params.eps0
    require_mean_free(f, "hybrid variable")
    uf = biot_savart(f)
    uf = (uf[0] * (1.0 / e), uf[1] * (1.0 / e))
    riesz_part = apply_multiplier(theta, Multiplier.riesz(a)) * e ** (b - 1.0)
    tail_op = Multiplier.compose(Multiplier.partial(0), Multiplier.lambda_pow(b - 2 * a))
    tail_part = apply_multiplier(theta, tail_op) * e ** (2 * b - a - 1.0)
    contrib = riesz_part + tail_part
    ut = (apply_multiplier(contrib, Multiplier.inv_lap_perp_grad(0)),
          apply_multiplier(contrib, Multiplier.inv_lap_perp_grad(1)))
    return uf, ut


def state_velocity(state: SimState) -> Velocity:
    """Full advecting velocity for either formulation."""
    if state.tag == "omega":
        return biot_savart(state.primary)
    uf, ut = scaled_velocity_split(state.primary, state.theta, state.params)
    return uf[0] + ut[0], uf[1] + ut[1]


# -- right-hand sides -------------------------------------------------------


@dataclass(frozen=True)
class HybridTerms:
    """Terms of the hybrid equation with the power of eps0 each picks up
    under t -> eps0^beta t, x -> eps0 x (all weights are 1 when eps0 = 1).
    Each theta-driven source is a (weight, operator) pair."""

    advect: float
    dissipation: float
    linear: Tuple[float, Multiplier]        # Lambda^(2(beta-alpha)) d1 theta
    riesz_comm: Tuple[float, Multiplier]    # [R_alpha, u.grad] theta
    smooth_comm: Tuple[float, Multiplier]   # [Lambda^(beta-2alpha) d1, u.grad] theta

    def commutator(self) -> Multiplier:
        """w_rc R_alpha + w_sc Lambda^(beta-2alpha) d1: the commutator is
        linear in its operator, so one call gives both weighted terms."""
        (w_rc, riesz), (w_sc, smooth) = self.riesz_comm, self.smooth_comm
        return Multiplier.sum(riesz, smooth, weights=(w_rc, w_sc))


def hybrid_terms(params: ModelParams) -> HybridTerms:
    """The one table of hybrid weights and operators; the change of
    variables mixes the two dissipations, so it needs nu = kappa = 1."""
    params.require_unit_dissipation("the hybrid formulation")
    a, b, e = params.alpha, params.beta, params.eps0
    return HybridTerms(
        advect=e ** a,
        dissipation=e ** (a - b),
        linear=(e ** (2.0 - 3.0 * a),
                Multiplier.compose(Multiplier.lambda_pow(2 * (b - a)), Multiplier.partial(0))),
        riesz_comm=(e, Multiplier.riesz(a)),
        smooth_comm=(e ** (2.0 * b),
                     Multiplier.compose(Multiplier.lambda_pow(b - 2 * a), Multiplier.partial(0))),
    )


def nonlinear(state: SimState, u: Optional[Velocity] = None) -> Tuple[SpectralField, SpectralField]:
    """Everything except the stiff fractional dissipation.

    ``u`` is the state's velocity if the caller has already built it.  In
    the ``f`` form the two temperature commutators are evaluated as one,
    with the merged operator of :meth:`HybridTerms.commutator`, and the
    commutator reuses u.grad theta of the temperature equation.
    """
    if u is None:
        u = state_velocity(state)
    if state.tag == "omega":
        dP = -advect(u, state.primary) + apply_multiplier(state.theta, Multiplier.partial(0))
        dT = -advect(u, state.theta)
        return dP, dT
    h, th = hybrid_terms(state.params), state.theta
    w_lin, lin = h.linear
    transported = advect(u, th)
    dP = (-h.advect * advect(u, state.primary)
          + w_lin * apply_multiplier(th, lin)
          + commutator_apply(h.commutator(), u, th, transported))
    dT = -h.advect * transported
    return dP, dT


def _dissipation_rates(state: SimState) -> Tuple[float, float, float, float]:
    """(coefficient, order) pairs for the primary field and theta."""
    p = state.params
    if state.tag == "omega":
        return p.nu, p.alpha, p.kappa, p.beta
    return hybrid_terms(p).dissipation, p.alpha, 1.0, p.beta


def rhs(state: SimState) -> Tuple[SpectralField, SpectralField]:
    """Full tendencies (d primary/dt, d theta/dt) in the state's formulation."""
    dP, dT = nonlinear(state)
    cP, ordP, cT, ordT = _dissipation_rates(state)
    return (dP - cP * apply_multiplier(state.primary, Multiplier.lambda_pow(ordP)),
            dT - cT * apply_multiplier(state.theta, Multiplier.lambda_pow(ordT)))


# -- integrating-factor RK4 --------------------------------------------------


def cfl_limit(state: SimState, c: float = 0.4, u: Optional[Velocity] = None) -> float:
    """dt bound c * min(dx / ||u||_inf, dx^alpha); ``u`` is the state's
    velocity if the caller has already built it."""
    dx = state.grid.dx
    if u is None:
        u = state_velocity(state)
    umax = max(float(np.max(np.abs(u[0].physical()))), float(np.max(np.abs(u[1].physical()))))
    advective = dx / umax if umax > 0 else np.inf
    return c * min(advective, dx ** state.params.alpha)


def _check_finite(state: SimState):
    for name, fld in (("theta", state.theta), ("primary", state.primary)):
        if not np.all(np.isfinite(fld.coef)):
            raise IntegrationBlowupError(state.time, f"{name} coefficients are not finite")


def step(state: SimState, dt: float, cfl_c: float = 0.4, enforce_cfl: bool = True,
         accumulators: Optional[Dict[str, Callable[[SimState], float]]] = None,
         totals: Optional[Dict[str, float]] = None) -> SimState:
    """One integrating-factor RK4 step.

    The linear dissipation is propagated exactly by exp(-dt c |k|^order)
    on each component; the remaining terms go through classical RK4.
    Optional accumulators integrate scalar functionals of the four stage
    states alongside (RK4-consistent quadrature), adding into ``totals``.

    Negative dt is allowed only when both dissipation coefficients are
    zero (the inviscid substep is time-reversible; the dissipative
    propagator is not).
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if dt < 0 and (state.params.nu != 0 or state.params.kappa != 0):
        raise ValueError("backward steps are only meaningful for the inviscid system")
    _check_finite(state)
    u0 = None
    if enforce_cfl:
        u0 = state_velocity(state)  # shared with stage 1
        limit = cfl_limit(state, cfl_c, u0)
        if abs(dt) > limit * (1 + 1e-9):
            raise StabilityError(f"dt={dt:g} exceeds the advective/dissipative guard {limit:g}")

    grid = state.grid
    cP, ordP, cT, ordT = _dissipation_rates(state)
    eP_half = np.exp(-0.5 * dt * cP * grid.kmag**ordP)
    eT_half = np.exp(-0.5 * dt * cT * grid.kmag**ordT)
    eP_full = eP_half**2
    eT_full = eT_half**2

    def wrap(pc, tc, t) -> SimState:
        return SimState(t, SpectralField(grid, tc), SpectralField(grid, pc), state.tag, state.params)

    def prop(coef_pair, half: bool):
        ep = eP_half if half else eP_full
        et = eT_half if half else eT_full
        return coef_pair[0] * ep, coef_pair[1] * et

    p0, t0 = state.primary.coef, state.theta.coef
    s0 = state

    k1 = nonlinear(s0, u0)
    del u0  # its samples are not held through stages 2-4
    a_p, a_t = prop((p0 + 0.5 * dt * k1[0].coef, t0 + 0.5 * dt * k1[1].coef), half=True)
    s_a = wrap(a_p, a_t, state.time + 0.5 * dt)

    k2 = nonlinear(s_a)
    hp, ht = prop((p0, t0), half=True)
    s_b = wrap(hp + 0.5 * dt * k2[0].coef, ht + 0.5 * dt * k2[1].coef, state.time + 0.5 * dt)

    k3 = nonlinear(s_b)
    k3p_half, k3t_half = prop((k3[0].coef, k3[1].coef), half=True)
    fp, ft = prop((p0, t0), half=False)
    s_c = wrap(fp + dt * k3p_half, ft + dt * k3t_half, state.time + dt)

    k4 = nonlinear(s_c)
    k1p_full, k1t_full = prop((k1[0].coef, k1[1].coef), half=False)
    k2p_half, k2t_half = prop((k2[0].coef, k2[1].coef), half=True)
    new_p = fp + dt / 6.0 * (k1p_full + 2.0 * k2p_half + 2.0 * k3p_half + k4[0].coef)
    new_t = ft + dt / 6.0 * (k1t_full + 2.0 * k2t_half + 2.0 * k3t_half + k4[1].coef)

    out = wrap(new_p, new_t, state.time + dt)
    _check_finite(out)

    if accumulators and totals is not None:
        for name, func in accumulators.items():
            vals = [func(s) for s in (s0, s_a, s_b, s_c)]
            totals[name] = totals.get(name, 0.0) + dt / 6.0 * (vals[0] + 2 * vals[1] + 2 * vals[2] + vals[3])
    return out


@dataclass
class Trajectory:
    """States stored at the output cadence, plus accumulated integrals."""

    states: List[SimState]
    integrals: List[Dict[str, float]] = dc_field(default_factory=list)

    @property
    def times(self) -> List[float]:
        return [s.time for s in self.states]

    def final(self) -> SimState:
        return self.states[-1]


def integrate(state: SimState, t_end: float, dt: float | None = None, cfl_c: float = 0.4,
              cadence: int = 1,
              accumulators: Optional[Dict[str, Callable[[SimState], float]]] = None) -> Trajectory:
    """Advance to t_end, storing every ``cadence``-th state (and always the last)."""
    if dt is None:
        dt = cfl_limit(state, cfl_c)
        if not np.isfinite(dt) or dt <= 0:
            raise StabilityError("could not derive a time step from the CFL guard")
    n_steps = max(1, int(math.ceil((t_end - state.time) / dt - 1e-12)))
    dt = (t_end - state.time) / n_steps
    totals: Dict[str, float] = {name: 0.0 for name in (accumulators or {})}
    traj = Trajectory(states=[state], integrals=[dict(totals)])
    current = state
    for i in range(n_steps):
        current = step(current, dt, cfl_c=cfl_c, accumulators=accumulators, totals=totals)
        if (i + 1) % cadence == 0 or i == n_steps - 1:
            traj.states.append(current)
            traj.integrals.append(dict(totals))
    return traj


# -- standard accumulators ---------------------------------------------------


def theta_dissipation_rate(state: SimState) -> float:
    half = apply_multiplier(state.theta, Multiplier.lambda_pow(state.params.beta / 2.0))
    return l2_norm_sq(half)


def velocity_dissipation_rate(state: SimState) -> float:
    u = state_velocity(state)
    lam = Multiplier.lambda_pow(state.params.alpha / 2.0)
    return l2_norm_sq(apply_multiplier(u[0], lam)) + l2_norm_sq(apply_multiplier(u[1], lam))


# -- initial data -------------------------------------------------------------


def initial_state(grid: Grid, params: ModelParams, formulation: str = "omega",
                  kind: str = "random", seed: int = 0, amplitude_theta: float = 0.5,
                  amplitude_primary: float = 0.5, decay: float = 4.0,
                  band: Tuple[int, int] | None = None) -> SimState:
    """Seeded random data with prescribed spectral decay, or deterministic
    Gaussian bump pairs; always dealias-safe and mean-free."""
    from .ensembles import gaussian_bump_field, gaussian_dipole_field, random_scalar_field

    if kind == "random":
        if band is None:
            band = (0, max(2, int(math.log2(grid.n // 6))))
        theta = random_scalar_field(grid, _seed_int(seed, "theta"), band, decay, amplitude_theta)
        omega = random_scalar_field(grid, _seed_int(seed, "omega"), band, decay, amplitude_primary)
    elif kind == "bumps":
        scale = grid.length / (2 * np.pi)
        width = 0.45 * scale
        theta = gaussian_bump_field(grid, (0.45 * grid.length, 0.40 * grid.length), width, amplitude_theta)
        omega = gaussian_dipole_field(grid, (0.55 * grid.length, 0.60 * grid.length),
                                      1.2 * width, width, amplitude_primary)
    else:
        raise ValueError(f"unknown initial-data kind {kind!r}")
    state = SimState(0.0, theta, omega, "omega", params)
    target = "f" if formulation == "scaled" else formulation
    return convert_state(state, target)


def _seed_int(seed: int, label: str) -> int:
    return (int(seed) * 1000003 + sum(ord(c) for c in label)) % (2**63)
