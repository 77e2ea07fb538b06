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
t -> eps0^beta t, x -> eps0 x each term picks up a power of eps0.  eps0
lives in :class:`ModelParams`, and eps0 = 1 gives the equation above.
:class:`HybridTerms` is the one place the hybrid algebra is written: the
eps0 weights, the operator V of the change of variables and of the
velocity, the velocity rows and the ledger's coercivity weight.
:func:`nonlinear` is the one definition of the source terms.  It
evaluates the two temperature commutators as one, [C, u.grad] theta with
C the eps0-weighted sum of their operators, since a commutator is linear
in its operator.  Transport is linear in the transported field, so the
advection of f rides in the commutator's second advection:

    -a u.grad f + [C, u.grad] theta = C(u.grad theta) - u.grad(C theta + a f),

and u.grad theta is the temperature equation's own transport term.  A
stage costs two advections.

Stepping the hybrid form requires nu = kappa = 1 (the change of
variables mixes the two dissipations); :func:`_dissipation_rates` checks
it.  An ``f`` state of any parameters can still be built, converted and
given its velocity, which the diagnostics of a vorticity run rely on.
Dissipation is integrated exactly through an integrating-factor RK4
step; advection and source terms are treated explicitly with alias-free
products.  The symbols a stage uses, the :class:`HybridTerms` table and
the four propagators of the step are built once per :func:`integrate`
call (:class:`StepOperators`) and dropped with it.  :func:`integrate`
yields each stored state as it is reached and keeps only the current
one; a stage or step state that stops being finite or mean-free raises
:class:`IntegrationBlowupError`.

A single trajectory advances sequentially; independent trajectories
(parameter sweeps, seed families) share no mutable state and can run in
parallel freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from .fields import SpectralField
from .grid import Grid
from .multipliers import Multiplier, SymbolTable, apply_multiplier
from .operators import (MeanFreeError, Velocity, advect, biot_savart, commutator_apply,
                        require_mean_free)
from .ranges import check

FORMULATIONS = ("omega", "f")


class IntegrationBlowupError(RuntimeError):
    """Raised when a state stops being finite or mean-free; carries diagnostics."""

    def __init__(self, time: float, detail: str):
        super().__init__(f"blowup at t={time:.6g}: {detail}")
        self.time = time
        self.detail = detail


class StabilityError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters (ranges: :mod:`fblab.ranges`); beta = 1 - alpha (critical)."""

    alpha: float
    nu: float = 1.0
    kappa: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        check(vars(self))

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


# -- the hybrid algebra ------------------------------------------------------


@dataclass(frozen=True)
class HybridTerms:
    """The one table of the hybrid algebra: each term of the hybrid
    equation, the velocity split and the ledger's coercivity weight, with
    the power of eps0 each picks up under t -> eps0^beta t, x -> eps0 x
    (all weights are 1 when eps0 = 1).  Each theta-driven source is a
    (weight, operator) pair.  The velocity is u = U_F + U_Theta, with
    U_F = w_f grad_perp Delta^{-1} F, U_Theta = grad_perp Delta^{-1} V Theta and
    V = eps0^(beta-1) R_alpha + eps0^(2beta-alpha-1) Lambda^(beta-2alpha) d1.
    At eps0 = 1, V = R_alpha (I + Lambda^(beta-alpha)) is the operator of
    the change of variables f = omega - V theta."""

    advect: float
    dissipation: float
    linear: Tuple[float, Multiplier]        # Lambda^(2(beta-alpha)) d1 theta
    riesz_comm: Tuple[float, Multiplier]    # [R_alpha, u.grad] theta
    smooth_comm: Tuple[float, Multiplier]   # [Lambda^(beta-2alpha) d1, u.grad] theta
    w_f: float                              # eps0^-1
    v: Multiplier                           # V, whose smooth part is smooth_comm's operator
    u_theta: Tuple[Multiplier, Multiplier]  # the two components of grad_perp Delta^{-1} V
    coercivity: float                       # eps0^(2alpha-1) of the ledger's lower bound

    def commutator(self) -> Multiplier:
        """w_rc R_alpha + w_sc Lambda^(beta-2alpha) d1: the commutator is
        linear in its operator, so one call gives both weighted terms."""
        (w_rc, riesz), (w_sc, smooth) = self.riesz_comm, self.smooth_comm
        return Multiplier.sum(riesz, smooth, weights=(w_rc, w_sc))


def hybrid_terms(params: ModelParams) -> HybridTerms:
    """The :class:`HybridTerms` of ``params``, for any nu and kappa: only
    stepping the hybrid form needs nu = kappa = 1 (:func:`_dissipation_rates`)."""
    a, b, e = params.alpha, params.beta, params.eps0
    riesz = Multiplier.riesz(a)
    smooth = Multiplier.compose(Multiplier.lambda_pow(b - 2 * a), Multiplier.partial(0))
    v = Multiplier.sum(riesz, smooth, weights=(e ** (b - 1.0), e ** (2 * b - a - 1.0)))
    return HybridTerms(
        advect=e ** a,
        dissipation=e ** (a - b),
        linear=(e ** (2.0 - 3.0 * a),
                Multiplier.compose(Multiplier.lambda_pow(2 * (b - a)), Multiplier.partial(0))),
        riesz_comm=(e, riesz),
        smooth_comm=(e ** (2.0 * b), smooth),
        w_f=1.0 / e,
        v=v,
        u_theta=tuple(Multiplier.compose(Multiplier.inv_lap_perp_grad(i), v) for i in (0, 1)),
        coercivity=e ** (2 * a - 1),
    )


# -- changes of variables -------------------------------------------------


def transform_to_g(omega: SpectralField, theta: SpectralField, alpha: float) -> SpectralField:
    """First-stage hybrid variable G = omega - R_alpha theta."""
    check({"alpha": alpha})
    require_mean_free(omega, "vorticity")
    return omega - apply_multiplier(theta, Multiplier.riesz(alpha))


def transform_to_f(omega: SpectralField, theta: SpectralField, alpha: float,
                   symbols: Optional[SymbolTable] = None) -> SpectralField:
    """Second-stage hybrid variable f = omega - V theta, V of
    :class:`HybridTerms` at eps0 = 1; symbols come from ``symbols`` if given."""
    require_mean_free(omega, "vorticity")
    return omega - apply_multiplier(theta, hybrid_terms(ModelParams(alpha)).v, symbols)


def vorticity_from_f(f: SpectralField, theta: SpectralField, alpha: float,
                     symbols: Optional[SymbolTable] = None) -> SpectralField:
    return f + apply_multiplier(theta, hybrid_terms(ModelParams(alpha)).v, symbols)


def convert_state(state: SimState, tag: str, symbols: Optional[SymbolTable] = None) -> SimState:
    """Re-express the state in the other formulation at fixed theta."""
    if tag == state.tag:
        return state
    convert = transform_to_f if tag == "f" else vorticity_from_f
    return replace(state, primary=convert(state.primary, state.theta, state.params.alpha, symbols),
                   tag=tag)


# -- velocity reconstruction ----------------------------------------------


def scaled_velocity_split(f: SpectralField, theta: SpectralField, h: HybridTerms,
                          symbols: Optional[SymbolTable] = None) -> Tuple[Velocity, Velocity]:
    """Velocity split (U_F, U_Theta) of the hybrid formulation, the rows of
    the caller's :class:`HybridTerms` ``h``: four applies.  Symbols come
    from ``symbols`` if given."""
    return u_f(f, h, symbols), tuple(apply_multiplier(theta, op, symbols) for op in h.u_theta)


def u_f(f: SpectralField, h: HybridTerms, symbols: Optional[SymbolTable] = None) -> Velocity:
    """U_F = w_f grad_perp Delta^{-1} F alone."""
    require_mean_free(f, "hybrid variable")
    return tuple(h.w_f * c for c in biot_savart(f, symbols))


def state_velocity(state: SimState, symbols: Optional[SymbolTable] = None,
                   terms: Optional[HybridTerms] = None) -> Velocity:
    """Full advecting velocity for either formulation; in the ``f`` form
    u = grad_perp Delta^{-1}(w_f f + V theta), three applies.  ``terms`` is
    the state's :class:`HybridTerms` if the caller has built it."""
    if state.tag == "omega":
        return biot_savart(state.primary, symbols)
    h = terms or hybrid_terms(state.params)
    return biot_savart(h.w_f * state.primary + apply_multiplier(state.theta, h.v, symbols), symbols)


# -- right-hand sides -------------------------------------------------------


def nonlinear(state: SimState, u: Optional[Velocity] = None,
              symbols: Optional[SymbolTable] = None,
              terms: Optional[HybridTerms] = None) -> Tuple[SpectralField, SpectralField]:
    """Everything except the stiff fractional dissipation.

    ``u`` and ``terms`` are the state's velocity and :class:`HybridTerms`
    if the caller has already built them, and symbols come from
    ``symbols`` if given.  In the ``f`` form the two temperature
    commutators are evaluated as one, with the merged operator C of
    :meth:`HybridTerms.commutator`; the commutator reuses T = u.grad theta
    of the temperature equation and carries a f, a the advection weight,
    through its second advection:
    -a u.grad f + [C, u.grad] theta = C T - u.grad(C theta + a f).
    Two advections a call.
    """
    if u is None:
        u = state_velocity(state, symbols, terms)
    th = state.theta
    if state.tag == "omega":
        dP = (-advect(u, state.primary, symbols)
              + apply_multiplier(th, Multiplier.partial(0), symbols))
        dT = -advect(u, th, symbols)
        return dP, dT
    h = terms or hybrid_terms(state.params)
    w_lin, lin = h.linear
    transported = advect(u, th, symbols)
    dP = (w_lin * apply_multiplier(th, lin, symbols)
          + commutator_apply(h.commutator(), u, th, transported,
                             carry=h.advect * state.primary, symbols=symbols))
    dT = -h.advect * transported
    return dP, dT


def _dissipation_rates(state: SimState, h: HybridTerms) -> Tuple[float, float, float, float]:
    """(coefficient, order) pairs for the primary field and theta."""
    p = state.params
    if state.tag == "omega":
        return p.nu, p.alpha, p.kappa, p.beta
    p.require_unit_dissipation("the hybrid formulation")
    return h.dissipation, p.alpha, 1.0, p.beta


def rhs(state: SimState) -> Tuple[SpectralField, SpectralField]:
    """Full tendencies (d primary/dt, d theta/dt) in the state's formulation."""
    h = hybrid_terms(state.params)
    dP, dT = nonlinear(state, terms=h)
    cP, ordP, cT, ordT = _dissipation_rates(state, h)
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


def _check_finite(time: float, theta: np.ndarray, primary: np.ndarray):
    for name, coef in (("theta", theta), ("primary", primary)):
        if not np.all(np.isfinite(coef)):
            raise IntegrationBlowupError(time, f"{name} coefficients are not finite")


@dataclass(frozen=True)
class StepOperators:
    """What every step of one run reuses, built once per (grid, params,
    tag, dt): the table of the stages' symbols, each built on first use,
    the :class:`HybridTerms` of the params, and the four
    integrating-factor propagators exp(-dt c |k|^order), for the primary
    field and theta over half and full steps."""

    key: Tuple
    symbols: SymbolTable
    terms: HybridTerms
    half: Tuple[np.ndarray, np.ndarray]
    full: Tuple[np.ndarray, np.ndarray]


def step_operators(state: SimState, dt: float,
                   symbols: Optional[SymbolTable] = None) -> StepOperators:
    """The :class:`StepOperators` of steps of size dt from states like
    ``state``, on the table ``symbols`` if the caller shares one."""
    grid = state.grid
    terms = hybrid_terms(state.params)
    cP, ordP, cT, ordT = _dissipation_rates(state, terms)
    half = (np.exp(-0.5 * dt * cP * grid.kmag**ordP), np.exp(-0.5 * dt * cT * grid.kmag**ordT))
    full = (half[0]**2, half[1]**2)
    for arr in (*half, *full):
        arr.setflags(write=False)
    key = (grid, state.params, state.tag, dt)
    return StepOperators(key, symbols or SymbolTable(grid), terms, half, full)


def step(state: SimState, dt: float, cfl_c: float = 0.4,
         accumulators: Optional[Dict[str, Callable[[SimState], float]]] = None,
         totals: Optional[Dict[str, float]] = None,
         operators: Optional[StepOperators] = None) -> SimState:
    """One integrating-factor RK4 step.

    The linear dissipation is propagated exactly by exp(-dt c |k|^order)
    on each component; the remaining terms go through classical RK4.
    Optional accumulators integrate scalar functionals of the four stage
    states alongside (RK4-consistent quadrature), adding into ``totals``.
    ``operators`` are the :func:`step_operators` of (state, dt) that the
    caller reuses across steps; a call without them builds its own.  A dt
    above :func:`cfl_limit` raises StabilityError; the velocity the guard
    measures is stage 1's.

    Negative dt is allowed only when both dissipation coefficients are
    zero (the inviscid substep is time-reversible; the dissipative
    propagator is not).
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if dt < 0 and (state.params.nu != 0 or state.params.kappa != 0):
        raise ValueError("backward steps are only meaningful for the inviscid system")
    if operators is None:
        operators = step_operators(state, dt)
    elif operators.key != (state.grid, state.params, state.tag, dt):
        raise ValueError("step operators were built for another grid, model, formulation or dt")
    symbols, terms = operators.symbols, operators.terms
    _check_finite(state.time, state.theta.coef, state.primary.coef)
    u0 = state_velocity(state, symbols, terms)  # shared with stage 1
    limit = cfl_limit(state, cfl_c, u0)
    if abs(dt) > limit * (1 + 1e-9):
        raise StabilityError(f"dt={dt:g} exceeds the advective/dissipative guard {limit:g}")

    grid = state.grid

    def wrap(pc, tc, t) -> SimState:
        """A stage or step state; one that is not finite or not mean-free is a blowup."""
        _check_finite(t, tc, pc)
        try:
            return SimState(t, SpectralField(grid, tc), SpectralField(grid, pc), state.tag, state.params)
        except MeanFreeError as exc:
            raise IntegrationBlowupError(t, str(exc)) from exc

    def prop(coef_pair, half: bool):
        ep, et = operators.half if half else operators.full
        return coef_pair[0] * ep, coef_pair[1] * et

    p0, t0 = state.primary.coef, state.theta.coef
    s0 = state

    k1 = nonlinear(s0, u0, symbols, terms)
    del u0  # its samples are not held through stages 2-4
    a_p, a_t = prop((p0 + 0.5 * dt * k1[0].coef, t0 + 0.5 * dt * k1[1].coef), half=True)
    s_a = wrap(a_p, a_t, state.time + 0.5 * dt)

    k2 = nonlinear(s_a, symbols=symbols, terms=terms)
    hp, ht = prop((p0, t0), half=True)
    s_b = wrap(hp + 0.5 * dt * k2[0].coef, ht + 0.5 * dt * k2[1].coef, state.time + 0.5 * dt)

    k3 = nonlinear(s_b, symbols=symbols, terms=terms)
    k3p_half, k3t_half = prop((k3[0].coef, k3[1].coef), half=True)
    fp, ft = prop((p0, t0), half=False)
    s_c = wrap(fp + dt * k3p_half, ft + dt * k3t_half, state.time + dt)

    k4 = nonlinear(s_c, symbols=symbols, terms=terms)
    k1p_full, k1t_full = prop((k1[0].coef, k1[1].coef), half=False)
    k2p_half, k2t_half = prop((k2[0].coef, k2[1].coef), half=True)
    new_p = fp + dt / 6.0 * (k1p_full + 2.0 * k2p_half + 2.0 * k3p_half + k4[0].coef)
    new_t = ft + dt / 6.0 * (k1t_full + 2.0 * k2t_half + 2.0 * k3t_half + k4[1].coef)

    out = wrap(new_p, new_t, state.time + dt)

    if accumulators and totals is not None:
        for name, func in accumulators.items():
            vals = [func(s) for s in (s0, s_a, s_b, s_c)]
            totals[name] = totals.get(name, 0.0) + dt / 6.0 * (vals[0] + 2 * vals[1] + 2 * vals[2] + vals[3])
    return out


def step_count(t_span: float, dt: float) -> int:
    """Steps :func:`integrate` takes over ``t_span`` for a requested ``dt``,
    which it then shrinks to ``t_span / steps``."""
    return max(1, int(math.ceil(t_span / dt - 1e-12)))


def integrate(state: SimState, t_end: float, dt: float | None = None, cfl_c: float = 0.4,
              cadence: int = 1, accumulators: Optional[Dict[str, Callable[[SimState], float]]] = None,
              symbols: Optional[SymbolTable] = None) -> Iterator[Tuple[SimState, Dict[str, float]]]:
    """Advance to t_end, yielding the start and every ``cadence``-th state
    (and always the last), each with a copy of the accumulated totals at
    its time.  Every step reuses one :class:`StepOperators`, on ``symbols``
    if the caller shares its table; only the current state is kept."""
    if dt is None:
        dt = cfl_limit(state, cfl_c)
        if not np.isfinite(dt) or dt <= 0:
            raise StabilityError("could not derive a time step from the CFL guard")
    n_steps = step_count(t_end - state.time, dt)
    dt = (t_end - state.time) / n_steps
    totals: Dict[str, float] = {name: 0.0 for name in (accumulators or {})}
    operators = step_operators(state, dt, symbols)
    yield state, dict(totals)
    for i in range(n_steps):
        state = step(state, dt, cfl_c=cfl_c, accumulators=accumulators, totals=totals,
                     operators=operators)
        if (i + 1) % cadence == 0 or i == n_steps - 1:
            yield state, dict(totals)


# -- initial data -------------------------------------------------------------


def initial_state(grid: Grid, params: ModelParams, formulation: str = "omega",
                  kind: str = "random", seed: int = 0, amplitude_theta: float = 0.5,
                  amplitude_primary: float = 0.5, decay: float = 4.0) -> SimState:
    """Seeded random data with prescribed spectral decay, or deterministic
    Gaussian bump pairs; always dealias-safe and mean-free."""
    from .ensembles import gaussian_bump_field, gaussian_dipole_field, random_scalar_field

    check({"init": kind})
    if kind == "random":
        band = (0, max(2, int(math.log2(grid.n // 6))))
        theta = random_scalar_field(grid, _seed_int(seed, "theta"), band, decay, amplitude_theta)
        omega = random_scalar_field(grid, _seed_int(seed, "omega"), band, decay, amplitude_primary)
    else:
        scale = grid.length / (2 * np.pi)
        width = 0.45 * scale
        theta = gaussian_bump_field(grid, (0.45 * grid.length, 0.40 * grid.length), width, amplitude_theta)
        omega = gaussian_dipole_field(grid, (0.55 * grid.length, 0.60 * grid.length),
                                      1.2 * width, width, amplitude_primary)
    state = SimState(0.0, theta, omega, "omega", params)
    target = "f" if formulation == "scaled" else formulation
    return convert_state(state, target)


def _seed_int(seed: int, label: str) -> int:
    return (int(seed) * 1000003 + sum(ord(c) for c in label)) % (2**63)
