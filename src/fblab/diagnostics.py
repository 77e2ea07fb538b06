"""Energy ledgers and regularity-criterion monitors.

For a state of the scaled hybrid system, :func:`energy_terms` evaluates,
by exact quadrature, every term appearing when the equations are paired
against Lambda^(2s) F, Lambda^(2 kappa) Theta and F|F|^(p-2):

    I1 = eps^alpha       |< Lambda^s (U.grad F), Lambda^s F >|
    I2 = eps^(2-3 alpha) |< Lambda^(2(beta-alpha)+s) d1 Theta, Lambda^s F >|
    I3 = eps             |< Lambda^s [R_alpha, U.grad] Theta, Lambda^s F >|
    I4 = eps^(2 beta)    |< Lambda^s [Lambda^(beta-2alpha) d1, U.grad] Theta, Lambda^s F >|
    I5 = eps^alpha       |< Lambda^kappa (U.grad Theta), Lambda^kappa Theta >|
    K1..K3 = the same theta-driven terms paired with F|F|^(p-2)

together with the coercive quantities on the left (the Lambda^(s+alpha/2)
and Lambda^(kappa+beta/2) energies, and the signed integral
int F|F|^(p-2) Lambda^alpha F, which is nonnegative).  Rates of the
tracked functionals are centered finite differences of stored values, so
the ledger never re-enters the integrator.

The eps0 weights and the source operators are those of
:func:`fblab.model.nonlinear` (one table, ``hybrid_terms``), so the
ledger and the integrator cannot drift apart; ``test_substitution_oracle``
checks those weights independently, by rescaling a state and comparing
tendencies.

Every velocity-dependent term is also split through u = u_F + u_Theta.
The full-velocity terms are computed on their own, not summed from the
splits; the commutator is linear in the velocity, so the signed splits
add back to the full term up to roundoff.

Ledger evaluation is independent per time slice (rates come from stored
functional values), so slices parallelize trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fields import SpectralField, nice_fft_size
from .model import SimState, Trajectory, convert_state, hybrid_terms, scaled_velocity_split
from .multipliers import Multiplier, apply_multiplier
from .norms import inner, integral_product, l2_norm_sq, lp_norm
from .operators import advect, commutator_apply, gradient
from .dyadic import besov_norm

DEFAULT_RHO = 0.01


# -- exponent arithmetic ----------------------------------------------------


@dataclass(frozen=True)
class ExponentSuite:
    """All derived exponents used by the ledger configurations."""

    alpha: float
    rho: float = DEFAULT_RHO

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha

    @property
    def gamma(self) -> float:
        """beta/2 - 2 rho, the low-level temperature regularity."""
        return self.beta / 2.0 - 2.0 * self.rho

    @property
    def interpolation_a(self) -> float:
        """(3 - 4 alpha) / (2 beta)."""
        return (3.0 - 4.0 * self.alpha) / (2.0 * self.beta)

    @property
    def q0(self) -> float:
        """4(2 alpha - 1) / (3 alpha beta + 6 alpha - 4)."""
        a, b = self.alpha, self.beta
        return 4.0 * (2.0 * a - 1.0) / (3.0 * a * b + 6.0 * a - 4.0)

    @property
    def delta(self) -> float:
        """(3 - 4 alpha) / (alpha / 2); lies in (0, 1) only for alpha in (2/3, 3/4)."""
        return (3.0 - 4.0 * self.alpha) / (self.alpha / 2.0)

    @property
    def besov_smoothness(self) -> float:
        return 3.0 * self.alpha - 2.0

    @property
    def besov_integrability(self) -> float:
        return 6.0 / (3.0 * self.alpha - 2.0)

    def validity(self) -> Dict[str, bool]:
        """Range checks tied to alpha > 2/3 (delta's claim belongs to the
        sub-case 3 - 4 alpha > 0, i.e. alpha < 3/4; above that the case
        switches and the sign flips)."""
        a = self.alpha
        out = {
            "alpha_above_two_thirds": a > 2.0 / 3.0,
            "q0_at_least_one": self.q0 >= 1.0,
            "criterion_exponent_in_range": 2.0 / a < 6.0 < 2.0 / (1.0 - a),
        }
        if a < 0.75:
            out["delta_in_unit_interval"] = 0.0 < self.delta < 1.0
        else:
            out["case_switch_nonpositive"] = 3.0 - 4.0 * a <= 0.0
        return out


# -- ledger configurations ----------------------------------------------------


@dataclass(frozen=True)
class LedgerConfig:
    config_id: str
    s: float
    kappa: float
    p: int


def ledger_configs(alpha: float, rho: float = DEFAULT_RHO) -> Dict[str, LedgerConfig]:
    """The three bootstrap configurations, plus swapped (s, kappa)
    variants: either assignment of the two derivative weights yields a
    valid ledger identity, so both are exposed."""
    ex = ExponentSuite(alpha, rho)
    b = ex.beta
    cfgs = [
        LedgerConfig("l2", ex.gamma, 0.0, 2),
        LedgerConfig("l2_swap", 0.0, ex.gamma, 2),
        LedgerConfig("l4", 1.5 * b, alpha / 2.0, 4),
        LedgerConfig("l4_swap", alpha / 2.0, 1.5 * b, 4),
        LedgerConfig("l6", (1.0 + b) / 2.0, 2.5 * b, 6),
    ]
    return {c.config_id: c for c in cfgs}


ACCEPTANCE_CONFIG_IDS = ("l2", "l4", "l6")


# -- term evaluation -----------------------------------------------------------


def _lam(field: SpectralField, s: float) -> SpectralField:
    if s == 0.0:
        return field
    return apply_multiplier(field, Multiplier.lambda_pow(s))


def _signed_pair_L2(term: SpectralField, target: SpectralField, s: float) -> float:
    return inner(_lam(term, s), _lam(target, s))


def _signed_pair_power(term: SpectralField, f: SpectralField, p: int) -> float:
    return integral_product(term, f, p - 1)


@dataclass
class EnergyLedgerRow:
    """One evaluated time slice of one ledger configuration."""

    t: float
    config_id: str
    functionals: Dict[str, float]
    dissipation: Dict[str, float]
    terms: Dict[str, float]          # absolute values, I1..I5, K1..K3
    signed: Dict[str, float]         # signed pairings, including the splits
    lhs_rate: Dict[str, float] = dc_field(default_factory=dict)
    verdicts: Dict[str, bool] = dc_field(default_factory=dict)
    tolerance: Dict[str, float] = dc_field(default_factory=dict)
    coercivity_ratio: float = float("nan")


def energy_terms(state: SimState, s: float, kappa: float, p: int) -> EnergyLedgerRow:
    """Evaluate every ledger term for one state by direct quadrature."""
    if p % 2 or p < 2:
        raise ValueError("the L^p pairing keeps the integrand polynomial; p must be even")
    if s < 0 or kappa < 0:
        raise ValueError("derivative weights must be nonnegative")
    if state.tag != "f":
        raise ValueError("the ledger runs on hybrid-formulation states")
    params = state.params
    a, b, e = params.alpha, params.beta, params.eps0
    h = hybrid_terms(params)
    (w_lin, lin), (w_rc, riesz), (w_sc, smooth) = h.linear, h.riesz_comm, h.smooth_comm
    F, Th = state.primary, state.theta

    uf, ut = scaled_velocity_split(F, Th, params)
    u_full = (uf[0] + ut[0], uf[1] + ut[1])
    velocities = {"": u_full, "_f": uf, "_t": ut}
    linear_term = apply_multiplier(Th, lin)

    signed: Dict[str, float] = {}
    for suffix, u in velocities.items():
        riesz_comm = commutator_apply(riesz, u, Th)
        smooth_comm = commutator_apply(smooth, u, Th)
        signed[f"I1{suffix}"] = h.advect * _signed_pair_L2(advect(u, F), F, s)
        signed[f"I3{suffix}"] = w_rc * _signed_pair_L2(riesz_comm, F, s)
        signed[f"I4{suffix}"] = w_sc * _signed_pair_L2(smooth_comm, F, s)
        signed[f"I5{suffix}"] = h.advect * _signed_pair_L2(advect(u, Th), Th, kappa)
        signed[f"K2{suffix}"] = w_rc * _signed_pair_power(riesz_comm, F, p)
        signed[f"K3{suffix}"] = w_sc * _signed_pair_power(smooth_comm, F, p)
    signed["I2"] = w_lin * _signed_pair_L2(linear_term, F, s)
    signed["K1"] = w_lin * _signed_pair_power(linear_term, F, p)

    terms = {name: abs(signed[name]) for name in
             ("I1", "I2", "I3", "I4", "I5", "K1", "K2", "K3")}

    lam_a = apply_multiplier(F, Multiplier.lambda_pow(a))
    diss_p_signed = h.dissipation * integral_product(lam_a, F, p - 1)
    dissipation = {
        "s": h.dissipation * l2_norm_sq(_lam(F, s + a / 2.0)),
        "kappa": l2_norm_sq(_lam(Th, kappa + b / 2.0)),
        "p": diss_p_signed,
    }
    functionals = {
        "s": 0.5 * l2_norm_sq(_lam(F, s)),
        "kappa": 0.5 * l2_norm_sq(_lam(Th, kappa)),
        "p": lp_norm(F, p, pad=nice_fft_size(p * state.grid.n // 2 + 2)) ** p / p,
    }
    lower = (e ** (2 * a - 1)) * lp_norm(F, 2 * p / (2.0 - a)) ** p
    ratio = diss_p_signed / lower if lower > 0 else float("nan")

    return EnergyLedgerRow(t=state.time, config_id="", functionals=functionals,
                           dissipation=dissipation, terms=terms, signed=signed,
                           coercivity_ratio=ratio)


# -- ledger over a trajectory ----------------------------------------------------


_ROW_TERMS = {"s": ("I1", "I2", "I3", "I4"), "kappa": ("I5",), "p": ("K1", "K2", "K3")}


@dataclass
class LedgerVerdict:
    config_id: str
    rows_checked: int
    rows_passed: int
    sup_functionals: Dict[str, float]
    dissipation_integrals: Dict[str, float]
    richardson_rel: Dict[str, float]
    gronwall_rate: float

    @property
    def all_pass(self) -> bool:
        return self.rows_checked == self.rows_passed


def ledger_run(states: Sequence[SimState], config: LedgerConfig,
               rate_tol_scale: float = 5.0, quad_tol: float = 1e-9,
               min_cadence_warning: float = 0.25) -> Tuple[List[EnergyLedgerRow], LedgerVerdict]:
    """Evaluate the ledger along stored states and check, row by row,
    that the finite-difference rate of each tracked functional plus its
    coercive term stays below the sum of the measured right-hand terms,
    up to a scale-aware tolerance 5*max(dt^2, quad_tol)*scale.
    """
    if len(states) < 3:
        raise ValueError("need at least three stored states for centered rates")
    times = np.array([s.time for s in states])
    dts = np.diff(times)
    if np.max(dts) > min_cadence_warning:
        import warnings
        warnings.warn("output cadence is coarse; finite-difference rates may be inaccurate")

    rows = [energy_terms(s, config.s, config.kappa, config.p) for s in states]
    for row in rows:
        row.config_id = config.config_id

    sup_fun = {k: 0.0 for k in ("s", "kappa", "p")}
    integrals = {k: 0.0 for k in ("s", "kappa", "p")}
    integrals_coarse = {k: 0.0 for k in ("s", "kappa", "p")}
    for kind in sup_fun:
        vals = np.array([r.functionals[kind] for r in rows])
        diss = np.array([r.dissipation[kind] for r in rows])
        sup_fun[kind] = float(np.max(vals))
        integrals[kind] = float(np.trapezoid(diss, times))
        integrals_coarse[kind] = float(np.trapezoid(diss[::2], times[::2]))

    checked = passed = 0
    max_rate_ratio = 0.0
    for i in range(1, len(rows) - 1):
        dt_local = times[i + 1] - times[i - 1]
        row = rows[i]
        for kind, term_names in _ROW_TERMS.items():
            rate = (rows[i + 1].functionals[kind] - rows[i - 1].functionals[kind]) / dt_local
            rhs = sum(row.terms[name] for name in term_names)
            diss = row.dissipation[kind]
            scale = max(abs(rate), abs(diss), rhs, 1e-30)
            tol = rate_tol_scale * max((0.5 * dt_local) ** 2, quad_tol) * scale
            ok = rate + diss <= rhs + tol
            row.lhs_rate[kind] = rate
            row.verdicts[kind] = bool(ok)
            row.tolerance[kind] = tol
            checked += 1
            passed += int(ok)
        j_val = row.functionals["s"] + row.functionals["kappa"]
        if j_val > 0:
            rhs_sum = sum(row.terms[name] for name in _ROW_TERMS["s"] + _ROW_TERMS["kappa"])
            max_rate_ratio = max(max_rate_ratio, rhs_sum / j_val)

    richardson = {k: abs(integrals[k] - integrals_coarse[k]) / max(integrals[k], 1e-30)
                  for k in integrals}
    verdict = LedgerVerdict(config.config_id, checked, passed, sup_fun, integrals,
                            richardson, max_rate_ratio)
    return rows, verdict


# -- regularity-criterion monitor ---------------------------------------------


@dataclass(frozen=True)
class StateNorms:
    """Norms of one stored state; one record feeds both the series row
    and the criteria suprema."""

    t: float
    theta_l2: float
    theta_linf: float
    f_l2: float
    f_l4: float
    f_l6: float
    f_halfalpha_l2: float
    uf_linf: float
    grad_uf_linf: float
    f_besov: float
    grad_theta_linf: float


def _grad_linf(field: SpectralField) -> float:
    gx, gy = gradient(field)
    return max(lp_norm(gx, np.inf), lp_norm(gy, np.inf))


def state_norms(state: SimState) -> StateNorms:
    ex = ExponentSuite(state.params.alpha)
    fs = convert_state(state, "f")
    f = fs.primary
    uf, _ = scaled_velocity_split(f, fs.theta, fs.params)
    return StateNorms(
        t=state.time,
        theta_l2=lp_norm(state.theta, 2), theta_linf=lp_norm(state.theta, np.inf),
        f_l2=lp_norm(f, 2), f_l4=lp_norm(f, 4), f_l6=lp_norm(f, 6),
        f_halfalpha_l2=lp_norm(apply_multiplier(f, Multiplier.lambda_pow(ex.alpha / 2)), 2),
        uf_linf=max(lp_norm(uf[0], np.inf), lp_norm(uf[1], np.inf)),
        grad_uf_linf=max(_grad_linf(uf[0]), _grad_linf(uf[1])),
        f_besov=besov_norm(f, ex.besov_smoothness, ex.besov_integrability),
        grad_theta_linf=_grad_linf(state.theta))


@dataclass
class CriteriaReport:
    sup_f_l6: float
    sup_uf_linf: float
    sup_grad_uf_linf: float
    sup_grad_theta_linf: float
    sup_besov: float
    embedding_ratio: float
    alpha: float
    norms: List[StateNorms] = dc_field(default_factory=list)

    def is_finite(self) -> bool:
        return all(map(math.isfinite, (self.sup_f_l6, self.sup_uf_linf, self.sup_grad_uf_linf,
                                       self.sup_grad_theta_linf, self.sup_besov)))


def _sup(values) -> float:
    return max([0.0, *values])


def criteria_monitor(traj: Trajectory) -> CriteriaReport:
    """Running suprema of the blow-up-controlling quantities along a run,
    with the per-state norms they are taken over."""
    norms = [state_norms(st) for st in traj.states]
    return CriteriaReport(
        sup_f_l6=_sup(n.f_l6 for n in norms),
        sup_uf_linf=_sup(n.uf_linf for n in norms),
        sup_grad_uf_linf=_sup(n.grad_uf_linf for n in norms),
        sup_grad_theta_linf=_sup(n.grad_theta_linf for n in norms),
        sup_besov=_sup(n.f_besov for n in norms),
        embedding_ratio=_sup(n.grad_uf_linf / n.f_besov for n in norms if n.f_besov > 0),
        alpha=traj.states[0].params.alpha, norms=norms)
