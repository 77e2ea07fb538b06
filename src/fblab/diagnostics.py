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

The eps0 weights, the source operators, the velocity split and the
coercivity weight come from :class:`fblab.model.HybridTerms`, the table
the integrator reads, so the two cannot drift apart;
``test_substitution_oracle`` checks those weights independently, by
rescaling a state and comparing tendencies.

Every velocity-dependent term is split through u = u_F + u_Theta, and
each full-velocity pairing is the sum of its two splits (I1, I3, I4, I5,
K2 and K3 are linear in u), so no term field is built for u itself.

The terms depend on the state only, so :func:`energy_terms` evaluates a
state once for every configuration: each term field is built once per
velocity and paired with each configuration's target (Lambda^(2s) F,
Lambda^(2 kappa) Theta, or F^(p-1) through :func:`integral_product`,
which keeps the band of each power on F), then dropped.  Per state that
is 4 gradients, each shared by both split velocities (of F, Theta,
R_alpha Theta and Lambda^(beta-2alpha) d1 Theta; the commutators reuse
u.grad Theta), 8 products and 12 padded inverse transforms (the four
velocity components and the eight gradient components), however many
configurations are asked for, with the symbols of one table per
:func:`ledger_run`.

Ledger evaluation is independent per time slice (rates come from stored
functional values), so slices parallelize trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import SpectralField
from .model import SimState, convert_state, hybrid_terms, scaled_velocity_split, u_f
from .multipliers import Multiplier, SymbolTable, apply_multiplier
from .norms import inner, integral_product, lp_norm
from .operators import advect, commutator_apply, gradient
from .dyadic import besov_norm
from .ranges import BESOV

DEFAULT_RHO = 0.01
RATE_TOL_SCALE, QUAD_TOL = 5.0, 1e-9  # a ledger row's tolerance, see ledger_run
MIN_CADENCE_WARNING = 0.25  # stored-state spacing above which rates draw a warning


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
            "alpha_above_two_thirds": BESOV.holds(vars(self)),
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


# -- term evaluation -----------------------------------------------------------


def _lam(field: SpectralField, s: float, symbols: SymbolTable) -> SpectralField:
    if s == 0.0:
        return field
    return apply_multiplier(field, Multiplier.lambda_pow(s), symbols)


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
    rhs_sum: Dict[str, float] = dc_field(default_factory=dict)
    verdicts: Dict[str, bool] = dc_field(default_factory=dict)
    tolerance: Dict[str, float] = dc_field(default_factory=dict)
    coercivity_ratio: float = float("nan")


def energy_terms(state: SimState, configs: Sequence[LedgerConfig],
                 symbols: Optional[SymbolTable] = None) -> List[EnergyLedgerRow]:
    """Evaluate every ledger term of one state, one row per config.

    Each term field is built for both split velocities at once, from one
    gradient, and paired with every config's target before the next one
    is built: <Lambda^s term, Lambda^s F> is the pairing of the term with
    Lambda^(2s) F, one target per config, and the L^p pairings go through
    :func:`integral_product`, which keeps the band of each power of F on
    F.  The two commutators of a velocity reuse its u.grad Theta of I5;
    the full-velocity terms are the sums of the split pairings.  Symbols
    come from ``symbols``, a table for the state's grid, or from a table
    of the call's own.
    """
    for c in configs:
        if c.p % 2 or c.p < 2:
            raise ValueError("the L^p pairing keeps the integrand polynomial; p must be even")
        if c.s < 0 or c.kappa < 0:
            raise ValueError("derivative weights must be nonnegative")
    if state.tag != "f":
        raise ValueError("the ledger runs on hybrid-formulation states")
    params = state.params
    params.require_unit_dissipation("the ledger")
    a, b = params.alpha, params.beta
    h = hybrid_terms(params)
    (w_lin, lin), (w_rc, riesz), (w_sc, smooth) = h.linear, h.riesz_comm, h.smooth_comm
    if symbols is None:
        symbols = SymbolTable(state.grid)
    # F on a handle of its own: the power bands the pairings keep on it
    # go with it, instead of living as long as the state
    F, Th = SpectralField(state.grid, state.primary.coef), state.theta
    targets = [{"s": _lam(F, 2.0 * c.s, symbols), "kappa": _lam(Th, 2.0 * c.kappa, symbols)}
               for c in configs]
    signed: List[Dict[str, float]] = [{} for _ in configs]

    def pair(name: str, weight: float, term: SpectralField, target: str, power_name: str = ""):
        for sg, tg, c in zip(signed, targets, configs):
            sg[name] = weight * inner(term, tg[target])
            if power_name:
                sg[power_name] = weight * integral_product(term, F, c.p - 1)

    def pair_split(name: str, weight: float, terms, target: str, power_name: str = ""):
        for suffix, term in zip(("_f", "_t"), terms):
            pair(name + suffix, weight, term, target, power_name and power_name + suffix)

    # I2 first: the power bands of F it leaves on F are the largest
    # arrays of the state, built before any velocity keeps padded samples
    pair("I2", w_lin, apply_multiplier(Th, lin, symbols), "s", "K1")
    split = scaled_velocity_split(F, Th, h, symbols)
    pair_split("I1", h.advect, advect(split, F, symbols), "s")
    transported = advect(split, Th, symbols)
    pair_split("I5", h.advect, transported, "kappa")
    pair_split("I3", w_rc, commutator_apply(riesz, split, Th, transported, symbols=symbols),
               "s", "K2")
    pair_split("I4", w_sc, commutator_apply(smooth, split, Th, transported, symbols=symbols),
               "s", "K3")
    for sg in signed:
        sg.update({k: sg[k + "_f"] + sg[k + "_t"] for k in ("I1", "I3", "I4", "I5", "K2", "K3")})

    lam_a, lam_b = _lam(F, a, symbols), _lam(Th, b, symbols)
    rows = []
    for c, sg, tg in zip(configs, signed, targets):
        diss_p_signed = h.dissipation * integral_product(lam_a, F, c.p - 1)
        dissipation = {
            "s": h.dissipation * inner(lam_a, tg["s"]),
            "kappa": inner(lam_b, tg["kappa"]),
            "p": diss_p_signed,
        }
        functionals = {
            "s": 0.5 * inner(F, tg["s"]),
            "kappa": 0.5 * inner(Th, tg["kappa"]),
            "p": integral_product(F, F, c.p - 1) / c.p,
        }
        lower = h.coercivity * lp_norm(F, 2 * c.p / (2.0 - a)) ** c.p
        terms = {name: abs(sg[name]) for name in ("I1", "I2", "I3", "I4", "I5", "K1", "K2", "K3")}
        rows.append(EnergyLedgerRow(
            t=state.time, config_id=c.config_id, functionals=functionals,
            dissipation=dissipation, terms=terms, signed=sg,
            coercivity_ratio=diss_p_signed / lower if lower > 0 else float("nan")))
    return rows


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


def ledger_run(states: Sequence[SimState], configs: Sequence[LedgerConfig]
               ) -> List[Tuple[List[EnergyLedgerRow], LedgerVerdict]]:
    """Evaluate the ledgers of all configs along stored states and check,
    row by row, that the finite-difference rate of each tracked
    functional plus its coercive term stays below the sum of the measured
    right-hand terms, up to a scale-aware tolerance
    RATE_TOL_SCALE * max((dt/2)^2, QUAD_TOL) * scale, dt the span of the
    row's centered difference.

    Each state is evaluated once for every config, with one symbol table
    for the run; the result holds one (rows, verdict) pair per config, in
    the order given.  States on different grids are refused.
    """
    if len(states) < 3:
        raise ValueError("need at least three stored states for centered rates")
    grids = sorted({(s.grid.n, s.grid.length) for s in states})
    if len(grids) > 1:
        raise ValueError("ledger states lie on different grids: "
                         + " and ".join(f"n = {n}, L = {length:g}" for n, length in grids))
    times = np.array([s.time for s in states])
    dts = np.diff(times)
    if np.max(dts) > MIN_CADENCE_WARNING:
        import warnings
        warnings.warn("output cadence is coarse; finite-difference rates may be inaccurate")

    symbols = SymbolTable(states[0].grid)
    per_state = [energy_terms(s, configs, symbols) for s in states]
    return [_check_rows([rows[i] for rows in per_state], times, config)
            for i, config in enumerate(configs)]


def _check_rows(rows: List[EnergyLedgerRow], times: np.ndarray, config: LedgerConfig
                ) -> Tuple[List[EnergyLedgerRow], LedgerVerdict]:
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
            tol = RATE_TOL_SCALE * max((0.5 * dt_local) ** 2, QUAD_TOL) * scale
            ok = rate + diss <= rhs + tol
            row.lhs_rate[kind] = rate
            row.rhs_sum[kind] = rhs
            row.verdicts[kind] = bool(ok)
            row.tolerance[kind] = tol
            checked += 1
            passed += int(ok)
        j_val = row.functionals["s"] + row.functionals["kappa"]
        if j_val > 0:
            max_rate_ratio = max(max_rate_ratio, (row.rhs_sum["s"] + row.rhs_sum["kappa"]) / j_val)

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


def _grad_linf(field: SpectralField, symbols: Optional[SymbolTable] = None) -> float:
    gx, gy = gradient(field, symbols)
    return max(lp_norm(gx, np.inf), lp_norm(gy, np.inf))


def criteria_monitor(state: SimState, symbols: Optional[SymbolTable] = None
                     ) -> Tuple[SimState, StateNorms]:
    """The ``f`` form of one stored state, its one conversion, and the norms
    that control blowup.  A run passes every state the same ``symbols``,
    dyadic rings included; without it they are built afresh.  The Besov
    norm is NaN outside the ``BESOV`` row of :mod:`fblab.ranges`."""
    ex = ExponentSuite(state.params.alpha)
    fs = convert_state(state, "f", symbols)
    f = fs.primary
    uf = u_f(f, hybrid_terms(fs.params), symbols)
    half_alpha = apply_multiplier(f, Multiplier.lambda_pow(ex.alpha / 2), symbols)
    return fs, StateNorms(
        t=state.time,
        theta_l2=lp_norm(state.theta, 2), theta_linf=lp_norm(state.theta, np.inf),
        f_l2=lp_norm(f, 2), f_l4=lp_norm(f, 4), f_l6=lp_norm(f, 6),
        f_halfalpha_l2=lp_norm(half_alpha, 2),
        uf_linf=max(lp_norm(uf[0], np.inf), lp_norm(uf[1], np.inf)),
        grad_uf_linf=max(_grad_linf(uf[0], symbols), _grad_linf(uf[1], symbols)),
        f_besov=(besov_norm(f, ex.besov_smoothness, ex.besov_integrability, symbols)
                 if BESOV.holds(vars(ex)) else math.nan),
        grad_theta_linf=_grad_linf(state.theta, symbols))


@dataclass
class CriteriaReport:
    """Suprema along a run; the Besov two are None outside ``BESOV``, and
    ``finite`` judges the other suprema."""

    sup_f_l6: float
    sup_uf_linf: float
    sup_grad_uf_linf: float
    sup_grad_theta_linf: float
    sup_besov: Optional[float]
    embedding_ratio_torus: Optional[float]
    alpha: float
    finite: bool

    @classmethod
    def of(cls, norms: List[StateNorms], alpha: float) -> "CriteriaReport":
        """Running suprema of the :func:`criteria_monitor` records of a run."""
        besov = BESOV.holds({"alpha": alpha})
        sups = dict(sup_f_l6=_sup(n.f_l6 for n in norms), sup_uf_linf=_sup(n.uf_linf for n in norms),
                    sup_grad_uf_linf=_sup(n.grad_uf_linf for n in norms),
                    sup_grad_theta_linf=_sup(n.grad_theta_linf for n in norms),
                    sup_besov=_sup(n.f_besov for n in norms) if besov else None)
        return cls(**sups, alpha=alpha,
                   embedding_ratio_torus=(_sup(n.grad_uf_linf / n.f_besov for n in norms
                                               if n.f_besov > 0) if besov else None),
                   finite=all(math.isfinite(s) for s in sups.values() if s is not None))


def _sup(values) -> float:
    return max([0.0, *values])
