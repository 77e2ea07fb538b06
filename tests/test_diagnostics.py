"""Ledger and criteria tests.

The term oracle re-evaluates every pairing from scratch with raw numpy
on a twice-finer quadrature grid, repeating the same dealiased-product
definition (exact product of band-limited fields restricted to the
coarse band), so agreement checks the quadrature and assembly, while
sharing no code with the package implementation.
"""

import numpy as np
import pytest

from fblab.diagnostics import (ExponentSuite, criteria_monitor, energy_terms,
                               ledger_configs, ledger_run)
from fblab.fields import SpectralField
from fblab.grid import make_grid
from fblab.model import ModelParams, SimState, convert_state, initial_state, integrate
from fblab.norms import lp_norm

TWO_PI = 2 * np.pi
ALPHA = 0.75


# -- independent oracle ------------------------------------------------------


class FineGridOracle:
    """Raw-numpy re-evaluation of the ledger terms at eps0 = 1."""

    def __init__(self, theta_vals, f_vals, n, L, alpha):
        self.n, self.L, self.alpha = n, L, alpha
        self.beta = 1.0 - alpha
        self.m = 2 * n
        k1d = (2 * np.pi / L) * np.fft.fftfreq(self.m, 1.0 / self.m)
        self.kx, self.ky = np.meshgrid(k1d, k1d, indexing="ij")
        self.kk = np.hypot(self.kx, self.ky)
        self.th = self._embed(np.fft.fft2(theta_vals) / n**2)
        self.f = self._embed(np.fft.fft2(f_vals) / n**2)
        self.u = self._velocity()

    def _embed(self, c):
        n, m = self.n, self.m
        out = np.zeros((m, m), dtype=complex)
        h = n // 2
        out[:h, :h] = c[:h, :h]
        out[:h, m - h:] = c[:h, h:]
        out[m - h:, :h] = c[h:, :h]
        out[m - h:, m - h:] = c[h:, h:]
        return out

    def _coarse_band_projection(self, cm):
        # the package's products live on the coarse grid: modes with any
        # component at or beyond the coarse Nyquist line are dropped
        h = self.n // 2
        k1d = np.fft.fftfreq(self.m, 1.0 / self.m)
        keep1 = np.abs(k1d) <= h - 1
        keep = np.logical_and.outer(keep1, keep1)
        return np.where(keep, cm, 0.0)

    def _pow(self, s):
        with np.errstate(divide="ignore"):
            out = np.where(self.kk > 0, np.where(self.kk > 0, self.kk, 1.0) ** s, 0.0)
        return out

    def _phys(self, c):
        return (np.fft.ifft2(c) * self.m**2).real

    def _velocity(self):
        inv = np.where(self.kk > 0, 1.0 / np.where(self.kk > 0, self.kk**2, 1.0), 0.0)
        a, b = self.alpha, self.beta
        qsym = 1j * self.kx * self._pow(-a) * (1.0 + self._pow(b - a))
        total = self.f + qsym * self.th
        return (self._phys(1j * self.ky * inv * total), self._phys(-1j * self.kx * inv * total))

    def advection(self, c):
        gx = self._phys(1j * self.kx * c)
        gy = self._phys(1j * self.ky * c)
        prod = self.u[0] * gx + self.u[1] * gy
        return self._coarse_band_projection(np.fft.fft2(prod) / self.m**2)

    def commutator(self, sym, c):
        op_adv = sym * self.advection(c)
        adv_op = self.advection(sym * c)
        return self._coarse_band_projection(op_adv - adv_op)

    def pair_l2(self, c1, c2, s):
        w = self._pow(s) ** 2
        return float(np.real(np.sum(w * c1 * np.conj(c2))) * self.L**2)

    def pair_power(self, c, p):
        fv = self._phys(self.f)
        term = self._phys(c)
        return float(np.mean(term * fv ** (p - 1)) * self.L**2)

    def terms(self, s, kappa, p):
        a, b = self.alpha, self.beta
        riesz = 1j * self.kx * self._pow(-a)
        smooth = 1j * self.kx * self._pow(b - 2 * a)
        linear = 1j * self.kx * self._pow(2 * (b - a)) * self.th
        out = {
            "I1": abs(self.pair_l2(self.advection(self.f), self.f, s)),
            "I2": abs(self.pair_l2(self._coarse_band_projection(linear), self.f, s)),
            "I3": abs(self.pair_l2(self.commutator(riesz, self.th), self.f, s)),
            "I4": abs(self.pair_l2(self.commutator(smooth, self.th), self.f, s)),
            "I5": abs(self.pair_l2(self.advection(self.th), self.th, kappa)),
            "K1": abs(self.pair_power(self._coarse_band_projection(linear), p)),
            "K2": abs(self.pair_power(self.commutator(riesz, self.th), p)),
            "K3": abs(self.pair_power(self.commutator(smooth, self.th), p)),
        }
        return out


def hybrid_state(n=64, seed=2, amp=0.4):
    g = make_grid(n, TWO_PI)
    p = ModelParams(alpha=ALPHA)
    return initial_state(g, p, "f", seed=seed, amplitude_theta=amp, amplitude_primary=amp)


class TestExponents:
    @pytest.mark.parametrize("alpha", [0.70, 0.75, 0.80, 0.85])
    def test_formulas_reproduced_exactly(self, alpha):
        ex = ExponentSuite(alpha, rho=0.01)
        beta = 1.0 - alpha
        assert ex.gamma == beta / 2.0 - 2.0 * 0.01
        assert ex.interpolation_a == (3.0 - 4.0 * alpha) / (2.0 * beta)
        assert ex.q0 == 4.0 * (2.0 * alpha - 1.0) / (3.0 * alpha * beta + 6.0 * alpha - 4.0)
        assert ex.delta == (3.0 - 4.0 * alpha) / (alpha / 2.0)
        assert ex.besov_smoothness == 3.0 * alpha - 2.0
        assert ex.besov_integrability == 6.0 / (3.0 * alpha - 2.0)

    @pytest.mark.parametrize("alpha", [0.70, 0.75, 0.80, 0.85])
    def test_validity_ranges(self, alpha):
        v = ExponentSuite(alpha).validity()
        assert v["alpha_above_two_thirds"]
        assert v["q0_at_least_one"]
        assert v["criterion_exponent_in_range"]
        # the unit-interval claim for delta belongs to the 3 - 4 alpha > 0 case
        if alpha < 0.75:
            assert v["delta_in_unit_interval"]
        else:
            assert v["case_switch_nonpositive"]

    def test_besov_indices_at_three_quarters(self):
        ex = ExponentSuite(0.75)
        assert ex.besov_smoothness == pytest.approx(0.25)
        assert ex.besov_integrability == pytest.approx(24.0)


class TestEnergyTerms:
    def test_advection_term_vanishes_without_derivative(self):
        row = energy_terms(hybrid_state(), 0.0, 0.0, 2)
        assert row.terms["I1"] <= 1e-12
        assert row.terms["I5"] <= 1e-12

    def test_theta_free_state_has_no_sources(self):
        st = hybrid_state()
        st0 = SimState(0.0, SpectralField.zero(st.grid), st.primary, "f", st.params)
        row = energy_terms(st0, 0.4, 0.3, 4)
        for name in ("I2", "I3", "I4", "I5", "K1", "K2", "K3"):
            assert row.terms[name] == 0.0

    def test_zero_state_rows(self):
        g = make_grid(32, TWO_PI)
        st0 = SimState(0.0, SpectralField.zero(g), SpectralField.zero(g), "f", ModelParams(alpha=ALPHA))
        row = energy_terms(st0, 0.3, 0.2, 4)
        assert all(v == 0.0 for v in row.terms.values())
        assert all(v == 0.0 for v in row.functionals.values())

    def test_terms_match_fine_grid_oracle(self):
        st = hybrid_state(seed=4)
        cfg = ledger_configs(ALPHA)["l4"]
        row = energy_terms(st, cfg.s, cfg.kappa, cfg.p)
        oracle = FineGridOracle(st.theta.physical(), st.primary.physical(), st.grid.n, TWO_PI, ALPHA)
        expected = oracle.terms(cfg.s, cfg.kappa, cfg.p)
        for name, want in expected.items():
            got = row.terms[name]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14), name

    def test_velocity_split_is_bilinear(self):
        st = hybrid_state(seed=5)
        row = energy_terms(st, 0.375, 0.375, 4)
        for name in ("I1", "I3", "I4", "I5", "K2", "K3"):
            total = row.signed[name]
            split = row.signed[f"{name}_f"] + row.signed[f"{name}_t"]
            assert total == pytest.approx(split, rel=1e-11, abs=1e-13), name

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            energy_terms(hybrid_state(), 0.1, 0.1, 3)

    def test_coercivity_nonnegative(self):
        row = energy_terms(hybrid_state(seed=6), 0.1, 0.1, 4)
        assert row.dissipation["p"] >= 0.0
        assert np.isfinite(row.coercivity_ratio) and row.coercivity_ratio > 0


@pytest.fixture(scope="module")
def trajectory():
    st = hybrid_state(seed=7, amp=0.3)
    return integrate(st, 0.3, dt=0.01, cadence=1)


class TestLedgerRun:
    def test_zero_data_ledger(self):
        g = make_grid(32, TWO_PI)
        p = ModelParams(alpha=ALPHA)
        z = SpectralField.zero(g)
        states = [SimState(t, z, z, "f", p) for t in (0.0, 0.01, 0.02, 0.03)]
        rows, verdict = ledger_run(states, ledger_configs(ALPHA)["l2"])
        assert verdict.all_pass
        assert all(all(v == 0.0 for v in r.terms.values()) for r in rows)

    def test_rows_pass_all_configs(self, trajectory):
        for cid, cfg in ledger_configs(ALPHA).items():
            rows, verdict = ledger_run(trajectory.states, cfg)
            assert verdict.all_pass, (cid, verdict.rows_passed, verdict.rows_checked)

    def test_dissipation_integral_richardson(self, trajectory):
        _, verdict = ledger_run(trajectory.states, ledger_configs(ALPHA)["l2"])
        assert verdict.dissipation_integrals["s"] > 0
        assert verdict.richardson_rel["s"] < 0.01

    def test_gronwall_self_consistency(self, trajectory):
        rows, verdict = ledger_run(trajectory.states, ledger_configs(ALPHA)["l2"])
        j0 = rows[0].functionals["s"] + rows[0].functionals["kappa"]
        fitted = 0.0
        for row in rows[1:]:
            j = row.functionals["s"] + row.functionals["kappa"]
            if j > 0 and j0 > 0 and row.t > 0:
                fitted = max(fitted, np.log(j / j0) / row.t)
        assert fitted <= verdict.gronwall_rate + 1e-9

    def test_needs_three_states(self):
        st = hybrid_state()
        with pytest.raises(ValueError):
            ledger_run([st, st], ledger_configs(ALPHA)["l2"])

    def test_scaled_run_rows_pass(self):
        g = make_grid(64, TWO_PI)
        p = ModelParams(alpha=ALPHA, eps0=0.5)
        st = initial_state(g, p, "scaled", seed=9, amplitude_theta=0.3, amplitude_primary=0.3)
        traj = integrate(st, 0.2, dt=0.01, cadence=1)
        for cid in ("l2", "l4"):
            rows, verdict = ledger_run(traj.states, ledger_configs(ALPHA)[cid])
            assert verdict.all_pass, (cid, verdict.rows_passed, verdict.rows_checked)

    @pytest.mark.parametrize("eps0", [1.0, 0.5])
    def test_terms_close_the_exact_rate_identity(self, eps0):
        # signed terms must reproduce < d/dt functional > computed from the
        # actual tendencies, with no finite differences involved; any wrong
        # eps0 power on either side breaks this at leading order
        from fblab.model import rhs
        from fblab.multipliers import Multiplier, apply_multiplier
        from fblab.norms import inner, integral_product

        g = make_grid(64, TWO_PI)
        p = ModelParams(alpha=ALPHA, eps0=eps0)
        st = initial_state(g, p, "scaled", seed=9, amplitude_theta=0.3, amplitude_primary=0.3)
        s, kappa, pp = 0.375, 0.25, 4
        row = energy_terms(st, s, kappa, pp)
        dF, dTh = rhs(st)

        lam_s = Multiplier.lambda_pow(s)
        rate_s = inner(apply_multiplier(dF, lam_s), apply_multiplier(st.primary, lam_s))
        want_s = -row.signed["I1"] + row.signed["I2"] + row.signed["I3"] + row.signed["I4"]
        assert rate_s + row.dissipation["s"] == pytest.approx(want_s, rel=1e-10, abs=1e-13)

        lam_k = Multiplier.lambda_pow(kappa)
        rate_k = inner(apply_multiplier(dTh, lam_k), apply_multiplier(st.theta, lam_k))
        assert rate_k + row.dissipation["kappa"] == pytest.approx(-row.signed["I5"], rel=1e-10, abs=1e-13)

        rate_p = integral_product(dF, st.primary, pp - 1)
        want_p = row.signed["K1"] + row.signed["K2"] + row.signed["K3"]
        # the advection pairing vanishes exactly for this band-limited state
        assert rate_p + row.dissipation["p"] == pytest.approx(want_p, rel=1e-10, abs=1e-13)


class TestCriteria:
    def test_zero_run_reports_zero(self):
        g = make_grid(32, TWO_PI)
        p = ModelParams(alpha=ALPHA)
        z = SpectralField.zero(g)
        from fblab.model import Trajectory
        traj = Trajectory(states=[SimState(0.0, z, z, "f", p)])
        rep = criteria_monitor(traj)
        assert rep.sup_f_l6 == 0.0 and rep.sup_besov == 0.0 and rep.sup_uf_linf == 0.0

    def test_finite_and_consistent_on_run(self):
        st = hybrid_state(seed=8, amp=0.3)
        traj = integrate(st, 0.1, dt=0.01, cadence=5)
        rep = criteria_monitor(traj)
        assert rep.is_finite()
        f6_first = lp_norm(convert_state(traj.states[0], "f").primary, 6.0)
        assert rep.sup_f_l6 >= f6_first - 1e-14
        assert rep.embedding_ratio > 0
