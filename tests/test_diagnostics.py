"""Ledger and criteria tests.

The term oracle re-evaluates every pairing from scratch with raw numpy
on a twice-finer quadrature grid, repeating the same dealiased-product
definition (exact product of band-limited fields restricted to the
coarse band), so agreement checks the quadrature and assembly, while
sharing no code with the package implementation.

A second oracle, ``per_config_terms``, is the ledger evaluated one
config at a time (every term field rebuilt per config, the L^p pairings
by padded-grid quadrature); the one-pass ``energy_terms`` must match it
to roundoff for every config at once.
"""

from collections import Counter

import numpy as np
import pytest

from fblab.diagnostics import (CriteriaReport, ExponentSuite, LedgerConfig, criteria_monitor,
                               energy_terms, ledger_configs, ledger_run)
from fblab import diagnostics, fields, operators
from fblab.fields import SpectralField, nice_fft_size
from fblab.grid import make_grid
from fblab.model import (ModelParams, SimState, convert_state, hybrid_terms, initial_state,
                         integrate, scaled_velocity_split)
from fblab.multipliers import Multiplier, SymbolTable, apply_multiplier
from fblab.norms import inner, l2_norm_sq, lp_norm
from fblab.operators import advect, commutator_apply

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


# -- per-config oracle ------------------------------------------------------


def padded_integral(a, b, b_power):
    """integral(a * b**b_power) by quadrature on a padded grid fine
    enough that no alias reaches the zero mode."""
    m = nice_fft_size(int((b_power + 1) * a.grid.n / 2) + 2)
    return float(np.mean(a.physical_on(m) * b.physical_on(m) ** b_power) * a.grid.length ** 2)


def per_config_terms(state, s, kappa, p):
    """Every ledger term of one state for one config: each term field is
    rebuilt for the config, the L^2 pairings are <Lambda^s term,
    Lambda^s target> and the L^p pairings padded-grid quadratures."""
    params = state.params
    a, b, e = params.alpha, params.beta, params.eps0
    h = hybrid_terms(params)
    (w_lin, lin), (w_rc, riesz), (w_sc, smooth) = h.linear, h.riesz_comm, h.smooth_comm
    F, Th = state.primary, state.theta

    def lam(field, order):
        return field if order == 0.0 else apply_multiplier(field, Multiplier.lambda_pow(order))

    def pair_l2(term, target, order):
        return inner(lam(term, order), lam(target, order))

    uf, ut = scaled_velocity_split(F, Th, h)
    u_full = (uf[0] + ut[0], uf[1] + ut[1])
    velocities = {"": u_full, "_f": uf, "_t": ut}
    linear_term = apply_multiplier(Th, lin)

    signed = {}
    for suffix, u in velocities.items():
        riesz_comm = commutator_apply(riesz, u, Th)
        smooth_comm = commutator_apply(smooth, u, Th)
        signed[f"I1{suffix}"] = h.advect * pair_l2(advect(u, F), F, s)
        signed[f"I3{suffix}"] = w_rc * pair_l2(riesz_comm, F, s)
        signed[f"I4{suffix}"] = w_sc * pair_l2(smooth_comm, F, s)
        signed[f"I5{suffix}"] = h.advect * pair_l2(advect(u, Th), Th, kappa)
        signed[f"K2{suffix}"] = w_rc * padded_integral(riesz_comm, F, p - 1)
        signed[f"K3{suffix}"] = w_sc * padded_integral(smooth_comm, F, p - 1)
    signed["I2"] = w_lin * pair_l2(linear_term, F, s)
    signed["K1"] = w_lin * padded_integral(linear_term, F, p - 1)

    lam_a = apply_multiplier(F, Multiplier.lambda_pow(a))
    diss_p_signed = h.dissipation * padded_integral(lam_a, F, p - 1)
    dissipation = {
        "s": h.dissipation * l2_norm_sq(lam(F, s + a / 2.0)),
        "kappa": l2_norm_sq(lam(Th, kappa + b / 2.0)),
        "p": diss_p_signed,
    }
    functionals = {
        "s": 0.5 * l2_norm_sq(lam(F, s)),
        "kappa": 0.5 * l2_norm_sq(lam(Th, kappa)),
        "p": lp_norm(F, p, pad=nice_fft_size(p * state.grid.n // 2 + 2)) ** p / p,
    }
    lower = (e ** (2 * a - 1)) * lp_norm(F, 2 * p / (2.0 - a)) ** p
    ratio = diss_p_signed / lower if lower > 0 else float("nan")
    return {"signed": signed, "dissipation": dissipation, "functionals": functionals,
            "coercivity_ratio": ratio}


def one_row(state, s, kappa, p):
    (row,) = energy_terms(state, [LedgerConfig("test", s, kappa, p)])
    return row


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
        row = one_row(hybrid_state(), 0.0, 0.0, 2)
        assert row.terms["I1"] <= 1e-12
        assert row.terms["I5"] <= 1e-12

    def test_theta_free_state_has_no_sources(self):
        st = hybrid_state()
        st0 = SimState(0.0, SpectralField.zero(st.grid), st.primary, "f", st.params)
        row = one_row(st0, 0.4, 0.3, 4)
        for name in ("I2", "I3", "I4", "I5", "K1", "K2", "K3"):
            assert row.terms[name] == 0.0

    def test_zero_state_rows(self):
        g = make_grid(32, TWO_PI)
        st0 = SimState(0.0, SpectralField.zero(g), SpectralField.zero(g), "f", ModelParams(alpha=ALPHA))
        row = one_row(st0, 0.3, 0.2, 4)
        assert all(v == 0.0 for v in row.terms.values())
        assert all(v == 0.0 for v in row.functionals.values())

    def test_terms_match_fine_grid_oracle(self):
        st = hybrid_state(seed=4)
        cfg = ledger_configs(ALPHA)["l4"]
        (row,) = energy_terms(st, [cfg])
        oracle = FineGridOracle(st.theta.physical(), st.primary.physical(), st.grid.n, TWO_PI, ALPHA)
        expected = oracle.terms(cfg.s, cfg.kappa, cfg.p)
        for name, want in expected.items():
            got = row.terms[name]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14), name

    def test_velocity_split_is_bilinear(self):
        # the row sums the u_F and u_Theta pairings; the oracle builds the
        # terms of u_full = u_F + u_Theta on their own
        st = hybrid_state(seed=5)
        row = one_row(st, 0.375, 0.375, 4)
        want = per_config_terms(st, 0.375, 0.375, 4)["signed"]
        for name in ("I1", "I3", "I4", "I5", "K2", "K3"):
            assert row.signed[name] == pytest.approx(want[name], rel=1e-11, abs=1e-13), name

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            one_row(hybrid_state(), 0.1, 0.1, 3)

    def test_coercivity_nonnegative(self):
        row = one_row(hybrid_state(seed=6), 0.1, 0.1, 4)
        assert row.dissipation["p"] >= 0.0
        assert np.isfinite(row.coercivity_ratio) and row.coercivity_ratio > 0


class TestOnePass:
    """One evaluation per state serves every config, and matches the
    per-config ledger (rebuilt terms, padded quadrature) to roundoff."""

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("eps0", [1.0, 0.5])
    def test_matches_per_config_oracle(self, eps0, n):
        configs = list(ledger_configs(ALPHA).values())
        g = make_grid(n, TWO_PI)
        for seed in (0, 1, 2):
            st = initial_state(g, ModelParams(alpha=ALPHA, eps0=eps0), "scaled", seed=seed,
                               amplitude_theta=1.0, amplitude_primary=1.0)
            for row, cfg in zip(energy_terms(st, configs), configs):
                want = per_config_terms(st, cfg.s, cfg.kappa, cfg.p)
                assert row.config_id == cfg.config_id
                for part in ("signed", "dissipation", "functionals"):
                    got_part = getattr(row, part)
                    assert sorted(got_part) == sorted(want[part])
                    for name, value in want[part].items():
                        # relative to the largest value of its kind (I or K
                        # terms): the transport terms I1 and I5 cancel to
                        # 1e-6 of their summands, which round differently
                        # when the weight sits on one side of the pairing
                        scale = max(abs(v) for k, v in want[part].items() if k[0] == name[0])
                        assert abs(got_part[name] - value) <= 1e-13 * scale, (seed, cfg, name)
                ratio = want["coercivity_ratio"]
                assert abs(row.coercivity_ratio - ratio) <= 1e-13 * abs(ratio)
                for name in ("I1", "I2", "I3", "I4", "I5", "K1", "K2", "K3"):
                    assert row.terms[name] == abs(row.signed[name])

    def test_op_counts_do_not_grow_with_configs(self, monkeypatch):
        # per state: one gradient each of F, Theta, R_alpha Theta and the
        # smooth commutator's op Theta, shared by u_F and u_Theta; four
        # products per split velocity (the commutators reuse the u.grad
        # Theta of I5); padded samples of the four velocity components and
        # the eight gradient components.  The full-velocity terms are sums
        # of the split pairings.
        counts = {"gradient": 0, "multiply": 0, "padded": 0}
        n = 32

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        physical_on = SpectralField.physical_on

        def counted_physical_on(field, m):
            counts["padded"] += m == fields.pad_size(n)
            return physical_on(field, m)

        monkeypatch.setattr(operators, "gradient", counting("gradient", operators.gradient))
        monkeypatch.setattr(operators, "multiply", counting("multiply", fields.multiply))
        monkeypatch.setattr(SpectralField, "physical_on", counted_physical_on)
        configs = list(ledger_configs(ALPHA).values())
        for chosen in (configs[:1], configs):
            state = hybrid_state(n=n)
            counts.update(gradient=0, multiply=0, padded=0)
            rows = energy_terms(state, chosen)
            assert len(rows) == len(chosen)
            assert counts == {"gradient": 4, "multiply": 8, "padded": 12}

    def test_one_hybrid_table_per_state(self, monkeypatch):
        # the velocity split reads energy_terms' own HybridTerms table
        import fblab.model
        calls = []
        for module in (diagnostics, fblab.model):
            monkeypatch.setattr(module, "hybrid_terms",
                                lambda params, build=module.hybrid_terms:
                                calls.append(params) or build(params))
        configs = list(ledger_configs(ALPHA).values())
        for state in (hybrid_state(n=32), hybrid_state(n=32, seed=5)):
            calls.clear()
            energy_terms(state, configs)
            assert calls == [state.params]

    def test_rejects_any_bad_config(self):
        good = ledger_configs(ALPHA)["l2"]
        for bad in (LedgerConfig("odd", 0.1, 0.1, 3), LedgerConfig("neg", -0.1, 0.1, 4)):
            with pytest.raises(ValueError):
                energy_terms(hybrid_state(n=32), [good, bad])


@pytest.fixture(scope="module")
def trajectory():
    st = hybrid_state(seed=7, amp=0.3)
    return [state for state, _ in integrate(st, 0.3, dt=0.01, cadence=1)]


class TestLedgerRun:
    def test_zero_data_ledger(self):
        g = make_grid(32, TWO_PI)
        p = ModelParams(alpha=ALPHA)
        z = SpectralField.zero(g)
        states = [SimState(t, z, z, "f", p) for t in (0.0, 0.01, 0.02, 0.03)]
        rows, verdict = ledger_run(states, [ledger_configs(ALPHA)["l2"]])[0]
        assert verdict.all_pass
        assert all(all(v == 0.0 for v in r.terms.values()) for r in rows)

    def test_rows_pass_all_configs(self, trajectory):
        for rows, verdict in ledger_run(trajectory, list(ledger_configs(ALPHA).values())):
            assert verdict.all_pass, (verdict.config_id, verdict.rows_passed, verdict.rows_checked)

    def test_dissipation_integral_richardson(self, trajectory):
        _, verdict = ledger_run(trajectory, [ledger_configs(ALPHA)["l2"]])[0]
        assert verdict.dissipation_integrals["s"] > 0
        assert verdict.richardson_rel["s"] < 0.01

    def test_gronwall_self_consistency(self, trajectory):
        rows, verdict = ledger_run(trajectory, [ledger_configs(ALPHA)["l2"]])[0]
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
            ledger_run([st, st], [ledger_configs(ALPHA)["l2"]])

    def test_mixed_grids_refused_before_any_evaluation(self, monkeypatch):
        evaluated = []
        monkeypatch.setattr(diagnostics, "energy_terms",
                            lambda *args: evaluated.append(args) or [])
        coarse, fine = hybrid_state(n=16), hybrid_state(n=32)
        with pytest.raises(ValueError, match=r"n = 16, L = 6.28319 and n = 32, L = 6.28319"):
            ledger_run([coarse, coarse, fine], [ledger_configs(ALPHA)["l2"]])
        assert evaluated == []

    def test_symbol_builds_do_not_grow_with_states(self, monkeypatch):
        builds = []
        original = Multiplier.symbol

        def counted(spec, grid):
            builds.append(spec)
            return original(spec, grid)

        monkeypatch.setattr(Multiplier, "symbol", counted)
        st = hybrid_state(n=32, seed=3)
        configs = list(ledger_configs(ALPHA).values())
        per_run = []
        for n_states in (3, 5):
            states = [SimState(0.01 * i, st.theta, st.primary, "f", st.params)
                      for i in range(n_states)]
            builds.clear()
            ledger_run(states, configs)
            per_run.append(len(builds))
        assert per_run[0] > 0 and per_run[1] == per_run[0]

    def test_scaled_run_rows_pass(self):
        g = make_grid(64, TWO_PI)
        p = ModelParams(alpha=ALPHA, eps0=0.5)
        st = initial_state(g, p, "scaled", seed=9, amplitude_theta=0.3, amplitude_primary=0.3)
        states = [state for state, _ in integrate(st, 0.2, dt=0.01, cadence=1)]
        for cid in ("l2", "l4"):
            rows, verdict = ledger_run(states, [ledger_configs(ALPHA)[cid]])[0]
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
        row = one_row(st, s, kappa, pp)
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
        _, norms = criteria_monitor(SimState(0.0, z, z, "f", p))
        rep = CriteriaReport.of([norms], ALPHA)
        assert rep.sup_f_l6 == 0.0 and rep.sup_besov == 0.0 and rep.sup_uf_linf == 0.0

    def test_finite_and_consistent_on_run(self):
        st = hybrid_state(seed=8, amp=0.3)
        symbols = SymbolTable(st.grid)
        rep = CriteriaReport.of([criteria_monitor(s, symbols)[1]
                                 for s, _ in integrate(st, 0.1, dt=0.01, cadence=5)], ALPHA)
        assert rep.finite
        f6_first = lp_norm(convert_state(st, "f").primary, 6.0)
        assert rep.sup_f_l6 >= f6_first - 1e-14
        assert rep.embedding_ratio_torus > 0

    def test_symbols_and_rings_built_once_per_run(self, monkeypatch):
        builds = Counter()
        symbol = Multiplier.symbol
        monkeypatch.setattr(Multiplier, "symbol", lambda spec, grid: builds.update(
            ["ring" if spec.kind == "ring" else "symbol"]) or symbol(spec, grid))
        st = hybrid_state(n=32, seed=3)
        per_run = []
        for n_states in (1, 4):
            states = [SimState(0.01 * i, st.theta, st.primary, "f", st.params)
                      for i in range(n_states)]
            builds.clear()
            symbols = SymbolTable(st.grid)
            norms = [criteria_monitor(s, symbols)[1] for s in states]
            per_run.append(dict(builds))
        assert per_run[0]["symbol"] > 0 and per_run[0]["ring"] > 0 and per_run[1] == per_run[0]
        # the shared table and rings give every state its lone call's norms, bit for bit
        assert norms == [criteria_monitor(s)[1] for s in states]
