"""Model tests: transforms, right-hand sides, stepping, conservation laws.

The vorticity right-hand side is checked against an oracle written from
scratch below with raw numpy transforms on a twice-finer grid (products
evaluated without any dealiasing, which is alias-free there); the hybrid
system is checked against the vorticity system through the exact linear
change of variables.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblab.ensembles import random_scalar_field
from fblab.fields import SpectralField
from fblab.grid import make_grid
from fblab.model import (IntegrationBlowupError, ModelParams, SimState, StabilityError,
                         Trajectory, cfl_limit, convert_state, hybrid_terms, initial_state,
                         integrate, nonlinear, rhs, scaled_velocity_split, state_velocity, step,
                         theta_dissipation_rate, transform_to_f, transform_to_g,
                         velocity_dissipation_rate, vorticity_from_f)
from fblab.multipliers import Multiplier, apply_multiplier
from fblab.norms import inner, integral_product, l2_norm_sq, lp_norm
from fblab.operators import (advect, biot_savart, commutator_apply, curl,
                             temperature_vorticity_operator)

from oracles import f_from_g, full_coef, primitive_rhs, refined_sup, rel_l2_diff

TWO_PI = 2 * np.pi
ALPHA = 0.75


def fine_grid_rhs_oracle(theta_vals, omega_vals, n, L, alpha, beta):
    """Vorticity-form tendencies recomputed from scratch: embed spectra on
    a 2n grid, differentiate with raw FFT symbols, multiply pointwise (no
    truncation), and read back the coefficients on the coarse band."""
    m = 2 * n

    def to_coef(vals):
        return np.fft.fft2(vals) / n**2

    def embed(c):
        out = np.zeros((m, m), dtype=complex)
        h = n // 2
        out[:h, :h] = c[:h, :h]
        out[:h, m - h:] = c[:h, h:]
        out[m - h:, :h] = c[h:, :h]
        out[m - h:, m - h:] = c[h:, h:]
        return out

    def restrict(cm):
        h = n // 2
        out = np.zeros((n, n), dtype=complex)
        out[:h, :h] = cm[:h, :h]
        out[:h, h:] = cm[:h, m - h:]
        out[h:, :h] = cm[m - h:, :h]
        out[h:, h:] = cm[m - h:, m - h:]
        out[h, :] = 0.0
        out[:, h] = 0.0
        return out

    k1d = (2 * np.pi / L) * np.fft.fftfreq(m, 1.0 / m)
    kx, ky = np.meshgrid(k1d, k1d, indexing="ij")
    kk = np.hypot(kx, ky)
    inv_lap = np.where(kk > 0, 1.0 / np.where(kk > 0, kk**2, 1), 0.0)

    th = embed(to_coef(theta_vals))
    om = embed(to_coef(omega_vals))
    phys = lambda c: (np.fft.ifft2(c) * m**2).real
    u1 = phys(1j * ky * inv_lap * om)
    u2 = phys(-1j * kx * inv_lap * om)
    om_x, om_y = phys(1j * kx * om), phys(1j * ky * om)
    th_x, th_y = phys(1j * kx * th), phys(1j * ky * th)
    lam_a = np.where(kk > 0, kk, 1.0) ** alpha
    lam_b = np.where(kk > 0, kk, 1.0) ** beta
    lam_a[0, 0] = lam_b[0, 0] = 0.0

    dom = (-np.fft.fft2(u1 * om_x + u2 * om_y) / m**2
           - lam_a * om + 1j * kx * th)
    dth = (-np.fft.fft2(u1 * th_x + u2 * th_y) / m**2 - lam_b * th)
    return restrict(dom), restrict(dth)


def make_state(n=64, seed=3, amp=0.4, alpha=ALPHA, formulation="omega", kind="random"):
    g = make_grid(n, TWO_PI)
    p = ModelParams(alpha=alpha)
    return initial_state(g, p, formulation, kind=kind, seed=seed,
                         amplitude_theta=amp, amplitude_primary=amp)


class TestTransforms:
    def test_zero_theta_identity(self):
        g = make_grid(32, TWO_PI)
        w = random_scalar_field(g, 1, band=(0, 3))
        z = SpectralField.zero(g)
        assert np.array_equal(transform_to_g(w, z, ALPHA).coef, w.coef)
        assert np.array_equal(transform_to_f(w, z, ALPHA).coef, w.coef)

    def test_unit_mode_closed_forms(self):
        g = make_grid(32, TWO_PI)
        X, _ = g.meshgrid()
        theta = SpectralField.from_physical(g, np.sin(X))
        zero = SpectralField.zero(g)
        gv = transform_to_g(zero, theta, ALPHA)
        fv = transform_to_f(zero, theta, ALPHA)
        assert np.max(np.abs(gv.physical() + np.cos(X))) < 1e-13
        assert np.max(np.abs(fv.physical() + 2 * np.cos(X))) < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.55, 0.95), seed=st.integers(0, 500))
    def test_round_trips(self, alpha, seed):
        g = make_grid(32, TWO_PI)
        w = random_scalar_field(g, seed, band=(0, 3))
        th = random_scalar_field(g, seed + 1, band=(0, 3))
        scale = np.max(np.abs(w.coef))
        g_back = transform_to_g(w, th, alpha) + apply_multiplier(th, Multiplier.riesz(alpha))
        assert np.max(np.abs(g_back.coef - w.coef)) < 1e-13 * scale
        assert np.max(np.abs(vorticity_from_f(transform_to_f(w, th, alpha), th, alpha).coef - w.coef)) < 1e-13 * scale

    def test_two_formulas_for_f_agree(self):
        g = make_grid(32, TWO_PI)
        w = random_scalar_field(g, 5, band=(0, 3))
        th = random_scalar_field(g, 6, band=(0, 3))
        gv = transform_to_g(w, th, ALPHA)
        direct = transform_to_f(w, th, ALPHA)
        via_g = f_from_g(gv, th, ALPHA)
        assert np.max(np.abs(direct.coef - via_g.coef)) < 1e-13 * max(1e-300, np.max(np.abs(direct.coef)))

    def test_alpha_validation(self):
        g = make_grid(32, TWO_PI)
        z = SpectralField.zero(g)
        with pytest.raises(ValueError):
            transform_to_g(z, z, 0.45)

    def test_only_two_tags(self):
        st0 = make_state()
        for tag in ("g", "scaled"):
            with pytest.raises(ValueError, match="formulation tag"):
                SimState(0.0, st0.theta, st0.primary, tag, st0.params)
        # an f state of any parameters can be built (the diagnostics of an
        # omega run convert to it); stepping the hybrid form needs nu = kappa = 1
        st_f = SimState(0.0, st0.theta, st0.primary, "f", ModelParams(alpha=ALPHA, nu=0.5))
        for advance in (rhs, lambda s: step(s, 1e-3)):
            with pytest.raises(ValueError, match="nu = kappa = 1"):
                advance(st_f)

    def test_state_conversion_cycle(self):
        st0 = make_state()
        for tag in ("f", "omega"):
            st1 = convert_state(convert_state(st0, tag), "omega")
            assert np.max(np.abs(st1.primary.coef - st0.primary.coef)) < 1e-12


class TestVorticityRHS:
    def test_single_mode_no_self_advection(self):
        g = make_grid(32, TWO_PI)
        X, _ = g.meshgrid()
        p = ModelParams(alpha=ALPHA)
        st_ = SimState(0.0, SpectralField.zero(g), SpectralField.from_physical(g, np.cos(3 * X)), "omega", p)
        dw, _ = rhs(st_)
        expected = -(3.0 ** ALPHA) * np.cos(3 * X)
        assert np.max(np.abs(dw.physical() - expected)) < 1e-12

    def test_theta_without_x1_dependence(self):
        g = make_grid(32, TWO_PI)
        _, Y = g.meshgrid()
        p = ModelParams(alpha=ALPHA)
        st_ = SimState(0.0, SpectralField.from_physical(g, np.sin(Y)), SpectralField.zero(g), "omega", p)
        dw, _ = rhs(st_)
        assert np.max(np.abs(dw.coef)) < 1e-15

    def test_matches_fine_grid_oracle(self):
        st_ = make_state(n=64, seed=7)
        dw, dth = rhs(st_)
        ow, oth = fine_grid_rhs_oracle(st_.theta.physical(), st_.primary.physical(),
                                       64, TWO_PI, ALPHA, 1 - ALPHA)
        scale = max(np.max(np.abs(ow)), np.max(np.abs(oth)))
        assert np.max(np.abs(full_coef(dw) - ow)) < 1e-11 * scale
        assert np.max(np.abs(full_coef(dth) - oth)) < 1e-11 * scale


class TestHybridRHS:
    def test_zero_velocity_reduces_to_linear_terms(self):
        # arrange omega = 0 so u = 0: f = -(R_a + R_a Lambda^(b-a)) theta
        g = make_grid(64, TWO_PI)
        p = ModelParams(alpha=ALPHA)
        th = random_scalar_field(g, 8, band=(0, 3))
        f = SpectralField.zero(g) - apply_multiplier(th, temperature_vorticity_operator(ALPHA))
        st_ = SimState(0.0, th, f, "f", p)
        df, dth = rhs(st_)
        lam_f = apply_multiplier(f, Multiplier.lambda_pow(ALPHA))
        lin_op = Multiplier.compose(Multiplier.lambda_pow(2 * (1 - 2 * ALPHA)), Multiplier.partial(0))
        expected = SpectralField.zero(g) - lam_f + apply_multiplier(th, lin_op)
        assert np.max(np.abs(df.coef - expected.coef)) < 1e-12 * max(1e-300, np.max(np.abs(expected.coef)))

    def test_constant_theta_limit(self):
        # theta = 0 exactly: pure fractional transport of f
        st_ = make_state(formulation="f", seed=9)
        z = SpectralField.zero(st_.theta.grid)
        st0 = SimState(0.0, z, st_.primary, "f", st_.params)
        df, dth = rhs(st0)
        u = biot_savart(st0.primary)
        from fblab.operators import advect
        expected = SpectralField.zero(z.grid) - advect(u, st0.primary) \
            - apply_multiplier(st0.primary, Multiplier.lambda_pow(ALPHA))
        assert np.max(np.abs(df.coef - expected.coef)) < 1e-13 * max(1e-300, np.max(np.abs(expected.coef)))
        assert np.max(np.abs(dth.coef)) < 1e-15

    def test_tendencies_conjugate_to_vorticity_form(self):
        st_w = make_state(seed=10)
        st_f = convert_state(st_w, "f")
        dw, dth_w = rhs(st_w)
        df, dth_f = rhs(st_f)
        Q = temperature_vorticity_operator(ALPHA)
        df_expected = dw - apply_multiplier(dth_w, Q)
        scale = np.max(np.abs(df_expected.coef))
        assert np.max(np.abs(dth_w.coef - dth_f.coef)) < 1e-14
        assert np.max(np.abs(df.coef - df_expected.coef)) < 1e-12 * scale

    def test_one_step_cross_formulation(self):
        st_w = make_state(seed=11)
        st_f = convert_state(st_w, "f")
        dt = 0.01
        got = vorticity_from_f(step(st_f, dt).primary, step(st_f, dt).theta, ALPHA)
        want = step(st_w, dt).primary
        assert rel_l2_diff(got, want) < dt**5 + 1e-11


class TestMergedCommutator:
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    @pytest.mark.parametrize("eps0", [1.0, 0.5])
    def test_nonlinear_matches_two_commutator_sum(self, n, eps0):
        # the two temperature commutators, each with its own weight, as
        # nonlinear evaluated them before they were merged into one
        g = make_grid(n, TWO_PI)
        for seed in (0, 1, 2):
            for tag in ("omega", "f"):
                st_ = initial_state(g, ModelParams(alpha=ALPHA, eps0=eps0), tag, seed=seed,
                                    amplitude_theta=1.0, amplitude_primary=1.0)
                u, th = state_velocity(st_), st_.theta
                if tag == "omega":
                    want_p = -advect(u, st_.primary) + apply_multiplier(th, Multiplier.partial(0))
                    want_t = -advect(u, th)
                else:
                    h = hybrid_terms(st_.params)
                    (w_lin, lin), (w_rc, riesz), (w_sc, smooth) = h.linear, h.riesz_comm, h.smooth_comm
                    want_p = (-h.advect * advect(u, st_.primary)
                              + w_lin * apply_multiplier(th, lin)
                              + w_rc * commutator_apply(riesz, u, th)
                              + w_sc * commutator_apply(smooth, u, th))
                    want_t = -h.advect * advect(u, th)
                got_p, got_t = nonlinear(st_)
                for got, want in ((got_p, want_p), (got_t, want_t)):
                    err = np.max(np.abs(got.coef - want.coef)) / np.max(np.abs(want.coef))
                    assert err <= 1e-13, (tag, seed)


    @pytest.mark.parametrize("eps0", [1.0, 0.5])
    def test_transported_path_is_bit_identical(self, eps0):
        # nonlinear hands u.grad theta of the theta equation to the commutator
        g = make_grid(64, TWO_PI)
        st_ = initial_state(g, ModelParams(alpha=ALPHA, eps0=eps0), "f", seed=4,
                            amplitude_theta=1.0, amplitude_primary=1.0)
        u, th = state_velocity(st_), st_.theta
        h = hybrid_terms(st_.params)
        for op in (h.commutator(), h.riesz_comm[1], h.smooth_comm[1]):
            plain = commutator_apply(op, u, th)
            reused = commutator_apply(op, u, th, advect(u, th))
            assert np.array_equal(plain.coef, reused.coef)


class TestScaledSystem:
    def test_substitution_oracle(self):
        # Solutions related by t -> eps^beta t, x -> eps x must have
        # tendencies related by the same substitution: build Theta on the
        # eps-scaled box by resampling theta at even points, evaluate both
        # right-hand sides, and compare dtheta = eps^beta dTheta.
        eps = 0.5
        n, alpha = 64, ALPHA
        beta = 1 - alpha
        g_big = make_grid(n, TWO_PI)
        st_big = make_state(n=n, seed=13, amp=0.3, formulation="f")

        def subsample(field):
            return field.physical()[::2, ::2]

        # make the state band-limited enough that x -> x/eps sampling is exact
        mask = np.logical_and.outer(np.abs(np.fft.fftfreq(n, 1.0 / n)) <= n // 8,
                                    np.fft.rfftfreq(n, 1.0 / n) <= n // 8)
        theta = SpectralField(g_big, np.where(mask, st_big.theta.coef, 0))
        fvar = SpectralField(g_big, np.where(mask, st_big.primary.coef, 0))
        params1 = ModelParams(alpha=alpha, eps0=1.0)
        st1 = SimState(0.0, theta, fvar, "f", params1)
        df1, dth1 = rhs(st1)

        g_small = make_grid(n // 2, TWO_PI * eps)
        params_eps = ModelParams(alpha=alpha, eps0=eps)
        Theta = SpectralField.from_physical(g_small, subsample(theta))
        F = SpectralField.from_physical(g_small, subsample(fvar))
        st2 = SimState(0.0, Theta, F, "f", params_eps)
        dF, dTheta = rhs(st2)

        want_dTheta = subsample(dth1) * eps ** (-beta)
        want_dF = subsample(df1) * eps ** (-beta)
        scale = max(np.max(np.abs(want_dTheta)), np.max(np.abs(want_dF)))
        assert np.max(np.abs(dTheta.physical() - want_dTheta)) < 1e-10 * scale
        assert np.max(np.abs(dF.physical() - want_dF)) < 1e-10 * scale

    def test_sup_norm_invariant_under_scaling(self):
        eps = 0.5
        n = 64
        st_big = make_state(n=n, seed=14, amp=0.3, formulation="f")
        mask = np.logical_and.outer(np.abs(np.fft.fftfreq(n, 1.0 / n)) <= n // 8,
                                    np.fft.rfftfreq(n, 1.0 / n) <= n // 8)
        g_big = st_big.theta.grid
        theta = SpectralField(g_big, np.where(mask, st_big.theta.coef, 0))
        g_small = make_grid(n // 2, TWO_PI * eps)
        Theta = SpectralField.from_physical(g_small, theta.physical()[::2, ::2])
        # grid maxes drift with the sampling set; the trig-poly sup is invariant
        assert refined_sup(Theta) == pytest.approx(refined_sup(theta), rel=1e-10)
        assert lp_norm(Theta, np.inf) <= refined_sup(theta) * (1 + 1e-12)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=ALPHA, eps0=0.0)
        with pytest.raises(ValueError):
            ModelParams(alpha=ALPHA, eps0=1.5)


class TestStepper:
    def test_exact_dissipation_decay(self):
        g = make_grid(32, TWO_PI)
        X, _ = g.meshgrid()
        p = ModelParams(alpha=ALPHA)
        st_ = SimState(0.0, SpectralField.zero(g), SpectralField.from_physical(g, 0.1 * np.cos(3 * X)), "omega", p)
        out = step(st_, 0.01)
        expected = 0.1 * np.exp(-0.01 * 3.0 ** ALPHA) * np.cos(3 * X)
        assert np.max(np.abs(out.primary.physical() - expected)) < 1e-14

    def test_fourth_order_self_convergence(self):
        st_ = make_state(seed=15)
        T = 0.08
        ref = integrate(st_, T, dt=T / 64, cadence=64).final()
        errs = {}
        for m in (8, 16):
            got = integrate(st_, T, dt=T / m, cadence=m).final()
            errs[m] = rel_l2_diff(got.primary, ref.primary)
        ratio = errs[8] / errs[16]
        assert 11.0 < ratio < 22.0

    def test_inviscid_reversibility(self):
        g = make_grid(64, TWO_PI)
        p = ModelParams(alpha=ALPHA, nu=0.0, kappa=0.0)
        st0 = initial_state(g, p, "omega", seed=16, amplitude_theta=0.4, amplitude_primary=0.4)
        dt = 0.01
        back = step(step(st0, dt), -dt)
        assert rel_l2_diff(back.primary, st0.primary) < 5 * dt**5
        assert rel_l2_diff(back.theta, st0.theta) < 5 * dt**5

    def test_cfl_guard(self):
        st_ = make_state(seed=17)
        limit = cfl_limit(st_, 0.4)
        with pytest.raises(StabilityError):
            step(st_, 10 * limit)

    def test_guard_reuses_the_stage_one_velocity(self):
        # step hands its guard's velocity to stage 1; the guard value is
        # bit-identical to a fresh cfl_limit, and so is the stage result
        st_ = make_state(formulation="f", seed=17, amp=1.0)
        limit = cfl_limit(st_, 0.4)
        u = state_velocity(st_)
        assert cfl_limit(st_, 0.4, u) == limit
        for got, want in zip(nonlinear(st_, u), nonlinear(st_)):
            assert np.array_equal(got.coef, want.coef)
        step(st_, limit)
        with pytest.raises(StabilityError):
            step(st_, limit * (1 + 1e-8))
        out = step(st_, limit, enforce_cfl=False)
        assert np.array_equal(step(st_, limit).primary.coef, out.primary.coef)

    def test_cfl_uses_the_rescaled_velocity(self):
        # a scaled run advects with the eps0-rescaled split; the guard must
        # measure that velocity, not the unscaled one
        g = make_grid(64, TWO_PI)
        st_ = initial_state(g, ModelParams(alpha=ALPHA, eps0=0.5), "scaled", seed=1,
                            amplitude_theta=2.0, amplitude_primary=2.0)
        uf, ut = scaled_velocity_split(st_.primary, st_.theta, st_.params)
        umax = max(lp_norm(uf[0] + ut[0], np.inf), lp_norm(uf[1] + ut[1], np.inf))
        want = 0.4 * min(g.dx / umax, g.dx ** ALPHA)
        assert cfl_limit(st_, 0.4) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.0417, abs=5e-4)

    def test_blowup_detection(self):
        g = make_grid(32, TWO_PI)
        p = ModelParams(alpha=ALPHA)
        bad = np.zeros((32, 17))
        bad[3, 4] = np.nan
        st_ = SimState(0.0, SpectralField.zero(g), SpectralField.zero(g), "omega", p)
        broken = SimState(0.0, SpectralField.zero(g),
                          SpectralField(g.__class__(32, TWO_PI), np.where(np.isnan(bad), np.nan, 0).astype(complex)),
                          "omega", p)
        with pytest.raises(IntegrationBlowupError):
            step(broken, 0.001)


class TestConservation:
    def test_theta_lp_monotone_and_l2_balance(self):
        g = make_grid(64, TWO_PI)
        p = ModelParams(alpha=ALPHA)
        st0 = initial_state(g, p, "omega", kind="bumps", seed=0,
                            amplitude_theta=0.8, amplitude_primary=0.8)
        traj = integrate(st0, 0.5, dt=0.005, cadence=10,
                         accumulators={"theta_diss": theta_dissipation_rate})
        dt = 0.005
        sups = [refined_sup(s.theta) for s in traj.states]
        l2s = [lp_norm(s.theta, 2) for s in traj.states]
        l4s = [lp_norm(s.theta, 4, pad=2 * g.n) for s in traj.states]
        tol = 1e-8 + 50 * dt**4 * sups[0]
        for seq in (sups, l2s, l4s):
            for a, b in zip(seq, seq[1:]):
                assert b <= a + tol
        # energy balance: ||theta(t)||^2 + 2 int ||Lambda^(b/2) theta||^2 = const
        e0 = l2s[0] ** 2
        for state_, integ in zip(traj.states, traj.integrals):
            bal = lp_norm(state_.theta, 2) ** 2 + 2 * integ["theta_diss"]
            assert abs(bal - e0) <= 1e-6 * e0

    def test_velocity_energy_bound(self):
        g = make_grid(64, TWO_PI)
        p = ModelParams(alpha=ALPHA)
        st0 = initial_state(g, p, "omega", seed=18, amplitude_theta=0.5, amplitude_primary=0.5)
        traj = integrate(st0, 0.5, dt=0.005, cadence=20,
                         accumulators={"u_diss": velocity_dissipation_rate})
        u0 = biot_savart(traj.states[0].primary)
        u0_sq = l2_norm_sq(u0[0]) + l2_norm_sq(u0[1])
        th0_sq = lp_norm(traj.states[0].theta, 2) ** 2
        for state_, integ in zip(traj.states, traj.integrals):
            u = biot_savart(state_.primary)
            u_sq = l2_norm_sq(u[0]) + l2_norm_sq(u[1])
            rhs = u0_sq + state_.time * th0_sq
            # the factor-2 dissipation form needs slack; the sharp form
            # (single dissipation integral, min wavenumber 1) is tight
            assert u_sq + 2 * integ["u_diss"] <= rhs + 0.25 * rhs
            assert u_sq + integ["u_diss"] <= rhs + 1e-6 * rhs

    def test_advection_skew_symmetry(self):
        from fblab.operators import advect
        from fblab.model import state_velocity
        st_ = make_state(formulation="f", seed=19)
        u = state_velocity(st_)
        val = inner(advect(u, st_.primary), st_.primary)
        umax = max(lp_norm(u[0], np.inf), lp_norm(u[1], np.inf))
        assert abs(val) <= 1e-12 * l2_norm_sq(st_.primary) * max(umax, 1.0)

    def test_positivity_of_fractional_pairing(self):
        # int F |F|^(p-2) Lambda^a F >= 0 for p in {4, 6} on sampled fields
        g = make_grid(64, TWO_PI)
        for seed in range(6):
            f = random_scalar_field(g, seed, band=(0, 4), decay=1.0)
            lam = apply_multiplier(f, Multiplier.lambda_pow(ALPHA))
            for p in (4, 6):
                val = integral_product(lam, f, p - 1)
                lower = lp_norm(f, 2 * p / (2 - ALPHA)) ** p
                assert val >= -1e-12 * max(lower, 1.0)
                assert np.isfinite(val / lower)

    def test_cross_formulation_trajectory(self):
        st_w = make_state(n=64, seed=20, amp=0.3)
        st_f = convert_state(st_w, "f")
        T = 0.4
        tw = integrate(st_w, T, dt=0.01, cadence=10)
        tf = integrate(st_f, T, dt=0.01, cadence=10)
        w_rec = vorticity_from_f(tf.final().primary, tf.final().theta, ALPHA)
        assert rel_l2_diff(w_rec, tw.final().primary) <= 1e-5


class TestPrimitiveForm:
    def test_curl_of_velocity_rhs_matches_vorticity_rhs(self):
        st_ = make_state(seed=21)
        u = biot_savart(st_.primary)
        du, dth = primitive_rhs(u, st_.theta, st_.params)
        dw_from_u = curl(du)
        dw, dth2 = rhs(st_)
        scale = np.max(np.abs(dw.coef))
        assert np.max(np.abs(dw_from_u.coef - dw.coef)) < 1e-11 * scale
        assert np.max(np.abs(dth.coef - dth2.coef)) < 1e-13
