"""Grid, multiplier, velocity-recovery and norm tests.

Derived expectations come from independent oracles written here: direct
DFT sums over the (few) active modes, analytic integrals, and Parseval.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblab.ensembles import random_divfree_field, random_scalar_field
from fblab.fields import SpectralField, multiply
from fblab.grid import make_grid
from fblab.multipliers import Multiplier, apply_multiplier, upsilon, zeta
from fblab.model import ModelParams, scaled_velocity_split
from fblab.norms import l2_norm_sq, lp_norm, sobolev_norm
from fblab.operators import MeanFreeError, biot_savart, curl, divergence, leray_project


def unscaled_split(f, theta, alpha):
    """The unscaled split (eps0 = 1)."""
    return scaled_velocity_split(f, theta, ModelParams(alpha=alpha))

TWO_PI = 2 * np.pi


def dft_oracle(field, symbol_fn):
    """Independent evaluation: explicit sum of symbol(k) * c_k * exp(i k.x)
    over the active modes, on the grid points."""
    g = field.grid
    X, Y = g.meshgrid()
    out = np.zeros((g.n, g.n), dtype=np.complex128)
    idx = np.argwhere(np.abs(field.coef) > 0)
    for i, j in idx:
        kx, ky = g.kx[i, j], g.ky[i, j]
        out += symbol_fn(kx, ky) * field.coef[i, j] * np.exp(1j * (kx * X + ky * Y))
    return out.real


class TestGrid:
    def test_integer_wavenumbers_on_2pi_box(self):
        g = make_grid(8, TWO_PI)
        assert sorted(g.mode_ints.tolist()) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert np.count_nonzero(g.kmag == 0) == 1

    def test_wavenumber_spacing(self):
        assert make_grid(16, np.pi).dk == pytest.approx(2.0, abs=0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(7, TWO_PI)
        with pytest.raises(ValueError):
            make_grid(4, TWO_PI)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            make_grid(16, 0.0)


class TestSpectralField:
    def test_round_trip(self):
        g = make_grid(32, TWO_PI)
        vals = np.random.default_rng(0).standard_normal((32, 32))
        f = SpectralField.from_physical(g, vals)
        assert np.max(np.abs(f.physical() - vals)) < 1e-12 * np.max(np.abs(vals))

    def test_hermitian_symmetry_of_real_fields(self):
        g = make_grid(32, TWO_PI)
        f = SpectralField.from_physical(g, np.random.default_rng(1).standard_normal((32, 32)))
        assert f.hermitian_defect() < 1e-13

    def test_immutability(self):
        g = make_grid(32, TWO_PI)
        f = SpectralField.zero(g)
        with pytest.raises(ValueError):
            f.coef[0, 0] = 1.0


class TestMultipliers:
    def test_single_mode_half_power(self):
        g = make_grid(32, TWO_PI)
        X, _ = g.meshgrid()
        f = SpectralField.from_physical(g, np.cos(2 * X))
        out = apply_multiplier(f, Multiplier.lambda_pow(0.5))
        assert np.max(np.abs(out.physical() - np.sqrt(2) * np.cos(2 * X))) < 1e-13

    def test_riesz_on_constant_is_zero(self):
        g = make_grid(32, TWO_PI)
        c = SpectralField.from_physical(g, np.full((32, 32), 2.7))
        out = apply_multiplier(c, Multiplier.riesz(0.75))
        assert np.max(np.abs(out.coef)) == 0.0

    def test_fractional_power_matches_dft_sum(self):
        # ten active mode pairs, symbol |k|^0.63, oracle = explicit DFT sum
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 42, band=(0, 3), decay=0.0)
        keep = np.argsort(np.abs(f.coef).ravel())[::-1][:20]  # 10 conjugate pairs
        coef = np.zeros_like(f.coef).ravel()
        coef[keep] = f.coef.ravel()[keep]
        f10 = SpectralField(g, coef.reshape(f.coef.shape))
        out = apply_multiplier(f10, Multiplier.lambda_pow(0.63))
        expected = dft_oracle(f10, lambda kx, ky: np.hypot(kx, ky) ** 0.63 if (kx, ky) != (0, 0) else 0.0)
        assert np.max(np.abs(out.physical() - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))

    def test_singular_symbol_identity_rule_rejected(self):
        g = make_grid(32, TWO_PI)
        f = SpectralField.zero(g)
        bad = Multiplier.lambda_pow(-1.0).with_zero_mode("identity")
        with pytest.raises(ValueError):
            apply_multiplier(f, bad)

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(-1.0, 1.5), b=st.floats(-1.0, 1.5))
    def test_composition_commutes(self, a, b):
        g = make_grid(32, TWO_PI)
        f = random_scalar_field(g, 7, band=(0, 3))
        two = apply_multiplier(apply_multiplier(f, Multiplier.lambda_pow(a)), Multiplier.lambda_pow(b))
        one = apply_multiplier(f, Multiplier.lambda_pow(a + b))
        assert np.max(np.abs(two.coef - one.coef)) < 1e-13 * max(1.0, np.max(np.abs(one.coef)))

    def test_real_symbol_preserves_hermitian_symmetry(self):
        g = make_grid(32, TWO_PI)
        f = random_scalar_field(g, 5, band=(0, 3))
        for spec in (Multiplier.lambda_pow(0.7), Multiplier.riesz(0.8),
                     Multiplier.partial(0), Multiplier.dyadic_bump(2)):
            out = apply_multiplier(f, spec)
            assert out.hermitian_defect() < 1e-13
            # the coefficients really encode a real field
            raw = np.fft.ifft2(out.coef) * g.n**2
            assert np.max(np.abs(raw.imag)) < 1e-13 * max(1.0, np.max(np.abs(raw.real)))

    def test_sum_symbol(self):
        # the sum kind adds the parts' symbols; its zero mode is the sum of
        # theirs, and it obeys its own rule like a composite
        g = make_grid(32, TWO_PI)
        f = random_scalar_field(g, 6, band=(0, 3))
        parts = (Multiplier.riesz(0.75), Multiplier.lambda_pow(0.0), Multiplier.partial(1))
        total = Multiplier.sum(*parts)
        assert total.zero_mode == "identity"
        assert np.array_equal(total.symbol(g), sum(p.symbol(g) for p in parts))
        want = sum((apply_multiplier(f, p) for p in parts[1:]), apply_multiplier(f, parts[0]))
        assert np.max(np.abs(apply_multiplier(f, total).coef - want.coef)) < 1e-15
        assert Multiplier.sum(*parts[::2]).zero_mode == "annihilate"
        assert total.with_zero_mode("annihilate").symbol(g)[0, 0] == 0.0
        with pytest.raises(ValueError, match="zero-mode rule"):
            Multiplier.sum(Multiplier.lambda_pow(0.0), Multiplier.lambda_pow(0.0))
        with pytest.raises(ValueError, match="singular"):
            Multiplier.sum(Multiplier.inv_lap_perp_grad(0)).with_zero_mode("identity").symbol(g)

    def test_cutoff_shapes(self):
        assert upsilon(0.3) == 1.0 and upsilon(1.0) == 1.0
        assert upsilon(2.0) == 0.0 and upsilon(3.5) == 0.0
        assert 0.0 < upsilon(1.5) < 1.0
        # ring bump vanishes outside (1/2, 2)
        assert zeta(0.5) == 0.0 and zeta(2.0) == 0.0 and zeta(1.0) == 1.0


class TestBiotSavart:
    def test_sin_x1(self):
        g = make_grid(32, TWO_PI)
        X, _ = g.meshgrid()
        u = biot_savart(SpectralField.from_physical(g, np.sin(X)))
        assert np.max(np.abs(u[0].coef)) == 0.0
        assert np.max(np.abs(u[1].physical() + np.cos(X))) < 1e-13

    def test_sin_x2(self):
        g = make_grid(32, TWO_PI)
        _, Y = g.meshgrid()
        u = biot_savart(SpectralField.from_physical(g, np.sin(Y)))
        assert np.max(np.abs(u[0].physical() - np.cos(Y))) < 1e-13
        assert np.max(np.abs(u[1].coef)) == 0.0

    def test_curl_recovers_vorticity(self):
        g = make_grid(64, TWO_PI)
        w = random_scalar_field(g, 3, band=(0, 4))
        u = biot_savart(w)
        assert np.max(np.abs(curl(u).coef - w.coef)) < 1e-12 * np.max(np.abs(w.coef))

    def test_divergence_free(self):
        g = make_grid(64, TWO_PI)
        w = random_scalar_field(g, 4, band=(0, 4))
        u = biot_savart(w)
        assert np.max(np.abs(divergence(u).coef)) <= 1e-14 * np.sqrt(l2_norm_sq(w))

    def test_rejects_mean(self):
        g = make_grid(32, TWO_PI)
        with pytest.raises(MeanFreeError):
            biot_savart(SpectralField.from_physical(g, 1.0 + np.zeros((32, 32))))


class TestVelocityDecomposition:
    def test_zero_theta_reduces_to_biot_savart(self):
        g = make_grid(32, TWO_PI)
        f = random_scalar_field(g, 6, band=(0, 3))
        uf, ut = unscaled_split(f, SpectralField.zero(g), 0.8)
        ub = biot_savart(f)
        assert np.max(np.abs(ut[0].coef)) == 0.0 and np.max(np.abs(ut[1].coef)) == 0.0
        for a, b in zip(uf, ub):
            assert np.max(np.abs(a.coef - b.coef)) == 0.0

    def test_cos_mode_closed_form(self):
        # theta = cos(x1), alpha = 3/4: the temperature-driven velocity is
        # (0, 2 cos x1); each |k| = 1 factor is unimodular so the symbol
        # product collapses to i * (1 + 1) * (-1) * i = 2 on component 2.
        g = make_grid(32, TWO_PI)
        X, _ = g.meshgrid()
        theta = SpectralField.from_physical(g, np.cos(X))
        _, ut = unscaled_split(SpectralField.zero(g), theta, 0.75)
        assert np.max(np.abs(ut[0].coef)) < 1e-15
        assert np.max(np.abs(ut[1].physical() - 2 * np.cos(X))) < 1e-13

    def test_matches_dft_oracle(self):
        alpha, beta = 0.75, 0.25
        g = make_grid(64, TWO_PI)
        theta = random_scalar_field(g, 8, band=(0, 3))
        _, ut = unscaled_split(SpectralField.zero(g), theta, alpha)

        def sym_u2(kx, ky):
            kk = np.hypot(kx, ky)
            if kk == 0:
                return 0.0
            riesz = 1j * kx * kk ** (-alpha) * (1.0 + kk ** (beta - alpha))
            return (-1j * kx / kk**2) * riesz

        expected = dft_oracle(theta, sym_u2)
        assert np.max(np.abs(ut[1].physical() - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))

    def test_sum_matches_full_biot_savart(self):
        from fblab.model import vorticity_from_f
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 9, band=(0, 3))
        theta = random_scalar_field(g, 10, band=(0, 3))
        uf, ut = unscaled_split(f, theta, 0.7)
        omega = vorticity_from_f(f, theta, 0.7)
        ub = biot_savart(omega)
        for a, b, c in zip(uf, ut, ub):
            total = a + b
            assert np.max(np.abs(total.coef - c.coef)) < 1e-12 * max(1e-300, np.max(np.abs(c.coef)))

    def test_alpha_out_of_range(self):
        g = make_grid(32, TWO_PI)
        z = SpectralField.zero(g)
        with pytest.raises(ValueError, match="alpha"):
            unscaled_split(z, z, 0.4)


class TestNorms:
    def test_constant_l2(self):
        g = make_grid(32, TWO_PI)
        one = SpectralField.from_physical(g, np.ones((32, 32)))
        assert lp_norm(one, 2) == pytest.approx(TWO_PI, rel=1e-14)

    def test_sin_l2_analytic(self):
        # integral of sin^2 over the box is 2 pi^2
        g = make_grid(64, TWO_PI)
        X, _ = g.meshgrid()
        f = SpectralField.from_physical(g, np.sin(X))
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(2 * np.pi**2), rel=1e-13)

    def test_sin_linf(self):
        g = make_grid(64, TWO_PI)
        X, _ = g.meshgrid()
        f = SpectralField.from_physical(g, np.sin(X))
        assert abs(lp_norm(f, np.inf) - 1.0) < 1e-3

    def test_rejects_small_p(self):
        g = make_grid(32, TWO_PI)
        with pytest.raises(ValueError):
            lp_norm(SpectralField.zero(g), 0.5)

    def test_parseval(self):
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 11, band=(0, 4))
        assert lp_norm(f, 2) ** 2 == pytest.approx(l2_norm_sq(f), rel=1e-12)

    def test_sobolev_zero_order_doubles(self):
        g = make_grid(32, TWO_PI)
        f = random_scalar_field(g, 12, band=(0, 3))
        assert sobolev_norm(f, 0.0, 2.0) == pytest.approx(2 * lp_norm(f, 2), rel=1e-13)

    def test_sobolev_single_mode(self):
        g = make_grid(32, TWO_PI)
        X, _ = g.meshgrid()
        f = SpectralField.from_physical(g, np.cos(3 * X))
        assert sobolev_norm(f, 1.0, 2.0, homogeneous=True) == pytest.approx(3 * lp_norm(f, 2), rel=1e-13)

    def test_sobolev_parseval_oracle(self):
        # oracle: symbol-weighted Parseval sum over coefficients
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 13, band=(0, 4))
        s = 0.8
        expected = np.sqrt(np.sum((g.kmag ** (2 * s)) * np.abs(f.coef) ** 2) * g.length**2)
        assert sobolev_norm(f, s, 2.0, homogeneous=True) == pytest.approx(expected, rel=1e-12)

    def test_negative_order_needs_mean_free(self):
        g = make_grid(32, TWO_PI)
        with_mean = SpectralField.from_physical(g, 1.0 + np.zeros((32, 32)))
        with pytest.raises(MeanFreeError):
            sobolev_norm(with_mean, -0.5, 2.0, homogeneous=True)


class TestProductsAndProjection:
    def test_dealiased_product_of_single_modes(self):
        g = make_grid(32, TWO_PI)
        X, _ = g.meshgrid()
        a = SpectralField.from_physical(g, np.cos(3 * X))
        b = SpectralField.from_physical(g, np.cos(4 * X))
        prod = multiply(a, b)
        expected = 0.5 * (np.cos(7 * X) + np.cos(X))
        assert np.max(np.abs(prod.physical() - expected)) < 1e-13

    def test_leray_projection_idempotent_and_divfree(self):
        g = make_grid(32, TWO_PI)
        v = (random_scalar_field(g, 14, band=(0, 3)), random_scalar_field(g, 15, band=(0, 3)))
        pv = leray_project(v)
        assert np.max(np.abs(divergence(pv).coef)) < 1e-13
        ppv = leray_project(pv)
        for a, b in zip(pv, ppv):
            assert np.max(np.abs(a.coef - b.coef)) < 1e-14

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_divfree_ensemble_is_divergence_free(self, seed):
        g = make_grid(32, TWO_PI)
        v = random_divfree_field(g, seed, band=(0, 3))
        scale = np.sqrt(l2_norm_sq(v[0]) + l2_norm_sq(v[1]))
        assert np.max(np.abs(divergence(v).coef)) <= 1e-14 * scale

    def test_fixed_seed_reproducible(self):
        g = make_grid(32, TWO_PI)
        a = random_scalar_field(g, 123, band=(0, 3))
        b = random_scalar_field(g, 123, band=(0, 3))
        assert np.array_equal(a.coef, b.coef)

    def test_single_shell_draw_concentrates_on_one_block(self):
        # oracle: block norms through the dyadic decomposition
        from fblab.dyadic import BlockSet, build_partition
        g = make_grid(64, TWO_PI)
        v = random_divfree_field(g, 7, band=(3, 3), decay=0.0)
        part = build_partition(g)
        for comp in v:
            total = l2_norm_sq(comp)
            blocks = BlockSet(comp, part)
            for j in part.levels:
                energy = l2_norm_sq(blocks.block(j))
                if j == 3:
                    assert energy == pytest.approx(total, rel=1e-12)
                else:
                    assert energy <= 1e-24 * total
