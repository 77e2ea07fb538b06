"""Grid, multiplier, velocity-recovery and norm tests.

Derived expectations come from independent oracles written here: direct
DFT sums over the (few) active modes, analytic integrals, and Parseval.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblab.ensembles import gaussian_bump_field, gaussian_dipole_field, random_divfree_field, random_scalar_field
from fblab.fields import SpectralField, multiply, nice_fft_size, pad_size, power_band
from fblab.grid import make_grid
from fblab.multipliers import Multiplier, apply_multiplier, upsilon, zeta
from fblab.model import ModelParams, hybrid_terms, scaled_velocity_split
from fblab.norms import inner, integral_product, l2_norm_sq, lp_norm, sobolev_norm
from fblab.operators import MeanFreeError, advect, biot_savart, curl, divergence

from oracles import (full_apply_multiplier, full_coef, full_inner, full_integral_product, full_lattice,
                     full_multiply, full_physical_on, full_width_multiply, full_width_physical_on,
                     full_width_power_band, hermitian_defect, leray_project, pad_coef)

NUMPY_FFTS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
              "fftn", "ifftn", "rfftn", "irfftn")


def unscaled_split(f, theta, alpha):
    """The unscaled split (eps0 = 1)."""
    return scaled_velocity_split(f, theta, hybrid_terms(ModelParams(alpha=alpha)))

TWO_PI = 2 * np.pi


def dft_oracle(field, symbol_fn):
    """Independent evaluation: explicit sum of symbol(k) * c_k * exp(i k.x)
    over the active modes, on the grid points."""
    g = field.grid
    X, Y = g.meshgrid()
    lattice, coef = full_lattice(g), full_coef(field)
    out = np.zeros((g.n, g.n), dtype=np.complex128)
    idx = np.argwhere(np.abs(coef) > 0)
    for i, j in idx:
        kx, ky = lattice.kx[i, j], lattice.ky[i, j]
        out += symbol_fn(kx, ky) * coef[i, j] * np.exp(1j * (kx * X + ky * Y))
    return out.real


class TestGrid:
    def test_integer_wavenumbers_on_2pi_box(self):
        g = make_grid(8, TWO_PI)
        # the rfft2 half lattice: all of k_1, and k_2 >= 0
        assert g.kx.shape == g.ky.shape == g.kmag.shape == (8, 5)
        assert g.kx[:, 0].tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
        assert g.ky[0].tolist() == [0, 1, 2, 3, 4]
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
        assert hermitian_defect(f) < 1e-13

    def test_full_layout_refused(self):
        g = make_grid(16, TWO_PI)
        with pytest.raises(ValueError, match="half layout"):
            SpectralField(g, np.zeros((16, 16), dtype=np.complex128))
        assert SpectralField.zero(g).coef.shape == (16, 9)

    def test_immutability(self):
        g = make_grid(32, TWO_PI)
        f = SpectralField.zero(g)
        with pytest.raises(ValueError):
            f.coef[0, 0] = 1.0

    def test_complex_samples_rejected(self):
        g = make_grid(16, TWO_PI)
        vals = np.random.default_rng(2).standard_normal((16, 16))
        with pytest.raises(ValueError, match="real"):
            SpectralField.from_physical(g, vals + 1j * vals)
        # a complex dtype is refused even with zero imaginary part
        with pytest.raises(ValueError, match="real"):
            SpectralField.from_physical(g, vals.astype(np.complex128))

    def test_complex_scalar_rejected(self):
        g = make_grid(16, TWO_PI)
        f = SpectralField.from_physical(g, np.random.default_rng(3).standard_normal((16, 16)))
        for scalar in (1j, np.complex128(2.0)):
            with pytest.raises(TypeError, match="real"):
                f * scalar
            with pytest.raises(TypeError, match="real"):
                scalar * f
        assert np.array_equal((f * 2.0).coef, 2.0 * f.coef)
        assert np.array_equal((np.float64(0.5) * f).coef, 0.5 * f.coef)

    def test_unit_scalar_returns_the_field(self):
        # fields are immutable, and 1 * c is c to the last bit
        g = make_grid(16, TWO_PI)
        f = SpectralField.from_physical(g, np.random.default_rng(4).standard_normal((16, 16)))
        for one in (1.0, 1, np.float64(1.0)):
            assert f * one is f and one * f is f
        assert np.array_equal((f * 1.0).coef, SpectralField(g, f.coef * 1.0).coef)


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
        full = full_coef(f)
        keep = np.argsort(np.abs(full).ravel())[::-1][:20]  # 10 conjugate pairs
        coef = np.zeros_like(full).ravel()
        coef[keep] = full.ravel()[keep]
        f10 = SpectralField(g, coef.reshape(full.shape)[:, :g.n // 2 + 1])
        out = apply_multiplier(f10, Multiplier.lambda_pow(0.63))
        expected = dft_oracle(f10, lambda kx, ky: np.hypot(kx, ky) ** 0.63 if (kx, ky) != (0, 0) else 0.0)
        assert np.max(np.abs(out.physical() - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))

    def test_zero_mode_follows_from_symbol(self):
        # Lambda^0 keeps the mean, every other atom drops it, singular or not
        g = make_grid(32, TWO_PI)
        assert [f.name for f in dataclasses.fields(Multiplier)] == ["kind", "params", "parts"]
        for spec, want in ((Multiplier.lambda_pow(0.0), 1.0), (Multiplier.lambda_pow(-1.0), 0.0),
                           (Multiplier.lambda_pow(0.5), 0.0), (Multiplier.riesz(1.2), 0.0),
                           (Multiplier.partial(0), 0.0), (Multiplier.inv_lap_perp_grad(1), 0.0),
                           (Multiplier.smooth_bump(0), 0.0)):
            assert spec.at_zero() == want and spec.symbol(g)[0, 0] == want
        with pytest.raises(ValueError, match="unknown multiplier kind"):
            Multiplier("bessel").symbol(g)

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
                     Multiplier.partial(0), Multiplier.smooth_bump(2)):
            out = apply_multiplier(f, spec)
            assert hermitian_defect(out) < 1e-13
            # the coefficients really encode a real field
            raw = np.fft.ifft2(full_coef(out)) * g.n**2
            assert np.max(np.abs(raw.imag)) < 1e-13 * max(1.0, np.max(np.abs(raw.real)))

    def test_sum_symbol(self):
        # the sum kind adds the parts' symbols; its value at xi = 0 is the
        # sum of theirs, as a composite's is their product
        g = make_grid(32, TWO_PI)
        f = random_scalar_field(g, 6, band=(0, 3))
        parts = (Multiplier.riesz(0.75), Multiplier.lambda_pow(0.0), Multiplier.partial(1))
        total = Multiplier.sum(*parts)
        assert total.at_zero() == 1.0
        assert np.array_equal(total.symbol(g), sum(p.symbol(g) for p in parts))
        want = sum((apply_multiplier(f, p) for p in parts[1:]), apply_multiplier(f, parts[0]))
        assert np.max(np.abs(apply_multiplier(f, total).coef - want.coef)) < 1e-15
        assert Multiplier.sum(*parts[::2]).at_zero() == 0.0
        assert Multiplier.compose(*parts).at_zero() == 0.0
        identity = Multiplier.lambda_pow(0.0)
        assert Multiplier.compose(identity, identity).at_zero() == 1.0
        twice = Multiplier.sum(identity, identity)
        assert twice.at_zero() == 2.0 and twice.symbol(g)[0, 0] == 2.0
        assert Multiplier.sum(Multiplier.inv_lap_perp_grad(0)).symbol(g)[0, 0] == 0.0

    def test_weighted_sum_symbol(self):
        # weights live in params, default to 1, and scale each part's symbol
        g = make_grid(32, TWO_PI)
        parts = (Multiplier.riesz(0.75), Multiplier.compose(Multiplier.lambda_pow(-0.5), Multiplier.partial(0)))
        weighted = Multiplier.sum(*parts, weights=(0.5, 1.5))
        assert weighted.params == (0.5, 1.5)
        assert Multiplier.sum(*parts) == Multiplier.sum(*parts, weights=(1, 1))
        want = 0.5 * parts[0].symbol(g) + 1.5 * parts[1].symbol(g)
        assert np.max(np.abs(weighted.symbol(g) - want)) <= 1e-15 * np.max(np.abs(want))
        with pytest.raises(ValueError, match="one weight per part"):
            Multiplier.sum(*parts, weights=(1.0,))
        doubled = Multiplier.sum(Multiplier.lambda_pow(0.0), parts[0], weights=(2.0, 1.0))
        assert doubled.at_zero() == 2.0 and doubled.symbol(g)[0, 0] == 2.0

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
        expected = np.sqrt(np.sum((full_lattice(g).kmag ** (2 * s)) * np.abs(full_coef(f)) ** 2) * g.length**2)
        assert sobolev_norm(f, s, 2.0, homogeneous=True) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [24, 150])
    @pytest.mark.parametrize("c", [1e-20, 1e20])
    def test_lp_norm_scales_at_any_p(self, c, p):
        # the direct mean(|f|^p) underflows to 0, or overflows, for c f
        g = make_grid(32, TWO_PI)
        f = random_scalar_field(g, 14, band=(0, 3))
        assert lp_norm(c * f, p) == pytest.approx(c * lp_norm(f, p), rel=1e-13, abs=0)

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
        from fblab.dyadic import BlockSet
        g = make_grid(64, TWO_PI)
        v = random_divfree_field(g, 7, band=(3, 3), decay=0.0)
        for comp in v:
            total = l2_norm_sq(comp)
            blocks = BlockSet(comp)
            for j in blocks.levels:
                energy = l2_norm_sq(blocks.block(j))
                if j == 3:
                    assert energy == pytest.approx(total, rel=1e-12)
                else:
                    assert energy <= 1e-24 * total


def rel_max(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def oracle_fields(n, seed):
    """A band-limited field, white noise (nonzero Nyquist row and
    column), a band-limited field plus explicit Nyquist row, column and
    corner modes, and the Hermitian part of a random full spectrum."""
    g = make_grid(n, TWO_PI)
    rng = np.random.default_rng(seed)
    smooth = random_scalar_field(g, seed, band=(0, 3))
    nyquist = SpectralField.from_physical(g, rng.standard_normal((n, n)))
    sign = (-1.0) ** np.arange(n)
    lines = (smooth.physical() + np.outer(sign, rng.standard_normal(n))
             + np.outer(rng.standard_normal(n), sign) + 0.7 * np.outer(sign, sign))
    full = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = SpectralField.from_physical(g, (np.fft.ifft2(full) * n**2).real)
    return {"smooth": smooth, "nyquist": nyquist, "lines": SpectralField.from_physical(g, lines),
            "skew": skew}


ORACLE_SIZES = [16, 32, 64, 128, 256]


class TestRealProductPath:
    """The rfft2 half layout against the full n-by-n layout of tests/oracles.py."""

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_multiply_matches_complex_path(self, n):
        fields = oracle_fields(n, seed=n)
        names = sorted(fields)
        for i, x in enumerate(names):
            for y in names[i:]:
                a, b = fields[x], fields[y]
                assert rel_max(full_coef(multiply(a, b)), full_multiply(a, b)) <= 1e-13, (x, y)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_sum_of_products_matches_single_products(self, n):
        fields = oracle_fields(n, seed=n + 6)
        c = fields["nyquist"]
        for x, a in fields.items():
            for y, b in fields.items():
                want = multiply(a, b).coef + multiply(b, c).coef
                got = multiply((a, b), (b, c)).coef
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (x, y)
        assert np.array_equal(multiply((a,), (b,)).coef, multiply(a, b).coef)

    def test_sum_of_products_refuses_unpaired_operands(self):
        fields = oracle_fields(16, seed=7)
        a, b = fields["smooth"], fields["nyquist"]
        for left, right in (((a, b), (b,)), ((), ()), (a, (b,)), ((a,), b)):
            with pytest.raises(ValueError):
                multiply(left, right)
        with pytest.raises(ValueError):
            multiply((a, b), (b, oracle_fields(32, seed=7)["smooth"]))

    def test_one_forward_transform_per_advection(self, monkeypatch):
        # every numpy.fft entry point is counted: a padded inverse transform
        # is an ifft and an irfft pass, the forward one an rfft and an fft
        # pass; the velocity's padded samples are kept after its first use
        g = make_grid(64, TWO_PI)
        v = random_divfree_field(g, 3, band=(0, 4))
        phis = [random_scalar_field(g, seed, band=(0, 4)) for seed in (4, 5, 6)]
        calls = []

        def counted(name, transform):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return transform(*args, **kwargs)
            return wrapper

        for name in NUMPY_FFTS:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        for phi in phis:
            advect(v, phi)
        first = ["ifft", "irfft"] * 4 + ["rfft", "fft"]
        later = ["ifft", "irfft"] * 2 + ["rfft", "fft"]
        assert calls == first + later * (len(phis) - 1)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_physical_on_matches_complex_path(self, n):
        for name, f in oracle_fields(n, seed=n + 1).items():
            for m in (n, pad_size(n), 2 * n, 4 * n):
                got = f.physical_on(m)
                assert got.dtype == np.float64
                assert rel_max(got, full_physical_on(f, m)) <= 1e-13, (name, m)
            assert rel_max(f.physical(), full_physical_on(f, n)) <= 1e-13, name

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_physical_on_is_bit_identical_to_full_width(self, n):
        # the band-only passes run the same 1-D transforms as irfft2 over
        # the full-width padded spectrum, on the same numbers
        h = n // 2
        sizes = [pad_size(n), 2 * n] + [nice_fft_size((P + 1) * h + 2) for P in range(1, 6)]
        for name, f in oracle_fields(n, seed=n + 7).items():
            for m in sizes:
                assert np.array_equal(f.physical_on(m), full_width_physical_on(f, m)), (name, m)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_multiply_is_bit_identical_to_full_width(self, n):
        fields = oracle_fields(n, seed=n + 8)
        c = fields["nyquist"]
        for x, a in fields.items():
            for y, b in fields.items():
                assert np.array_equal(multiply(a, b).coef, full_width_multiply(a, b)), (x, y)
                got = multiply((a, b, c), (b, c, a)).coef
                assert np.array_equal(got, full_width_multiply((a, b, c), (b, c, a))), (x, y)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_power_band_is_bit_identical_to_full_width(self, n):
        for name, f in oracle_fields(n, seed=n + 9).items():
            for P in range(1, 6):
                assert np.array_equal(power_band(f, P), full_width_power_band(f, P)), (name, P)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_apply_multiplier_matches_full_layout(self, n):
        specs = (Multiplier.lambda_pow(0.7), Multiplier.lambda_pow(-1.3), Multiplier.riesz(0.8),
                 Multiplier.partial(1), Multiplier.inv_lap_perp_grad(0), Multiplier.smooth_bump(2),
                 Multiplier.compose(Multiplier.lambda_pow(-0.5), Multiplier.partial(0)),
                 Multiplier.sum(Multiplier.riesz(0.75), Multiplier.lambda_pow(0.0)))
        for name, f in oracle_fields(n, seed=n + 3).items():
            for spec in specs:
                got = apply_multiplier(f, spec)
                assert rel_max(full_coef(got), full_apply_multiplier(f, spec)) <= 1e-13, (name, spec)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_pairings_match_full_layout(self, n):
        fields = oracle_fields(n, seed=n + 4)
        for x, a in fields.items():
            want = full_inner(a, a)
            assert abs(l2_norm_sq(a) - want) <= 1e-13 * want, x
            for y, b in fields.items():
                scale = np.sqrt(want * full_inner(b, b))
                assert abs(inner(a, b) - full_inner(a, b)) <= 1e-13 * scale, (x, y)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_constructors_are_hermitian(self, n):
        # columns k_2 = 0 and n/2 hold both members of a conjugate pair
        fields = oracle_fields(n, seed=n + 5)
        g = fields["smooth"].grid
        made = list(fields.values()) + [
            SpectralField.zero(g),
            random_scalar_field(g, (n, 1), band=(0, 4), decay=1.0, dealias_safe=False),
            *random_divfree_field(g, (n, 2), band=(0, 4)),
            gaussian_bump_field(g, (1.0, 2.0), 0.3),
            gaussian_dipole_field(g, (1.0, 2.0), 0.5, 0.3),
            multiply(fields["nyquist"], fields["lines"]),
            apply_multiplier(fields["lines"], Multiplier.lambda_pow(0.7)),
            apply_multiplier(fields["lines"], Multiplier.partial(0)),
        ]
        for f in made:
            assert f.coef.shape == (n, n // 2 + 1)
            assert hermitian_defect(f) <= 1e-15 * max(1.0, np.max(np.abs(f.coef)))

    def test_nyquist_line_is_split_not_dropped(self):
        # a plain slice of the padded spectrum loses the Nyquist column,
        # so the oracle above must see a large error for it
        n = 64
        f = oracle_fields(n, seed=5)["nyquist"]
        m = pad_size(n)
        plain = np.fft.irfft2(pad_coef(full_coef(f), m)[:, :m // 2 + 1], s=(m, m)) * m**2
        want = full_physical_on(f, m)
        assert rel_max(plain, want) > 1e-2
        assert rel_max(f.physical_on(m), want) <= 1e-13

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_integral_product_matches_padded_quadrature(self, n):
        # Parseval against the band of b**P kept on b, versus the literal
        # quadrature on a grid where no alias reaches the zero mode; both
        # round at the size of the integral of |a b**P|
        fields = oracle_fields(n, seed=n + 2)
        for P in range(1, 6):
            m = nice_fft_size(int((P + 1) * n / 2) + 2)
            for x, a in fields.items():
                for y, b in fields.items():
                    av, bv = full_physical_on(a, m), full_physical_on(b, m)
                    scale = float(np.mean(np.abs(av * bv**P)) * TWO_PI**2)
                    got = integral_product(a, b, P)
                    assert abs(got - full_integral_product(a, b, P, m)) <= 1e-13 * scale, (x, y, P)
                    assert b._bands[P].shape == (n, n // 2 + 1)
        with pytest.raises(ValueError):
            integral_product(a, b, 0)

    def test_operands_keep_padded_samples_norms_do_not(self):
        fields = oracle_fields(32, seed=9)
        a, b = fields["smooth"], fields["nyquist"]
        a.physical_on(2 * 32)
        lp_norm(a, 4.0, pad=pad_size(32))
        assert a._padded is None
        first = multiply(a, b)
        kept = a._padded
        assert kept is not None and b._padded is not None
        assert np.array_equal(kept, a.physical_on(pad_size(32)))
        assert np.array_equal(multiply(a, b).coef, first.coef)
        assert a._padded is kept
        with pytest.raises(ValueError):
            kept[0, 0] = 1.0
