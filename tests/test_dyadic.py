"""Dyadic decomposition, paraproduct, Besov and maximal-function tests.

The partition oracle is the telescoping identity evaluated directly from
the cutoff; Besov values are cross-checked against blocks rebuilt by
hand from the ring symbol.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblab.dyadic import (BlockSet, build_partition, besov_norm, default_levels, dyadic_block,
                          maximal_function, measure_block_domination, measure_fefferman_stein,
                          measurement_rows, paraproduct_split, square_function)
from fblab.ensembles import random_scalar_field
from fblab.fields import SpectralField, multiply
from fblab.grid import make_grid
from fblab.multipliers import upsilon, zeta
from fblab.norms import inner, l2_norm_sq, lp_norm

from oracles import full_coef, full_lattice, reconstruct

TWO_PI = 2 * np.pi


class TestPartition:
    def test_covered_annulus_sums_to_one(self):
        g = make_grid(256, TWO_PI)
        part = build_partition(g)
        dev = np.abs(part.partition_sum() - 1.0)
        assert np.max(dev[part.covered_mask()]) <= 1e-12

    def test_telescoping_oracle(self):
        # oracle: the sum over levels is upsilon(2^-jmax r) - upsilon(2^(1-jmin) r)
        g = make_grid(64, TWO_PI)
        part = build_partition(g)
        direct = (upsilon(g.kmag * 2.0 ** (-part.jmax))
                  - upsilon(g.kmag * 2.0 ** (1 - part.jmin)))
        assert np.max(np.abs(part.partition_sum() - direct)) < 1e-14

    def test_single_radius_values(self):
        # at |xi| = 1.5 the j = 0 term is upsilon(1.5) (the 2r factor is gone)
        assert zeta(1.5) == pytest.approx(upsilon(1.5), abs=1e-15)
        # at |xi| = 1 the telescoping sum collapses to 1
        total = sum(zeta(2.0 ** (-j) * 1.0) for j in range(-20, 21))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_ring_support(self):
        g = make_grid(64, TWO_PI)
        part = build_partition(g)
        for j in part.levels:
            sym = part.ring_symbol(j)
            outside = (g.kmag <= 2.0 ** (j - 1)) | (g.kmag >= 2.0 ** (j + 1))
            assert np.max(np.abs(sym[outside])) <= 1e-15

    def test_jmax_too_small_rejected(self):
        g = make_grid(64, TWO_PI)
        auto_min, auto_max = default_levels(g)
        with pytest.raises(ValueError):
            build_partition(g, jmin=auto_min, jmax=auto_max - 2)


class TestBlocks:
    def test_block_of_cos2x_at_level_one(self):
        g = make_grid(64, TWO_PI)
        X, _ = g.meshgrid()
        f = SpectralField.from_physical(g, np.cos(2 * X))
        blk = dyadic_block(f, 1)
        assert np.max(np.abs(blk.physical() - np.cos(2 * X))) < 1e-13

    def test_block_far_away_vanishes(self):
        g = make_grid(64, TWO_PI)
        X, _ = g.meshgrid()
        f = SpectralField.from_physical(g, np.cos(2 * X))
        # only transform roundoff can leak into the disjoint ring
        assert np.max(np.abs(dyadic_block(f, 5).coef)) < 1e-15

    def test_out_of_range_rejected(self):
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 0, band=(0, 3))
        part = build_partition(g)
        with pytest.raises(ValueError):
            dyadic_block(f, part.jmax + 1, part)

    def test_reconstruction(self):
        g = make_grid(64, TWO_PI)
        vals = np.random.default_rng(5).standard_normal((64, 64))
        f = SpectralField.from_physical(g, vals)
        rec = reconstruct(BlockSet(f, build_partition(g)))
        assert np.max(np.abs(rec.coef - f.coef)) < 1e-12 * np.max(np.abs(f.coef))

    def test_far_blocks_orthogonal(self):
        g = make_grid(64, TWO_PI)
        f = SpectralField.from_physical(g, np.random.default_rng(6).standard_normal((64, 64)))
        part = build_partition(g)
        bs = BlockSet(f, part)
        for j in part.levels:
            for l in part.levels:
                if abs(j - l) >= 2:
                    assert abs(inner(bs.block(j), bs.block(l))) < 1e-13 * l2_norm_sq(f)


class TestSquareFunction:
    def test_single_block_field(self):
        g = make_grid(64, TWO_PI)
        X, _ = g.meshgrid()
        f = SpectralField.from_physical(g, np.cos(2 * X))
        s_weight = 0.7
        S = square_function(f, s_weight)
        expected = 2.0 ** (1 * s_weight) * np.abs(np.cos(2 * X))
        assert np.max(np.abs(S - expected)) < 1e-12

    def test_l2_equivalence_window(self):
        # Parseval with sum(zeta_j^2) in [1/2, 1] on the covered annulus
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 7, band=(1, 4))
        ratio = lp_norm(SpectralField.from_physical(g, square_function(f, 0.0)), 2) / lp_norm(f, 2)
        assert 1 / np.sqrt(2) - 1e-9 <= ratio <= 1.0 + 1e-9

    def test_two_separated_blocks_add_in_square(self):
        g = make_grid(64, TWO_PI)
        X, Y = g.meshgrid()
        f = SpectralField.from_physical(g, np.cos(2 * X) + np.cos(16 * Y))
        w = 0.3
        S = square_function(f, w)
        expected = np.sqrt((2.0 ** (2 * 1 * w)) * np.cos(2 * X) ** 2
                           + (2.0 ** (2 * 4 * w)) * np.cos(16 * Y) ** 2)
        assert np.max(np.abs(S - expected)) < 1e-12


class TestBesov:
    def test_single_mode_value(self):
        g = make_grid(64, TWO_PI)
        X, _ = g.meshgrid()
        f = SpectralField.from_physical(g, np.cos(2 * X))
        assert besov_norm(f, 1.0, 2.0) == pytest.approx(2 * lp_norm(f, 2), rel=1e-13)

    def test_contracts_l2_at_zero_smoothness(self):
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 8, band=(0, 4))
        assert besov_norm(f, 0.0, 2.0) <= lp_norm(f, 2) * (1 + 1e-12)

    def test_matches_brute_force_blocks(self):
        # oracle: rebuild every block by direct symbol multiplication
        g = make_grid(64, TWO_PI)
        part = build_partition(g)
        f = random_scalar_field(g, 9, band=(0, 4), decay=0.5)
        s, r = 0.6, 3.0
        best = 0.0
        for j in part.levels:
            sym = zeta(full_lattice(g).kmag / 2.0 ** j)
            block_vals = np.fft.ifft2(full_coef(f) * sym).real * g.n**2
            norm_r = (np.mean(np.abs(block_vals) ** r) * g.length**2) ** (1 / r)
            best = max(best, 2.0 ** (j * s) * norm_r)
        assert besov_norm(f, s, r) == pytest.approx(best, rel=1e-12)

    def test_rejects_r_below_one(self):
        g = make_grid(64, TWO_PI)
        with pytest.raises(ValueError):
            besov_norm(random_scalar_field(g, 1, band=(0, 2)), 0.5, 0.7)


class TestParaproduct:
    def test_constant_factor(self):
        g = make_grid(128, TWO_PI)
        part = build_partition(g)
        f = random_scalar_field(g, 10, band=(0, 5))
        c = SpectralField.from_physical(g, np.full((128, 128), 2.0))
        lh, hl, hh = paraproduct_split(f, c, 3, partition=part)
        target = dyadic_block(multiply(f, c), 3, part)
        assert np.max(np.abs(hh.coef)) == 0.0
        total = lh + hl + hh
        scale = max(np.max(np.abs(target.coef)), 1e-300)
        assert np.max(np.abs(total.coef - target.coef)) / scale < 1e-12
        assert np.max(np.abs(target.coef - 2.0 * dyadic_block(f, 3, part).coef)) / scale < 1e-12

    def test_disjoint_single_modes_give_nothing(self):
        g = make_grid(128, TWO_PI)
        X, _ = g.meshgrid()
        part = build_partition(g)
        f = SpectralField.from_physical(g, np.cos(16 * X))
        lh, hl, hh = paraproduct_split(f, f, 0, partition=part)
        target = dyadic_block(multiply(f, f), 0, part)
        # k = 0 ring sees neither 2^5-scale blocks nor the 32- and 0-mode products
        for piece in (lh, hl, hh, target):
            assert np.max(np.abs(piece.coef)) < 1e-14

    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(0, 6), seeds=st.tuples(st.integers(0, 999), st.integers(0, 999)))
    def test_identity_random(self, k, seeds):
        g = make_grid(64, TWO_PI)
        part = build_partition(g)
        f = random_scalar_field(g, seeds[0], band=(0, 4), decay=0.5)
        h = random_scalar_field(g, seeds[1], band=(0, 4), decay=0.5)
        lh, hl, hh = paraproduct_split(f, h, k, partition=part)
        target = dyadic_block(multiply(f, h), k, part)
        total = lh + hl + hh
        scale = max(np.max(np.abs(multiply(f, h).coef)), 1e-300)
        assert np.max(np.abs(total.coef - target.coef)) / scale < 1e-11

    def test_out_of_range_level(self):
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 11, band=(0, 3))
        with pytest.raises(ValueError):
            paraproduct_split(f, f, 99)


class TestMaximalFunction:
    def test_constant(self):
        g = make_grid(64, TWO_PI)
        m = maximal_function(np.full((64, 64), -3.0), g)
        assert np.max(np.abs(m - 3.0)) < 1e-10

    def test_dominates_pointwise(self):
        g = make_grid(64, TWO_PI)
        rng = np.random.default_rng(12)
        bump = np.zeros((64, 64))
        bump[10:14, 50:54] = rng.standard_normal((4, 4))
        m = maximal_function(bump, g)
        assert np.all(m >= np.abs(bump) - 1e-12)

    def test_block_domination_constant_recorded(self):
        g = make_grid(64, TWO_PI)
        f = random_scalar_field(g, 13, band=(0, 4), decay=1.0)
        c = measure_block_domination(f)
        assert np.isfinite(c) and c < 10.0

    def test_domination_resolution_stable(self):
        consts = {}
        for n in (64, 128):
            g = make_grid(n, TWO_PI)
            f = random_scalar_field(g, 14, band=(0, 4), decay=1.0)
            consts[n] = measure_block_domination(f)
        assert consts[128] <= 2.0 * consts[64] and consts[64] <= 2.0 * consts[128]

    def test_fefferman_stein_recorded_and_stable(self):
        vals = {}
        for n in (64, 128):
            g = make_grid(n, TWO_PI)
            part = build_partition(g)
            f = random_scalar_field(g, 15, band=(0, 4), decay=0.5)
            blocks = [dyadic_block(f, j, part).physical() for j in part.levels]
            vals[n] = {p: measure_fefferman_stein(blocks, p, g) for p in (1.5, 2.0, 4.0)}
        for p in (1.5, 2.0, 4.0):
            assert np.isfinite(vals[64][p]) and vals[64][p] > 0
            assert vals[128][p] <= 2.0 * vals[64][p]

    def test_measurement_rows_shape(self):
        rows = measurement_rows((64,), seed=3)
        assert all(len(r) == 5 for r in rows)
        names = {r[0] for r in rows}
        assert names == {"block_domination", "fefferman_stein"}
