"""Acceptance suite: the twelve gate criteria, one test per criterion.

Every tolerance is pinned here.  Each test prints a single
"C## <name>: PASS (...)" line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  Expensive trajectories are shared through module fixtures.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from fblab.commutators import (commutator_field, estimate_constant, estimate_constants,
                               representation_check)
from fblab.diagnostics import ExponentSuite, ledger_configs, ledger_run
from fblab.dyadic import build_partition, dyadic_block, paraproduct_split
from fblab.ensembles import random_divfree_field, random_scalar_field
from fblab.fields import SpectralField, multiply
from fblab.grid import make_grid
from fblab.model import (ModelParams, convert_state, initial_state, integrate, state_velocity,
                         theta_dissipation_rate, vorticity_from_f)
from fblab.multipliers import Multiplier, apply_multiplier
from fblab.norms import inner, l2_norm_sq, lp_norm
from fblab.operators import advect
from fblab.registry import build_registry, hypothesis_satisfying_ids
from fblab.cli import EXIT_OK, main

from oracles import refined_sup, rel_l2_diff

TWO_PI = 2 * np.pi


def report(tag: str, detail: str):
    print(f"{tag}: PASS ({detail})")


# -- C1 ----------------------------------------------------------------------


def test_c01_spectral_identities():
    t0 = time.monotonic()
    g = make_grid(128, TWO_PI)
    worst = 0.0

    # composition over a spread of fractional orders
    f = random_scalar_field(g, 100, band=(0, 5), decay=0.5)
    for a, b in ((0.5, 0.5), (-0.7, 1.3), (0.63, -0.2), (1.0, 1.0)):
        two = apply_multiplier(apply_multiplier(f, Multiplier.lambda_pow(a)), Multiplier.lambda_pow(b))
        one = apply_multiplier(f, Multiplier.lambda_pow(a + b))
        worst = max(worst, np.max(np.abs(two.coef - one.coef)) / max(np.max(np.abs(one.coef)), 1e-300))

    # single-mode exactness
    X, _ = g.meshgrid()
    mode = SpectralField.from_physical(g, np.cos(2 * X))
    out = apply_multiplier(mode, Multiplier.lambda_pow(0.5))
    worst = max(worst, float(np.max(np.abs(out.physical() - np.sqrt(2) * np.cos(2 * X)))))

    # Parseval
    worst = max(worst, abs(lp_norm(f, 2) ** 2 - l2_norm_sq(f)) / l2_norm_sq(f))

    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    report("C01 spectral-identities", f"max err {worst:.2e}, {elapsed:.2f}s")


# -- C2 ----------------------------------------------------------------------


def test_c02_partition_of_unity():
    g = make_grid(256, TWO_PI)
    part = build_partition(g)
    dev = np.abs(part.partition_sum() - 1.0)
    worst = float(np.max(dev[part.covered_mask()]))
    assert worst <= 1e-12
    report("C02 partition-of-unity", f"max dev {worst:.2e} at n=256")


# -- C3 ----------------------------------------------------------------------


def test_c03_paraproduct_identity():
    g = make_grid(128, TWO_PI)
    part = build_partition(g)
    worst = 0.0
    for trial in range(20):
        f = random_scalar_field(g, (200, trial, 0), band=(0, 5), decay=0.5)
        h = random_scalar_field(g, (200, trial, 1), band=(0, 5), decay=0.5)
        k = part.jmin + trial % (part.jmax - part.jmin + 1)
        lh, hl, hh = paraproduct_split(f, h, k, partition=part)
        product = multiply(f, h)
        target = dyadic_block(product, k, part)
        total = lh + hl + hh
        scale = max(float(np.max(np.abs(product.coef))), 1e-300)
        worst = max(worst, float(np.max(np.abs(total.coef - target.coef))) / scale)
    assert worst <= 1e-11
    report("C03 paraproduct-identity", f"max rel err {worst:.2e} over 20 draws")


# -- C4 ----------------------------------------------------------------------


def test_c04_theta_maximum_principle_and_balance():
    t0 = time.monotonic()
    dt = 0.01
    g = make_grid(128, TWO_PI)
    params = ModelParams(alpha=0.75)
    st0 = initial_state(g, params, "omega", kind="bumps", seed=0,
                        amplitude_theta=0.8, amplitude_primary=0.8)
    traj = integrate(st0, 2.0, dt=dt, cadence=20,
                     accumulators={"theta_diss": theta_dissipation_rate})
    sups = [refined_sup(s.theta) for s in traj.states]
    tol = 1e-8 + 50.0 * dt**4 * sups[0]
    worst_increase = max((b - a) for a, b in zip(sups, sups[1:]))
    assert worst_increase <= tol, f"sup increased by {worst_increase:.3e} (tol {tol:.3e})"

    e0 = lp_norm(traj.states[0].theta, 2) ** 2
    worst_balance = 0.0
    for state, integ in zip(traj.states, traj.integrals):
        bal = lp_norm(state.theta, 2) ** 2 + 2.0 * integ["theta_diss"]
        worst_balance = max(worst_balance, abs(bal - e0) / e0)
    assert worst_balance <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report("C04 maximum-principle", f"sup drift {worst_increase:.2e}, balance {worst_balance:.2e}, {elapsed:.0f}s")


# -- C5 ----------------------------------------------------------------------


def test_c05_cross_formulation_consistency():
    g = make_grid(128, TWO_PI)
    params = ModelParams(alpha=0.75)
    st_w = initial_state(g, params, "omega", seed=5, amplitude_theta=0.3, amplitude_primary=0.3)
    st_f = convert_state(st_w, "f")
    tw = integrate(st_w, 1.0, dt=None, cfl_c=0.4, cadence=1000)
    tf = integrate(st_f, 1.0, dt=None, cfl_c=0.4, cadence=1000)
    w_rec = vorticity_from_f(tf.final().primary, tf.final().theta, 0.75)
    rel = rel_l2_diff(w_rec, tw.final().primary)
    assert rel <= 1e-5
    report("C05 cross-formulation", f"rel L2 diff {rel:.2e} at T=1, n=128")


# -- C6 ----------------------------------------------------------------------


def test_c06_energy_ledger_directions():
    results = []
    for alpha, seed in ((0.70, 1), (0.75, 2), (0.85, 3)):
        g = make_grid(64, TWO_PI)
        params = ModelParams(alpha=alpha)
        st = initial_state(g, params, "f", seed=seed, amplitude_theta=0.35, amplitude_primary=0.35)
        traj = integrate(st, 0.4, dt=0.005, cadence=4)
        cids = ("l2", "l4", "l6")
        runs = ledger_run(traj.states, [ledger_configs(alpha)[cid] for cid in cids])
        for cid, (_, verdict) in zip(cids, runs):
            assert verdict.all_pass, (alpha, cid, verdict.rows_passed, verdict.rows_checked)
            results.append(f"a={alpha}/{cid}:{verdict.rows_passed}/{verdict.rows_checked}")
    report("C06 energy-ledger", "; ".join(results))


# -- C7 ----------------------------------------------------------------------


def test_c07_advection_skew_symmetry():
    g = make_grid(64, TWO_PI)
    params = ModelParams(alpha=0.75)
    worst = 0.0
    for seed in range(50):
        st = initial_state(g, params, "f", seed=seed, amplitude_theta=0.5, amplitude_primary=0.5)
        u = state_velocity(st)
        val = abs(inner(advect(u, st.primary), st.primary))
        umax = max(lp_norm(u[0], np.inf), lp_norm(u[1], np.inf))
        bound = 1e-12 * l2_norm_sq(st.primary) * max(umax, 1e-300)
        assert val <= bound
        worst = max(worst, val / bound)
    report("C07 advection-skew", f"worst val/bound {worst:.3f} over 50 states")


# -- C8 ----------------------------------------------------------------------


def test_c08_commutator_null_and_bilinearity():
    g = make_grid(64, TWO_PI)
    ones = np.ones((64, 64))
    phi = random_scalar_field(g, 300, band=(0, 4))
    v_const = (SpectralField.from_physical(g, 0.9 * ones), SpectralField.from_physical(g, -0.2 * ones))
    null1 = np.max(np.abs(commutator_field(Multiplier.lambda_pow(0.7), v_const, phi).coef))
    v = random_divfree_field(g, 301, band=(0, 3))
    null2 = np.max(np.abs(commutator_field(Multiplier.riesz(0.75), v,
                                           SpectralField.from_physical(g, 1.5 * ones)).coef))
    assert null1 <= 1e-12 and null2 <= 1e-12

    v2 = random_divfree_field(g, 302, band=(1, 4))
    op = Multiplier.lambda_pow(0.6)
    a, b = 0.8, -1.4
    combo = (a * v[0] + b * v2[0], a * v[1] + b * v2[1])
    direct = commutator_field(op, combo, phi)
    split = a * commutator_field(op, v, phi) + b * commutator_field(op, v2, phi)
    bilin = np.max(np.abs(direct.coef - split.coef)) / max(np.max(np.abs(direct.coef)), 1e-300)
    assert bilin <= 1e-12

    # hand-expanded four-mode oracle
    from test_commutators import four_mode_oracle, stream_mode_velocity
    X, Y = g.meshgrid()
    p_mode, q_mode, a_amp, b_amp, s = (1, 2), (3, -1), 0.9, 1.2, 0.73
    vv = stream_mode_velocity(g, p_mode, a_amp)
    ph = SpectralField.from_physical(g, b_amp * np.cos(q_mode[0] * X + q_mode[1] * Y))
    got = commutator_field(Multiplier.lambda_pow(s), vv, ph)
    want = four_mode_oracle(g, p_mode, q_mode, a_amp, b_amp,
                            lambda kx, ky: np.hypot(kx, ky) ** s if (kx, ky) != (0.0, 0.0) else 0.0)
    oracle_err = np.max(np.abs(got.physical() - want)) / max(np.max(np.abs(want)), 1e-300)
    assert oracle_err <= 1e-13
    report("C08 commutator-cases", f"nulls {max(null1, null2):.1e}, bilin {bilin:.1e}, oracle {oracle_err:.1e}")


# -- C9 ----------------------------------------------------------------------


def test_c09_estimate_resolution_stability():
    t0 = time.monotonic()
    registry = build_registry(0.75)
    lines = []
    ids = hypothesis_satisfying_ids(registry)
    reps = estimate_constants([registry[sid] for sid in ids], trials=200, grid_sizes=(64, 128), seed=7)
    for sid, rep in zip(ids, reps):
        growth = rep.c_hat_per_grid[128] / max(rep.c_hat_per_grid[64], 1e-300)
        assert growth <= 2.0, (sid, growth)
        lines.append(f"{sid}:{growth:.2f}")
    # canaries run and are reported, but never gate
    canary = estimate_constant(registry["eq20_canary_q2"], trials=50, grid_sizes=(64, 128), seed=7)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    report("C09 estimate-stability",
           f"growth {' '.join(lines)}; canary growth {canary.growth_factor():.2f} (non-gating); {elapsed:.0f}s")


# -- C10 ---------------------------------------------------------------------


def test_c10_representation_formula():
    g = make_grid(128, TWO_PI)
    worst, tail = 0.0, 0.0
    for seed in range(10):
        v = random_divfree_field(g, (400, seed, 0), band=(1, 4), decay=1.0)
        f = random_scalar_field(g, (400, seed, 1), band=(1, 4), decay=1.0)
        res = representation_check(4, v, f)
        worst = max(worst, res.relative)
        tail = max(tail, res.kernel_tail)
    assert worst <= 1e-8
    report("C10 representation-formula",
           f"max rel residual {worst:.2e} over 10 pairs; worst kernel tail {tail:.2e}")


# -- C11 ---------------------------------------------------------------------


def test_c11_exponent_arithmetic():
    for alpha in (0.70, 0.75, 0.80, 0.85):
        ex = ExponentSuite(alpha, rho=0.01)
        beta = 1.0 - alpha
        assert ex.gamma == beta / 2.0 - 2.0 * 0.01
        assert ex.interpolation_a == (3.0 - 4.0 * alpha) / (2.0 * beta)
        assert ex.q0 == 4.0 * (2.0 * alpha - 1.0) / (3.0 * alpha * beta + 6.0 * alpha - 4.0)
        assert ex.delta == (3.0 - 4.0 * alpha) / (alpha / 2.0)
        assert ex.besov_smoothness == 3.0 * alpha - 2.0
        assert ex.besov_integrability == 6.0 / (3.0 * alpha - 2.0)
        v = ex.validity()
        assert v["q0_at_least_one"], alpha
        assert v["criterion_exponent_in_range"], alpha
        # the delta in (0,1) claim is tied to its case condition 3-4a > 0;
        # above the case boundary the sign flip is what must hold
        if alpha < 0.75:
            assert v["delta_in_unit_interval"], alpha
        else:
            assert v["case_switch_nonpositive"], alpha
    report("C11 exponent-arithmetic", "alpha in {0.70,0.75,0.80,0.85} reproduced with validity ranges")


# -- C12 ---------------------------------------------------------------------


def test_c12_determinism_and_selftest(tmp_path, capsys):
    ini = """
[model]
n = 32
alpha = 0.75
formulation = f
t_end = 0.1
dt = 0.01
cadence = 2
seed = 3
amplitude_theta = 0.4
amplitude_primary = 0.4

[estimates]
specs = eq20
trials = 3
grids = 64

[output]
directory = {out}
"""
    outs = []
    for label in ("a", "b"):
        out = str(tmp_path / label)
        cfg = tmp_path / f"{label}.ini"
        cfg.write_text(ini.format(out=out))
        assert main(["--config", str(cfg), "ledger"]) == EXIT_OK
        assert main(["--config", str(cfg), "estimate"]) == EXIT_OK
        outs.append(out)
    for name in ("series.csv", "ledger_l2.csv", "ledger_l4.csv", "ledger_l6.csv", "est_eq20.csv"):
        b1 = Path(os.path.join(outs[0], name)).read_bytes()
        b2 = Path(os.path.join(outs[1], name)).read_bytes()
        assert b1 == b2, name

    t0 = time.monotonic()
    assert main(["selftest"]) == EXIT_OK
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    capsys.readouterr()
    report("C12 determinism", f"byte-identical CSVs; selftest {elapsed:.1f}s")
