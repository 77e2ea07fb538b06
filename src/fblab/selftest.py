"""Fast closed-form checks of every module, runnable from the CLI.

Each check exercises a case with a hand-computable answer (single modes,
constants, vanishing commutators).  The battery is the ``selftest``
subcommand's backing and doubles as a smoke test after installs.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, List, Tuple

import numpy as np

from .diagnostics import ExponentSuite, LedgerConfig, energy_terms
from .dyadic import dyadic_block, levels, maximal_function, paraproduct_split
from .ensembles import random_divfree_field, random_scalar_field
from .fields import SpectralField, multiply
from .grid import make_grid
from .model import ModelParams, SimState, initial_state, rhs, step, transform_to_f, transform_to_g
from .multipliers import Multiplier, apply_multiplier
from .norms import l2_norm_sq, lp_norm
from .operators import biot_savart, divergence
from .registry import ConstraintError, build_registry, declare
from .snapshot import read_snapshot, write_snapshot

_TOL = 1e-12


def _grid():
    return make_grid(32, 2 * np.pi)


def check_grid_rejects_bad_sizes() -> bool:
    for bad in ((7, 2 * np.pi), (12, 2 * np.pi), (16, -1.0)):
        try:
            make_grid(*bad)
            return False
        except ValueError:
            pass
    return make_grid(16, np.pi).dk == 2.0


def check_single_mode_multiplier() -> bool:
    g = _grid()
    X, _ = g.meshgrid()
    f = SpectralField.from_physical(g, np.cos(2 * X))
    out = apply_multiplier(f, Multiplier.lambda_pow(0.5))
    return float(np.max(np.abs(out.physical() - np.sqrt(2) * np.cos(2 * X)))) < _TOL


def check_riesz_annihilates_constants() -> bool:
    g = _grid()
    c = SpectralField.from_physical(g, 4.2 * np.ones((g.n, g.n)))
    out = apply_multiplier(c, Multiplier.riesz(0.75))
    return float(np.max(np.abs(out.coef))) < _TOL


def check_composition_law() -> bool:
    g = _grid()
    f = random_scalar_field(g, 1, band=(0, 2))
    two = apply_multiplier(apply_multiplier(f, Multiplier.lambda_pow(0.4)), Multiplier.lambda_pow(0.6))
    one = apply_multiplier(f, Multiplier.lambda_pow(1.0))
    return float(np.max(np.abs(two.coef - one.coef))) < 1e-13


def check_parseval() -> bool:
    g = _grid()
    f = random_scalar_field(g, 2, band=(0, 3))
    return abs(lp_norm(f, 2) ** 2 - l2_norm_sq(f)) < 1e-12 * max(1.0, l2_norm_sq(f))


def check_biot_savart_modes() -> bool:
    g = _grid()
    X, Y = g.meshgrid()
    u = biot_savart(SpectralField.from_physical(g, np.sin(X)))
    ok = float(np.max(np.abs(u[1].physical() + np.cos(X)))) < _TOL
    ok = ok and float(np.max(np.abs(u[0].coef))) < _TOL
    v = biot_savart(SpectralField.from_physical(g, np.sin(Y)))
    ok = ok and float(np.max(np.abs(v[0].physical() - np.cos(Y)))) < _TOL
    w = random_scalar_field(g, 3, band=(0, 3))
    ok = ok and float(np.max(np.abs(divergence(biot_savart(w)).coef))) < _TOL
    return ok


def check_ring_identities() -> bool:
    g = _grid()
    lv = levels(g)
    s = Multiplier.sum(*map(Multiplier.ring, lv)).symbol(g)
    covered = (g.kmag >= 2.0 ** lv.start) & (g.kmag <= 2.0 ** (lv[-1] - 1))
    if float(np.max(np.abs(s[covered] - 1.0))) > 1e-12:
        return False
    X, _ = g.meshgrid()
    c2 = SpectralField.from_physical(g, np.cos(2 * X))
    blk = dyadic_block(c2, 1)
    return float(np.max(np.abs(blk.physical() - np.cos(2 * X)))) < _TOL


def check_paraproduct_constant() -> bool:
    g = _grid()
    f = random_scalar_field(g, 4, band=(0, 3))
    c = SpectralField.from_physical(g, 3.0 * np.ones((g.n, g.n)))
    lh, hl, hh = paraproduct_split(f, c, 2)
    target = dyadic_block(multiply(f, c), 2)
    total = lh + hl + hh
    scale = max(float(np.max(np.abs(target.coef))), 1e-300)
    return (float(np.max(np.abs(hh.coef))) < _TOL
            and float(np.max(np.abs(total.coef - target.coef))) / scale < 1e-11)


def check_maximal_constant() -> bool:
    g = _grid()
    m = maximal_function(2.5 * np.ones((g.n, g.n)))
    return float(np.max(np.abs(m - 2.5))) < 1e-10


def check_transform_closed_forms() -> bool:
    g = _grid()
    X, _ = g.meshgrid()
    theta = SpectralField.from_physical(g, np.sin(X))
    zero = SpectralField.zero(g)
    gvar = transform_to_g(zero, theta, 0.75)
    fvar = transform_to_f(zero, theta, 0.75)
    ok = float(np.max(np.abs(gvar.physical() + np.cos(X)))) < _TOL
    return ok and float(np.max(np.abs(fvar.physical() + 2 * np.cos(X)))) < _TOL


def check_rhs_trivial_cases() -> bool:
    g = _grid()
    X, Y = g.meshgrid()
    p = ModelParams(alpha=0.75)
    # single-mode vorticity: no self-advection
    st = SimState(0.0, SpectralField.zero(g), SpectralField.from_physical(g, np.cos(3 * X)), "omega", p)
    dw, _ = rhs(st)
    expected = -3.0 ** 0.75 * np.cos(3 * X)
    if float(np.max(np.abs(dw.physical() - expected))) > 1e-11:
        return False
    # theta with no x1 dependence: buoyancy source vanishes
    st2 = SimState(0.0, SpectralField.from_physical(g, np.sin(Y)), SpectralField.zero(g), "omega", p)
    dw2, _ = rhs(st2)
    return float(np.max(np.abs(dw2.coef))) < _TOL


def check_exact_dissipation_step() -> bool:
    g = _grid()
    X, _ = g.meshgrid()
    p = ModelParams(alpha=0.75)
    st = SimState(0.0, SpectralField.zero(g), SpectralField.from_physical(g, 0.1 * np.cos(3 * X)), "omega", p)
    out = step(st, 0.01)
    expected = 0.1 * np.exp(-0.01 * 3.0 ** 0.75) * np.cos(3 * X)
    return float(np.max(np.abs(out.primary.physical() - expected))) < 1e-13


def check_ledger_null_terms() -> bool:
    g = _grid()
    p = ModelParams(alpha=0.75)
    st = initial_state(g, p, "f", seed=6, amplitude_theta=0.3, amplitude_primary=0.3)
    (row,) = energy_terms(st, [LedgerConfig("null", 0.0, 0.0, 2)])
    if row.terms["I1"] > 1e-12:
        return False
    st0 = SimState(0.0, SpectralField.zero(g), st.primary, "f", p)
    (row0,) = energy_terms(st0, [LedgerConfig("null", 0.3, 0.2, 4)])
    return all(row0.terms[k] < _TOL for k in ("I2", "I3", "I4", "I5", "K1", "K2", "K3"))


def check_commutator_nulls() -> bool:
    g = _grid()
    ones = np.ones((g.n, g.n))
    from .operators import commutator_apply
    phi = random_scalar_field(g, 7, band=(0, 3))
    v_const = (SpectralField.from_physical(g, 0.4 * ones), SpectralField.from_physical(g, -1.1 * ones))
    c1 = commutator_apply(Multiplier.lambda_pow(0.6), v_const, phi)
    v = random_divfree_field(g, 8, band=(0, 3))
    c2 = commutator_apply(Multiplier.lambda_pow(0.6), v, SpectralField.from_physical(g, 2.0 * ones))
    return (float(np.max(np.abs(c1.coef))) < _TOL and float(np.max(np.abs(c2.coef))) < _TOL)


def check_registry_validation() -> bool:
    reg = build_registry(0.75)
    for needed in ("aaa", "eq20", "eq25", "g50", "eq20_canary_q2"):
        if needed not in reg:
            return False
    try:
        declare("eq20", {"s1": 0.3, "s2": 0.8, "a": 0.75}, {"p": 4 / 3, "q": 2.0, "r": 4.0},
                0.75).validate()
        return False
    except ConstraintError:
        return True


def check_snapshot_roundtrip() -> bool:
    g = _grid()
    f = random_scalar_field(g, 9, band=(0, 3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap.fbl")
        write_snapshot(path, g, {"theta": f})
        grid2, fields = read_snapshot(path)
    return grid2.n == g.n and float(np.max(np.abs(fields["theta"] - f.physical()))) == 0.0


def check_exponent_arithmetic() -> bool:
    ex = ExponentSuite(0.75)
    return (abs(ex.besov_smoothness - 0.25) < 1e-12
            and abs(ex.besov_integrability - 24.0) < 1e-12
            and ex.validity()["q0_at_least_one"]
            and ex.validity()["criterion_exponent_in_range"])


CHECKS: List[Tuple[str, Callable[[], bool]]] = [
    ("grid_rejects_bad_sizes", check_grid_rejects_bad_sizes),
    ("single_mode_multiplier", check_single_mode_multiplier),
    ("riesz_annihilates_constants", check_riesz_annihilates_constants),
    ("multiplier_composition", check_composition_law),
    ("parseval", check_parseval),
    ("biot_savart_modes", check_biot_savart_modes),
    ("ring_identities", check_ring_identities),
    ("paraproduct_constant_factor", check_paraproduct_constant),
    ("maximal_of_constant", check_maximal_constant),
    ("transform_closed_forms", check_transform_closed_forms),
    ("rhs_trivial_cases", check_rhs_trivial_cases),
    ("exact_dissipation_step", check_exact_dissipation_step),
    ("ledger_null_terms", check_ledger_null_terms),
    ("commutator_null_cases", check_commutator_nulls),
    ("registry_validation", check_registry_validation),
    ("snapshot_roundtrip", check_snapshot_roundtrip),
    ("exponent_arithmetic", check_exponent_arithmetic),
]


def run_selftest() -> bool:
    """Run every check of ``CHECKS``, printing PASS or FAIL for each."""
    all_ok = True
    for name, func in CHECKS:
        try:
            ok = bool(func())
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            print(f"FAIL {name}: {exc}")
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return all_ok
