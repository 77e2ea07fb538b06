"""Commutator-lab tests: null cases, bilinearity, the 4-mode closed form,
duality, the kernel representation formula, and the sampling harness.

The closed-form oracle expands [A, V.grad]phi for single-mode V and phi
by hand over the four output wavenumbers p +- q.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from fblab.commutators import (KERNEL_TAIL_WARN, _direct_convolution, block_kernels,
                               commutator_field, estimate_constants,
                               kernel_tail_fraction, representation_check, smoothing_comparison)
from fblab.ensembles import random_divfree_field, random_scalar_field
from fblab.fields import SpectralField
from fblab.grid import make_grid
from fblab.multipliers import Multiplier, apply_multiplier
from fblab.norms import inner
from fblab.registry import ConstraintError, build_registry
from fblab.operators import advect

from oracles import hypothesis_satisfying_ids, unshared_ratios

TWO_PI = 2 * np.pi


def four_mode_oracle(grid, p_mode, q_mode, a_amp, b_amp, symbol_fn):
    """[A, V.grad]phi for V = a grad_perp(cos(p.x))/1, phi = b cos(q.x).

    V = a sin(p.x) (p2, -p1), so V.grad phi = c [cos((p-q).x) - cos((p+q).x)]/2
    with c = -a b (p2 q1 - p1 q2).  Applying A to that, and comparing with
    V.grad(A phi) where A phi = b Re(m(q) e^{i q.x}), leaves spectrum on the
    four modes +-(p+q), +-(p-q).
    """
    X, Y = grid.meshgrid()
    p1, p2 = p_mode
    q1, q2 = q_mode
    c = -a_amp * b_amp * (p2 * q1 - p1 * q2)

    def m(k):
        return symbol_fn(float(k[0]), float(k[1]))

    # A(V.grad phi): modes +-(p-q) with weight c/2, +-(p+q) with -c/2
    def cos_with_symbol(k, weight):
        return weight * np.real(m(k) * np.exp(1j * (k[0] * X + k[1] * Y)))

    pm = (p1 - q1, p2 - q2)
    pp = (p1 + q1, p2 + q2)
    term1 = cos_with_symbol(pm, c / 2) + cos_with_symbol(pp, -c / 2)

    # V.grad(A phi): A phi = b Re(m(q) e^{iq.x}); gradient brings i q
    mq = m(q_mode)
    aphi_grad1 = b_amp * np.real(1j * q1 * mq * np.exp(1j * (q1 * X + q2 * Y)))
    aphi_grad2 = b_amp * np.real(1j * q2 * mq * np.exp(1j * (q1 * X + q2 * Y)))
    v1 = a_amp * np.sin(p1 * X + p2 * Y) * p2
    v2 = -a_amp * np.sin(p1 * X + p2 * Y) * p1
    term2 = v1 * aphi_grad1 + v2 * aphi_grad2
    return term1 - term2


def stream_mode_velocity(grid, p_mode, a_amp):
    X, Y = grid.meshgrid()
    p1, p2 = p_mode
    v1 = SpectralField.from_physical(grid, a_amp * p2 * np.sin(p1 * X + p2 * Y))
    v2 = SpectralField.from_physical(grid, -a_amp * p1 * np.sin(p1 * X + p2 * Y))
    return v1, v2


class TestCommutatorField:
    def test_constant_velocity_null(self):
        g = make_grid(64, TWO_PI)
        ones = np.ones((64, 64))
        v = (SpectralField.from_physical(g, 0.8 * ones), SpectralField.from_physical(g, -0.4 * ones))
        phi = random_scalar_field(g, 1, band=(0, 3))
        out = commutator_field(Multiplier.lambda_pow(0.7), v, phi)
        assert np.max(np.abs(out.coef)) <= 1e-12 * np.max(np.abs(phi.coef))

    def test_constant_argument_null(self):
        g = make_grid(64, TWO_PI)
        v = random_divfree_field(g, 2, band=(0, 3))
        phi = SpectralField.from_physical(g, np.full((64, 64), 3.3))
        out = commutator_field(Multiplier.riesz(0.75), v, phi)
        assert np.max(np.abs(out.coef)) <= 1e-12

    def test_bilinearity(self):
        g = make_grid(64, TWO_PI)
        v1 = random_divfree_field(g, 3, band=(0, 3))
        v2 = random_divfree_field(g, 4, band=(1, 4))
        phi = random_scalar_field(g, 5, band=(0, 4))
        op = Multiplier.lambda_pow(0.6)
        a, b = 1.7, -0.3
        combo = (a * v1[0] + b * v2[0], a * v1[1] + b * v2[1])
        direct = commutator_field(op, combo, phi)
        split = a * commutator_field(op, v1, phi) + b * commutator_field(op, v2, phi)
        scale = max(np.max(np.abs(direct.coef)), 1e-300)
        assert np.max(np.abs(direct.coef - split.coef)) / scale < 1e-12

    def test_rejects_divergent_velocity(self):
        g = make_grid(64, TWO_PI)
        v = (random_scalar_field(g, 6, band=(0, 3)), random_scalar_field(g, 7, band=(0, 3)))
        phi = random_scalar_field(g, 8, band=(0, 3))
        with pytest.raises(ValueError):
            commutator_field(Multiplier.lambda_pow(0.5), v, phi)

    @pytest.mark.parametrize("p_mode,q_mode", [((1, 2), (3, -1)), ((2, 0), (1, 4)), ((0, 3), (2, 2))])
    def test_four_mode_closed_form(self, p_mode, q_mode):
        g = make_grid(64, TWO_PI)
        X, Y = g.meshgrid()
        a_amp, b_amp = 0.9, 1.2
        s = 0.73

        def symbol(kx, ky):
            kk = np.hypot(kx, ky)
            return kk**s if kk > 0 else 0.0

        v = stream_mode_velocity(g, p_mode, a_amp)
        phi = SpectralField.from_physical(g, b_amp * np.cos(q_mode[0] * X + q_mode[1] * Y))
        got = commutator_field(Multiplier.lambda_pow(s), v, phi)
        want = four_mode_oracle(g, p_mode, q_mode, a_amp, b_amp, symbol)
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got.physical() - want)) / scale < 1e-13

    def test_duality_consistency(self):
        g = make_grid(64, TWO_PI)
        v = random_divfree_field(g, 9, band=(0, 3))
        phi = random_scalar_field(g, 10, band=(0, 4))
        psi = random_scalar_field(g, 11, band=(0, 4))
        op = Multiplier.lambda_pow(0.55)
        paired = inner(commutator_field(op, v, phi), psi)
        direct = inner(apply_multiplier(advect(v, phi), op), psi) \
            - inner(advect(v, apply_multiplier(phi, op)), psi)
        scale = max(abs(paired), abs(direct), 1e-300)
        assert abs(paired - direct) / scale < 1e-11


class TestRepresentationFormula:
    def test_constant_inputs_vanish(self):
        g = make_grid(64, TWO_PI)
        ones = np.ones((64, 64))
        v = (SpectralField.from_physical(g, 0.5 * ones), SpectralField.from_physical(g, 0.1 * ones))
        f = random_scalar_field(g, 12, band=(1, 3))
        res = representation_check(3, v, f)
        assert res.residual <= 1e-12 * max(np.max(np.abs(f.physical())), 1.0)

        v2 = random_divfree_field(g, 13, band=(1, 3))
        fc = SpectralField.from_physical(g, 2.0 * ones)
        res2 = representation_check(3, v2, fc)
        assert res2.residual <= 1e-12

    def test_random_band_limited_residual(self):
        g = make_grid(128, TWO_PI)
        v = random_divfree_field(g, 14, band=(1, 4), decay=1.0)
        f = random_scalar_field(g, 15, band=(1, 4), decay=1.0)
        res = representation_check(4, v, f)
        assert res.relative <= 1e-8

    def test_kernel_tail_reported(self):
        g = make_grid(128, TWO_PI)
        kernel, _, _ = block_kernels(g, 4)
        tail = kernel_tail_fraction(kernel)
        assert 0 <= tail < 1e-2

    def test_kernel_tail_is_a_field_not_a_warning(self):
        g = make_grid(64, TWO_PI)
        v = random_divfree_field(g, 16, band=(1, 3), decay=1.0)
        f = random_scalar_field(g, 17, band=(1, 3), decay=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = representation_check(3, v, f)
        assert res.kernel_tail > KERNEL_TAIL_WARN and res.aliasing_warning
        assert res.relative <= 1e-8

    def test_direct_convolution_is_the_displacement_sum(self, monkeypatch):
        # one np.roll per kept displacement, as the definition reads
        import fblab.commutators as commutators
        n = 32
        rng = np.random.default_rng(18)
        kernel = rng.standard_normal((n, n)) * np.exp(-rng.uniform(0, 60, (n, n)))
        values = rng.standard_normal((n, n))
        for skip in (1e-20, 1e-6):
            want = np.zeros_like(values)
            for d1, d2 in np.argwhere(np.abs(kernel) > skip * np.max(np.abs(kernel))):
                want += kernel[d1, d2] * np.roll(values, (d1, d2), axis=(0, 1))
            monkeypatch.setattr(commutators, "KERNEL_SKIP", skip)
            got = _direct_convolution(kernel, values)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestSampling:
    def test_registry_validation_messages(self):
        from fblab.registry import declare
        with pytest.raises(ConstraintError, match="eq20 requires 2 < q < inf"):
            declare("eq20", {"s1": 0.3, "s2": 0.8, "a": 0.75},
                    {"p": 4 / 3, "q": 2.0, "r": 4.0}, 0.75).validate()
        with pytest.raises(ConstraintError, match="eq25 requires s2 < s1 \\+ s3"):
            declare("eq25", {"s1": 0.4, "s2": 0.9, "s3": 0.35}, {}, 0.75).validate()

    def test_all_registered_specs_sample(self):
        reg = build_registry(0.75)
        for sid in hypothesis_satisfying_ids(reg):
            rep = estimate_constants([reg[sid]], trials=2, grid_sizes=(64,), seed=0)[0]
            assert rep.c_hat > 0 and np.isfinite(rep.c_hat), sid

    def test_reports_are_deterministic(self):
        reg = build_registry(0.75)
        a = estimate_constants([reg["eq20"]], trials=3, grid_sizes=(64,), seed=5)[0]
        b = estimate_constants([reg["eq20"]], trials=3, grid_sizes=(64,), seed=5)[0]
        assert a.ratios == b.ratios

    def test_constant_velocity_ensemble_gives_zero_ratios(self, monkeypatch):
        # degenerate by construction: the commutator vanishes for constant
        # V, so the LHS of every trial's draw is 0
        import fblab.registry as registry

        spec = build_registry(0.75)["eq20"]
        grid = make_grid(64, TWO_PI)
        ones = np.ones((grid.n, grid.n))
        v = (SpectralField.from_physical(grid, 0.3 * ones),
             SpectralField.from_physical(grid, -0.6 * ones))

        def constant_v(grid, seed, role):  # seed is (0, t, 0)
            return v if role == "v" else random_scalar_field(grid, seed, band=(1, 3))

        monkeypatch.setattr(registry, "_draw_role", constant_v)
        for t in range(3):
            assert spec.lhs(spec.draw(grid, (0, t, 0))) < 1e-11

    def test_canary_flagged_and_non_gating(self):
        reg = build_registry(0.75)
        canary = reg["eq20_canary_q2"]
        assert canary.canary
        rep = estimate_constants([canary], trials=2, grid_sizes=(64,), seed=1)[0]
        assert rep.canary  # reported separately, never gates

    def test_near_boundary_flag(self):
        reg = build_registry(0.75)
        assert reg["eq25_boundary"].near_boundary
        rep = estimate_constants([reg["eq25_boundary"]], trials=2, grid_sizes=(64,), seed=2)[0]
        assert np.isfinite(rep.c_hat)

    def test_smoothing_comparison_reports(self):
        out = smoothing_comparison(0.75, trials=4, n=64)
        assert set(out) == {"rough", "smooth", "smooth_over_rough"}
        assert np.isfinite(out["smooth_over_rough"])

    def test_g50_pointwise_constant(self):
        reg = build_registry(0.75)
        rep = estimate_constants([reg["g50"]], trials=4, grid_sizes=(64, 128), seed=3)[0]
        assert rep.c_hat > 0
        assert rep.resolution_stable


class TestSharedDraws:
    """estimate_constants: one draw per (grid, trial, attempt) for every spec."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_one_spec_calls(self, seed):
        reg = build_registry(0.75)
        specs = list(reg.values())
        shared = estimate_constants(specs, trials=6, grid_sizes=(64, 128), seed=seed)
        assert [r.spec_id for r in shared] == [s.spec_id for s in specs]
        for spec, got in zip(specs, shared):
            # every field: ratios, c_hat, c_hat_per_grid, degenerate, flags
            assert got == estimate_constants([spec], trials=6, grid_sizes=(64, 128), seed=seed)[0]
            assert got.ratios == unshared_ratios(spec, 6, (64, 128), seed), spec.spec_id

    @pytest.mark.parametrize("ids", [["eq20"], ["aaa"], None], ids=["eq20", "aaa", "all"])
    def test_one_draw_and_one_transport_per_trial(self, monkeypatch, ids):
        import fblab.operators as operators
        import fblab.registry as registry

        reg = build_registry(0.75)
        specs = [reg[i] for i in ids] if ids else list(reg.values())
        draws, transports, drawn = Counter(), Counter(), {}
        keep = []  # drawn objects stay alive, so their ids stay unique

        def counted_draw(original):
            def draw(grid, seed, *args, **kwargs):
                out = original(grid, seed, *args, **kwargs)
                draws[grid.n, seed] += 1
                keep.append(out)
                drawn[id(out)] = (grid.n, seed)
                return out
            return draw

        advect = operators.advect

        def counted_advect(v, f, *rest):
            if id(v) in drawn and id(f) in drawn:  # v.grad(phi) of the drawn fields
                n, (_, t, attempt, _) = drawn[id(f)]
                transports[n, t, attempt] += 1
            return advect(v, f, *rest)

        for name in ("random_divfree_field", "random_scalar_field"):
            monkeypatch.setattr(registry, name, counted_draw(getattr(registry, name)))
        monkeypatch.setattr(registry, "advect", counted_advect)
        monkeypatch.setattr(operators, "advect", counted_advect)

        reports = estimate_constants(specs, trials=3, grid_sizes=(64, 128), seed=4)
        assert all(r.degenerate == 0 for r in reports)
        reads_psi = any(s.kind == "pairing" or any(f[0] == "psi" for f in s.factors) for s in specs)
        roles = (0, 1, 2) if reads_psi else (0, 1)
        want = {(n, (4, t, 0, role)) for n in (64, 128) for t in range(3) for role in roles}
        assert set(draws) == want and set(draws.values()) == {1}
        assert transports == {(n, t, 0): 1 for n in (64, 128) for t in range(3)}

    def test_shared_work_built_once_per_trial(self, monkeypatch):
        # eq20 and eq20_canary_q2 share [Lambda^0.8, v.grad] phi, fazel5 and
        # eq200 share [R_alpha, v.grad] phi, and eq25 and eq25_boundary share
        # Lambda^-0.35 v: each is built once per (grid, trial, attempt)
        import fblab.registry as registry

        specs = list(build_registry(0.75).values())
        drawn, built, smoothed = {}, Counter(), Counter()
        draw_role, commutator, apply = (registry._draw_role, registry.commutator_apply,
                                        registry.apply_multiplier)

        def recorded_role(grid, seed, role):
            out = draw_role(grid, seed, role)
            drawn[id(out)] = (grid.n, seed[1], seed[2], role)
            return out

        def counted_commutator(op, v, phi, *rest, **kwargs):
            n, t, attempt, _ = drawn[id(phi)]
            form = "v" if drawn.get(id(v), (0,) * 4)[3] == "v" else "smoothed"
            built[n, t, attempt, form, op] += 1
            return commutator(op, v, phi, *rest, **kwargs)

        def counted_apply(f, op, *rest):
            if op == Multiplier.lambda_pow(-0.35):
                smoothed[f.grid.n] += 1
            return apply(f, op, *rest)

        monkeypatch.setattr(registry, "_draw_role", recorded_role)
        monkeypatch.setattr(registry, "commutator_apply", counted_commutator)
        monkeypatch.setattr(registry, "apply_multiplier", counted_apply)
        reports = estimate_constants(specs, trials=2, grid_sizes=(64, 128), seed=4)
        assert all(r.degenerate == 0 for r in reports)
        on_v = {Multiplier.lambda_pow(0.5), Multiplier.riesz(0.75), Multiplier.lambda_pow(0.25),
                Multiplier.lambda_pow(0.8), Multiplier.lambda_pow(0.3), Multiplier.smooth_bump(3)}
        on_smoothed = {Multiplier.lambda_pow(0.5), Multiplier.lambda_pow(0.74)}
        want = {(n, t, 0, form, op): 1 for n in (64, 128) for t in range(2)
                for form, ops in (("v", on_v), ("smoothed", on_smoothed)) for op in ops}
        assert dict(built) == want
        assert smoothed == {64: 2 * 2, 128: 2 * 2}  # two components a trial

    def test_each_derived_field_built_once_per_trial(self, monkeypatch):
        # Lambda^0.6 v serves aaa and eq200, Lambda^0.75 v eq20, f20 and the
        # canary, and Lambda^-0.3 of [Lambda^0.8, v.grad] phi eq20 and the
        # canary: each (field, operator) pair is applied once a draw
        import fblab.registry as registry

        specs = list(build_registry(0.75).values())
        apply, calls, keep = registry.apply_multiplier, Counter(), []

        def counted_apply(f, op, *rest):
            keep.append(f)  # a live field keeps its id unique
            calls[id(f), op] += 1
            return apply(f, op, *rest)

        monkeypatch.setattr(registry, "apply_multiplier", counted_apply)
        reports = estimate_constants(specs, trials=2, grid_sizes=(64, 128), seed=0)
        assert all(r.degenerate == 0 for r in reports)
        repeats = sorted(op.params for (_, op), count in calls.items() if count > 1)
        assert calls and not repeats

    def test_reports_in_input_order_for_any_evaluation_order(self):
        reg = build_registry(0.75)
        specs = list(reg.values())
        want = {r.spec_id: r for r in estimate_constants(specs, trials=2, grid_sizes=(64,), seed=3)}
        shuffled = [specs[i] for i in np.random.default_rng(11).permutation(len(specs))]
        for ordered in (specs[::-1], shuffled):
            reports = estimate_constants(ordered, trials=2, grid_sizes=(64,), seed=3)
            assert [r.spec_id for r in reports] == [s.spec_id for s in ordered]
            for got in reports:
                assert got == want[got.spec_id]  # every field

    @pytest.mark.parametrize("sid", list(build_registry(0.75)))
    def test_work_key_names_the_lhs_commutator(self, monkeypatch, sid):
        import fblab.registry as registry

        spec = build_registry(0.75)[sid]
        calls = []
        commutator = registry.commutator_apply

        def recorded(op, v, phi, *rest, **kwargs):
            calls.append((op, v))
            return commutator(op, v, phi, *rest, **kwargs)

        monkeypatch.setattr(registry, "commutator_apply", recorded)
        estimate_constants([spec], trials=1, grid_sizes=(64,), seed=1)
        order, op = spec.work
        ((got_op, w),) = calls
        assert got_op == op
        v = spec.draw(make_grid(64, TWO_PI), (1, 0, 0)).field("v")
        lam = Multiplier.lambda_pow(order)
        for wc, vc in zip(w, v):
            assert np.array_equal(wc.coef, vc.coef if order == 0.0 else apply_multiplier(vc, lam).coef)

    def test_one_velocity_gradient_per_trial(self, monkeypatch):
        # fazel5, f10 and g50 all read |grad v|: its four components are
        # transformed once per (grid, trial, attempt), not once per spec
        import fblab.registry as registry

        reg = build_registry(0.75)
        specs = [reg[i] for i in ("fazel5", "f10", "g50")]
        want = estimate_constants(specs, trials=3, grid_sizes=(32, 64), seed=2)
        calls = Counter()
        gradient = registry.gradient

        def counted_gradient(f, *rest):
            calls[f.grid.n] += 1
            return gradient(f, *rest)

        monkeypatch.setattr(registry, "gradient", counted_gradient)
        assert estimate_constants(specs, trials=3, grid_sizes=(32, 64), seed=2) == want
        assert calls == {32: 2 * 3, 64: 2 * 3}  # one per velocity component a trial

    def test_degenerate_redraw_stays_with_its_spec(self, monkeypatch):
        import dataclasses

        from fblab.registry import InequalitySpec

        reg = build_registry(0.75)
        base = reg["eq201"]

        rhs = InequalitySpec.rhs

        def rhs_vanishing_on_attempt_0(spec, trial):
            if spec.spec_id == "eq201_flaky" and trial.seed[2] == 0:
                return 0.0
            return rhs(spec, trial)

        monkeypatch.setattr(InequalitySpec, "rhs", rhs_vanishing_on_attempt_0)
        flaky = dataclasses.replace(base, spec_id="eq201_flaky")
        specs = [reg["aaa"], reg["eq20"], flaky, reg["g50"]]
        calls = []
        draw = InequalitySpec.draw

        def recorded_draw(spec, grid, seed, trial=None):
            calls.append((spec.spec_id, grid.n, tuple(seed)))
            return draw(spec, grid, seed, trial)

        monkeypatch.setattr(InequalitySpec, "draw", recorded_draw)
        shared = estimate_constants(specs, trials=3, grid_sizes=(64, 128), seed=2)
        redraws = [c for c in calls if c[2][2] > 0]
        assert sorted(redraws) == sorted(("eq201_flaky", n, (2, t, 1))
                                         for n in (64, 128) for t in range(3))
        for spec, got in zip(specs, shared):
            alone = estimate_constants([spec], trials=3, grid_sizes=(64, 128), seed=2)[0]
            assert got.ratios == alone.ratios and got.degenerate == alone.degenerate
        assert shared[2].degenerate == 6 and all(r.degenerate == 0 for r in shared[:2] + shared[3:])
        # the redraw is the attempt-1 draw, and only the flaky spec reads it
        for n in (64, 128):
            for t in range(3):
                grid = make_grid(n, TWO_PI)
                trial = base.draw(grid, (2, t, 1))
                want = base.lhs(trial) / base.rhs(trial)
                assert shared[2].ratios[n][t] == want
