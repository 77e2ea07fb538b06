"""Registry of commutator-inequality specifications.

Each spec is one declaration, evaluated by one generic path on the
:class:`TrialDraw` its ``draw`` gives (a fresh one for a spec alone):

- LHS: a kind and the commutator C = [op, (Lambda^order v).grad] phi,
  declared as ``work = (order, op)``: ``pairing`` |<C, psi>|, ``norm``
  ||Lambda^outer C||_p for ``outer = (outer, p)``, or ``pointwise`` (g50)
  max_x |C(x)| / prod M(|f|^p)(x)^(1/p) over its factors;
- RHS: the product of ``factors`` (role, order, p) in declared order, each
  ||Lambda^order f||_p of "phi", "psi", |Lambda^order v| ("v") or |grad v|
  ("grad_v"); 1 for a pointwise spec;
- hypotheses: (holds, label) rows.  One function per family builds all
  three from (exponents, integrability, alpha).

:meth:`InequalitySpec.validate` names every violated row, e.g. "eq20
requires 2 < q < inf"; a run validates the specs it requests, none at
construction.  ``canary`` specs violate a hypothesis on purpose: runnable
(for instability exploration), never validated, never gating a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .dyadic import maximal_function
from .ensembles import random_divfree_field, random_scalar_field
from .fields import SpectralField
from .grid import Grid
from .multipliers import Multiplier, apply_multiplier
from .norms import inner, samples_lp
from .operators import Velocity, advect, commutator_apply, gradient


class ConstraintError(ValueError):
    pass


ENSEMBLE_CYCLE = (
    {"vband": (0, 3), "vdecay": 1.0, "pband": (0, 4), "pdecay": 1.0},
    {"vband": (1, 4), "vdecay": 0.0, "pband": (2, 4), "pdecay": 0.5},
    {"vband": (0, 2), "vdecay": 2.0, "pband": (1, 3), "pdecay": 0.0},
    # adversarial: velocity in the lowest blocks, argument in one high shell
    {"vband": (0, 1), "vdecay": 0.0, "pband": (4, 4), "pdecay": 0.0},
    # resolution-coupled draws: the shell rides at the top of the grid's
    # alias-safe band, so a hypothesis-violating estimate is free to let
    # its sampled constant grow with n
    {"vband": (0, 1), "vdecay": 0.0, "pband": "top", "pdecay": 0.0},
    {"vband": "top", "vdecay": 0.0, "pband": "top", "pdecay": 0.0},
)


def _band(band, grid: Grid) -> Tuple[int, int]:
    """``band``, or for "top" the top dyadic ring in the grid's alias-safe band."""
    if band != "top":
        return band
    j = int(math.floor(math.log2(grid.dk * (grid.n // 3))))
    return (j, j)


def _grad_magnitude(v: Velocity) -> np.ndarray:
    """|grad v| on the grid: the pointwise Frobenius norm of the gradient."""
    acc = None
    for comp in v:
        gx, gy = gradient(comp)
        sq = gx.physical() ** 2 + gy.physical() ** 2
        acc = sq if acc is None else acc + sq
    mag = np.sqrt(acc)
    mag.setflags(write=False)
    return mag


@dataclass
class InequalitySpec:
    """One registered estimate: its declaration (see the module docstring)."""

    spec_id: str
    family: str
    exponents: Dict[str, float]
    integrability: Dict[str, float]
    alpha: float
    kind: str                                # "pairing", "norm" or "pointwise"
    work: Tuple[float, Multiplier]           # C = [op, (Lambda^order v).grad] phi
    factors: Tuple[tuple, ...]               # (role, order, p)
    hypotheses: Tuple[Tuple[bool, str], ...]
    outer: Optional[Tuple[float, float]] = None  # a norm LHS's (outer order, p)
    canary: bool = False
    near_boundary: bool = False

    def validate(self):
        """Raise ConstraintError naming every violated hypothesis."""
        violations = [label for holds, label in self.hypotheses if not holds]
        if violations:
            raise ConstraintError(f"{self.spec_id} requires " + "; ".join(violations))

    def draw(self, grid: Grid, seed, trial: Optional["TrialDraw"] = None) -> "TrialDraw":
        """The :class:`TrialDraw` of one attempt: ``trial``, the draw of
        (grid, seed) that other specs share, or a fresh one if None."""
        return trial or TrialDraw(grid, seed)

    def lhs(self, trial: "TrialDraw") -> float:
        if self.kind == "norm":
            return _norm(trial, self.work, *self.outer)
        if self.kind == "pairing":
            key = ("pairing", self.work)
            return trial.scalar(key, lambda: {
                key: abs(inner(_commutator(self.work, trial), trial.field("psi")))})
        return _pointwise_ratio(self, trial)

    def rhs(self, trial: "TrialDraw") -> float:
        if self.kind == "pointwise":
            return 1.0  # the ratio is formed pointwise in the LHS
        return math.prod(_norm(trial, *factor) for factor in self.factors)


def _draw_role(grid: Grid, seed, role: str):
    """The field named by ``role`` ("v", "phi" or "psi") for seed
    (base, trial, attempt); trial t cycles through ENSEMBLE_CYCLE."""
    base, trial, attempt = seed
    cfg = ENSEMBLE_CYCLE[trial % len(ENSEMBLE_CYCLE)]
    if role == "v":
        return random_divfree_field(grid, (base, trial, attempt, 0),
                                    _band(cfg["vband"], grid), cfg["vdecay"])
    if role == "phi":
        return random_scalar_field(grid, (base, trial, attempt, 1),
                                   _band(cfg["pband"], grid), cfg["pdecay"])
    return random_scalar_field(grid, (base, trial, attempt, 2), (0, 4), 0.5)


def norm_plan(specs) -> Dict[tuple, set]:
    """Every p that ``specs`` read of each (role, order) field: their RHS
    factors and, keyed by work, the Lambda^outer C of their norm LHS."""
    plan: Dict[tuple, set] = {}
    for spec in specs:
        reads = spec.factors if spec.kind != "pointwise" else ()
        if spec.kind == "norm":
            reads += ((spec.work,) + spec.outer,)
        for role, order, p in reads:
            plan.setdefault((role, order), set()).add(p)
    return plan


class TrialDraw:
    """The draw of one (grid, trial, attempt), shared by every spec.

    ``field(role)`` draws v, phi or psi when a spec first reads it and
    makes v.grad(phi) ("transported") and the |grad v| samples ("grad_v"),
    each once.  ``scalar`` memoises numbers under keys of role and
    exponents, never object ids.  A norm of (role, order) builds its field
    once for every p that ``plan`` (:func:`norm_plan`) lists, then drops
    it.  A derived field (a commutator, or eq25's smoothed velocity with
    its transport of phi) sits in the one slot of ``derived`` until
    another key replaces it; specs sharing one run back to back
    (``commutators._work_order``), so none is built twice and the peak
    memory stays that of one.
    """

    __slots__ = ("grid", "seed", "plan", "_fields", "_scalars", "_derived_key", "_derived")

    def __init__(self, grid: Grid, seed, plan: Optional[Dict[tuple, set]] = None):
        self.grid = grid
        self.seed = tuple(seed)
        self.plan = plan or {}
        self._fields: Dict[str, object] = {}
        self._scalars: Dict[tuple, float] = {}
        self._derived_key: Optional[tuple] = None
        self._derived = None

    def field(self, role: str):
        if role not in self._fields:
            if role == "transported":
                self._fields[role] = advect(self.field("v"), self.field("phi"))
            elif role == "grad_v":
                self._fields[role] = _grad_magnitude(self.field("v"))
            else:
                self._fields[role] = _draw_role(self.grid, self.seed, role)
        return self._fields[role]

    def scalar(self, key: tuple, compute: Callable[[], Dict[tuple, float]]) -> float:
        """The number under ``key``; ``compute()`` returns numbers by key,
        ``key`` among them, and all of them are memoised."""
        if key not in self._scalars:
            self._scalars.update(compute())
        return self._scalars[key]

    def derived(self, key: tuple, compute: Callable[[], object]):
        """The derived field under ``key``: the slot's if its key matches,
        else computed and put in the slot in place of the one held."""
        if self._derived_key != key:
            self._derived_key, self._derived = None, None  # free it before building
            self._derived = compute()
            self._derived_key = key
        return self._derived


def _commutator(work, trial: TrialDraw) -> SpectralField:
    """C = [op, w.grad] phi for ``work = (order, op)``, w = Lambda^order v.
    One on v goes in the draw's slot for the next spec with its operator;
    for a smoothed velocity the slot holds that velocity and its transport
    of phi instead, for the next spec of that velocity form."""
    order, op = work
    v, phi = trial.field("v"), trial.field("phi")
    if order == 0.0:
        return trial.derived(("commutator", op), lambda: commutator_apply(
            op, v, phi, transported=trial.field("transported")))

    def smoothed():
        lam = Multiplier.lambda_pow(order)
        w = (apply_multiplier(v[0], lam), apply_multiplier(v[1], lam))
        return w, advect(w, phi)

    w, transported = trial.derived(("velocity", order), smoothed)
    return commutator_apply(op, w, phi, transported=transported)


def _samples(trial: TrialDraw, role, order: float) -> np.ndarray:
    """Grid samples of Lambda^order of the field ``role`` names: "phi" or
    "psi", |.| of "v" or of "grad_v" (order 0), or a work key's C."""
    if role == "grad_v":
        return trial.field("grad_v")
    f = trial.field(role) if isinstance(role, str) else _commutator(role, trial)
    if order != 0.0:
        lam = Multiplier.lambda_pow(order)
        f = (apply_multiplier(f[0], lam), apply_multiplier(f[1], lam)) if role == "v" \
            else apply_multiplier(f, lam)
    return np.hypot(f[0].physical(), f[1].physical()) if role == "v" else f.physical()


def _norm(trial: TrialDraw, role, order: float, p: float) -> float:
    """||Lambda^order f||_p of the field ``role`` names (see :func:`_samples`),
    memoised in the draw with every other p its plan lists."""
    def compute():
        samples, area = _samples(trial, role, order), trial.grid.length ** 2
        return {(role, order, q): samples_lp(samples, q, area)
                for q in {p} | trial.plan.get((role, order), set())}

    return trial.scalar((role, order, p), compute)


def _pointwise_ratio(spec: InequalitySpec, trial: TrialDraw) -> float:
    """max_x |C(x)| / bound(x), bound the product of M(|f|^p)^(1/p) over
    the spec's factors, where the bound is above 1e-12 of its max."""
    comm = np.abs(_commutator(spec.work, trial).physical())
    bound = math.prod(maximal_function(np.abs(_samples(trial, role, order)) ** p) ** (1.0 / p)
                      for role, order, p in spec.factors)
    mask = bound > 1e-12 * max(np.max(bound), 1e-300)
    if not np.any(mask):
        return 0.0
    return float(np.max(comm[mask] / bound[mask]))


# -- declarations, one function per family -------------------------------------

_lam = Multiplier.lambda_pow


def _holder(q) -> Tuple[bool, str]:
    total = sum(0.0 if p == np.inf else 1.0 / p for p in (q["p1"], q["p2"], q["p3"]))
    return abs(total - 1.0) < 1e-9, "1/p1 + 1/p2 + 1/p3 = 1"


def _aaa(e, q, alpha):
    return dict(kind="pairing", work=(0.0, _lam(e["S"])),
                factors=(("phi", e["S1"], q["p1"]), ("psi", e["S2"], q["p2"]),
                         ("v", e["S3"], q["p3"])),
                hypotheses=((0 < e["S"] < 1, "0 < S < 1"),
                            (all(0 <= e[k] <= 1 for k in ("S1", "S2", "S3")),
                             "0 <= S1, S2, S3 <= 1"),
                            (e["S1"] + e["S2"] + e["S3"] > 1 + e["S"], "S1 + S2 + S3 > 1 + S"),
                            (1 < q["p2"] < np.inf, "1 < p2 < inf"),
                            (1 < q["p1"] and 1 < q["p3"], "1 < p1, p3 <= inf"),
                            _holder(q)))


def _fazel5(e, q, alpha):
    return dict(kind="pairing", work=(0.0, Multiplier.riesz(alpha)),
                factors=(("phi", e["s1"], q["p1"]), ("psi", e["s2"], q["p2"]),
                         ("grad_v", 0.0, q["p3"])),
                hypotheses=((all(0 <= e[k] <= 1 for k in ("s1", "s2")), "0 <= s1, s2 <= 1"),
                            (e["s1"] + e["s2"] > 1 - alpha, "s1 + s2 > 1 - alpha"),
                            (q["p3"] < np.inf, "p3 < inf"),
                            _holder(q)))


def _fazel6(e, q, alpha):
    return dict(kind="pairing", work=(0.0, _lam(e["S"])),
                factors=(("phi", 0.0, q["p1"]), ("psi", e["s2"], q["p2"]),
                         ("v", e["s3"], q["p3"])),
                hypotheses=((0 < e["S"] < 1, "0 < S < 1"),
                            (all(0 <= e[k] < 1 for k in ("s2", "s3")), "0 <= s2, s3 < 1"),
                            (e["s2"] + e["s3"] > 1 + e["S"], "s2 + s3 > 1 + S"),
                            _holder(q)))


def _eq20(e, q, alpha):
    return dict(kind="norm", work=(0.0, _lam(e["s2"])), outer=(-e["s1"], q["p"]),
                factors=(("v", e["a"], q["q"]), ("phi", e["s2"] - e["s1"] + 1.0 - e["a"], q["r"])),
                hypotheses=((0 <= e["s1"], "0 <= s1"),
                            (0 <= e["s2"] - e["s1"] <= 1, "0 <= s2 - s1 <= 1"),
                            (2 < q["q"] < np.inf, "2 < q < inf"),
                            (1 < q["p"] < np.inf and 1 < q["r"] < np.inf, "1 < p, r < inf"),
                            (abs(1.0 / q["p"] - 1.0 / q["q"] - 1.0 / q["r"]) <= 1e-9,
                             "1/p = 1/q + 1/r"),
                            (e["s2"] - e["s1"] <= e["a"] <= 1, "a in [s2 - s1, 1]")))


def _eq25(e, q, alpha):
    return dict(kind="norm", work=(-e["s3"], _lam(e["s2"])), outer=(-e["s1"], 2.0),
                factors=(("v", 0.0, np.inf), ("phi", e["s2"] - e["s1"] + 1.0 - e["s3"], 2.0)),
                hypotheses=((all(e[k] > 0 for k in ("s1", "s2", "s3")), "s1, s2, s3 > 0"),
                            (e["s1"] < 1 and e["s3"] < 1, "s1 < 1 and s3 < 1"),
                            (e["s2"] < e["s1"] + e["s3"], "s2 < s1 + s3")))


def _f10(e, q, alpha):
    return dict(kind="pairing", work=(0.0, _lam(e["s"])),
                factors=(("grad_v", 0.0, q["p1"]), ("phi", e["s"], q["p2"]),
                         ("psi", 0.0, q["p3"])),
                hypotheses=((0 <= e["s"] <= 1, "0 <= s <= 1"), (q["p1"] > 2, "p1 > 2"),
                            _holder(q)))


def _f20(e, q, alpha):
    return dict(kind="pairing", work=(0.0, _lam(e["s"])),
                factors=(("v", e["a"], q["p1"]), ("phi", e["s"] + 1.0 - e["a"], q["p2"]),
                         ("psi", 0.0, q["p3"])),
                hypotheses=(_f10(e, q, alpha)["hypotheses"]
                            + ((e["s"] <= e["a"] <= 1, "a in [s, 1]"),)))


def _eq200(e, q, alpha):
    beta = 1.0 - alpha
    return dict(kind="norm", work=(0.0, Multiplier.riesz(alpha)), outer=(e["s"], 2.0),
                factors=(("v", e["a"], q["q"]), ("phi", 1.0 + beta + e["s"] - e["a"], q["r"])),
                hypotheses=((0 <= e["s"] < alpha, "0 <= s < alpha"),
                            (beta + e["s"] < e["a"] <= 1, "a in (beta + s, 1]"),
                            (2 < q["q"] < np.inf and 2 < q["r"] < np.inf, "2 < q, r < inf"),
                            (abs(0.5 - 1.0 / q["q"] - 1.0 / q["r"]) <= 1e-9, "1/2 = 1/q + 1/r")))


def _eq201(e, q, alpha):
    return dict(kind="norm", work=(0.0, _lam(e["s2"])), outer=(e["s1"], q["p"]),
                factors=(("v", e["a"], q["q"]), ("phi", 1.0 + e["s2"] + e["s1"] - e["a"], q["r"])),
                hypotheses=((0 <= e["s1"], "0 <= s1"),
                            (0 < e["s2"], "0 < s2"),
                            (0 <= e["s1"] + e["s2"] < 1, "0 <= s1 + s2 < 1"),
                            (e["s1"] + e["s2"] < e["a"] <= 1, "a in (s1 + s2, 1]"),
                            (2 < q["q"] < np.inf, "2 < q < inf"),
                            (1 < q["r"] < np.inf, "1 < r < inf"),
                            (abs(1.0 / q["p"] - 1.0 / q["q"] - 1.0 / q["r"]) <= 1e-9,
                             "1/p = 1/q + 1/r")))


def _g50(e, q, alpha):
    # the level-3 block keeps every product inside the alias-safe band of the smallest grid
    return dict(kind="pointwise", work=(0.0, Multiplier.smooth_bump(3)),
                factors=(("grad_v", 0.0, q["q1"]), ("phi", 0.0, q["p1"])),
                hypotheses=((1 < q["p1"] < np.inf and 1 < q["q1"] < np.inf, "1 < p1, q1 < inf"),
                            (abs(1.0 / q["p1"] + 1.0 / q["q1"] - 1.0) <= 1e-9, "1/p1 + 1/q1 = 1")))


FAMILIES = {"aaa": _aaa, "fazel5": _fazel5, "fazel6": _fazel6, "eq20": _eq20, "eq25": _eq25,
            "f10": _f10, "f20": _f20, "eq200": _eq200, "eq201": _eq201, "g50": _g50}
SPEC_IDS = tuple(FAMILIES)  # each family's registered spec carries the family's name


def declare(spec_id: str, exponents, integrability, alpha: float, family: Optional[str] = None,
            canary: bool = False, near_boundary: bool = False) -> InequalitySpec:
    """The spec ``spec_id`` of ``family`` (default: the id) at these
    exponents; its hypotheses are checked by ``validate``, not here."""
    family = family or spec_id
    return InequalitySpec(spec_id, family, exponents, integrability, alpha, canary=canary,
                          near_boundary=near_boundary,
                          **FAMILIES[family](exponents, integrability, alpha))


def build_registry(alpha: float = 0.75) -> Dict[str, InequalitySpec]:
    specs = (
        declare("aaa", {"S": 0.5, "S1": 0.6, "S2": 0.6, "S3": 0.6},
                {"p1": 3.0, "p2": 3.0, "p3": 3.0}, alpha),
        declare("fazel5", {"s1": 0.2, "s2": 0.2}, {"p1": 4.0, "p2": 4.0, "p3": 2.0}, alpha),
        declare("fazel6", {"S": 0.25, "s2": 0.7, "s3": 0.7},
                {"p1": np.inf, "p2": 2.0, "p3": 2.0}, alpha),
        declare("eq20", {"s1": 0.3, "s2": 0.8, "a": 0.75}, {"p": 2.0, "q": 4.0, "r": 4.0}, alpha),
        declare("eq25", {"s1": 0.4, "s2": 0.5, "s3": 0.35}, {}, alpha),
        declare("f10", {"s": 0.5}, {"p1": 4.0, "p2": 4.0, "p3": 2.0}, alpha),
        declare("f20", {"s": 0.5, "a": 0.75}, {"p1": 4.0, "p2": 4.0, "p3": 2.0}, alpha),
        declare("eq200", {"s": 0.2, "a": 0.6}, {"q": 4.0, "r": 4.0}, alpha),
        declare("eq201", {"s1": 0.2, "s2": 0.3, "a": 0.8}, {"p": 2.0, "q": 4.0, "r": 4.0}, alpha),
        declare("g50", {}, {"p1": 4.0 / 3.0, "q1": 4.0}, alpha),
        # q = 2 violates the low-high hypothesis of eq20; runnable, never gating
        declare("eq20_canary_q2", {"s1": 0.3, "s2": 0.8, "a": 0.75},
                {"p": 4.0 / 3.0, "q": 2.0, "r": 4.0}, alpha, family="eq20", canary=True),
        # hypotheses satisfied but just inside the s2 < s1 + s3 boundary
        declare("eq25_boundary", {"s1": 0.4, "s2": 0.74, "s3": 0.35}, {}, alpha,
                family="eq25", near_boundary=True),
    )
    return {spec.spec_id: spec for spec in specs}
