"""Registry of commutator-inequality specifications.

Each entry binds a spec id to concrete exponents, the hypothesis checks
of its source estimate, and LHS/RHS evaluators over sampled fields.
Invalid exponent combinations are rejected at construction with the
violated constraint named, e.g. "eq20 requires 2 < q < inf".  Entries
flagged ``canary`` deliberately violate a hypothesis; they are runnable
(for instability exploration) but must never gate a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .dyadic import maximal_function
from .ensembles import random_divfree_field, random_scalar_field
from .fields import SpectralField
from .grid import Grid
from .multipliers import Multiplier, apply_multiplier
from .norms import inner, lp_norm
from .operators import Velocity, advect, commutator_apply, gradient

SPEC_IDS = ("aaa", "fazel5", "fazel6", "eq20", "eq25", "f10", "f20", "eq200", "eq201", "g50")


class ConstraintError(ValueError):
    pass


def _holder_triple(p1, p2, p3) -> bool:
    total = sum(0.0 if p == np.inf else 1.0 / p for p in (p1, p2, p3))
    return abs(total - 1.0) < 1e-9


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


def top_shell(grid: Grid) -> Tuple[int, int]:
    """Highest dyadic level whose ring fits the grid's alias-safe band."""
    import math
    j = int(math.floor(math.log2(grid.dk * (grid.n // 3))))
    return (j, j)


def _resolve_band(band, grid: Grid) -> Tuple[int, int]:
    return top_shell(grid) if band == "top" else band


def _vector_lp(v: Velocity, p: float, order: float = 0.0) -> float:
    comps = v
    if order != 0.0:
        lam = Multiplier.lambda_pow(order)
        comps = (apply_multiplier(v[0], lam), apply_multiplier(v[1], lam))
    return _magnitude_lp(np.hypot(comps[0].physical(), comps[1].physical()), p, v[0].grid)


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


def _magnitude_lp(mag: np.ndarray, p: float, grid: Grid) -> float:
    """L^p norm over the box of the grid samples ``mag``."""
    if p == np.inf:
        return float(np.max(mag))
    area = grid.length ** 2
    return float((np.mean(mag ** p) * area) ** (1.0 / p))


def _lam_lp(f: SpectralField, order: float, p: float) -> float:
    if order == 0.0:
        return lp_norm(f, p)
    return lp_norm(apply_multiplier(f, Multiplier.lambda_pow(order)), p)


@dataclass
class InequalitySpec:
    """One registered estimate: exponents, hypotheses, and evaluators."""

    spec_id: str
    family: str
    exponents: Dict[str, float]
    integrability: Dict[str, float]
    alpha: float = 0.75
    canary: bool = False
    near_boundary: bool = False
    _lhs: Callable = dc_field(default=None, repr=False)
    _rhs: Callable = dc_field(default=None, repr=False)
    needs_pairing_field: bool = False

    def validate(self):
        """Raise ConstraintError naming every violated hypothesis."""
        violations = _CONSTRAINTS[self.family](self.exponents, self.integrability, self.alpha)
        if violations:
            raise ConstraintError(f"{self.spec_id} requires " + "; ".join(violations))

    def draw(self, grid: Grid, seed, trial: Optional["TrialDraw"] = None) -> Dict[str, object]:
        """Fields of one attempt; ``trial`` is the :class:`TrialDraw` of
        (grid, seed) that other specs share, a fresh one if None."""
        trial = trial or TrialDraw(grid, seed)
        out = {"v": trial.field("v"), "phi": trial.field("phi"), "trial": trial}
        if self.needs_pairing_field:
            out["psi"] = trial.field("psi")
        return out

    def lhs(self, grid: Grid, fields) -> float:
        return self._lhs(self, grid, fields)

    def rhs(self, grid: Grid, fields) -> float:
        return self._rhs(self, grid, fields)


# -- hypothesis checks, one per estimate ---------------------------------


def _check_aaa(e, q, alpha):
    v = []
    if not 0 < e["S"] < 1:
        v.append("0 < S < 1")
    if not all(0 <= e[k] <= 1 for k in ("S1", "S2", "S3")):
        v.append("0 <= S1, S2, S3 <= 1")
    if not e["S1"] + e["S2"] + e["S3"] > 1 + e["S"]:
        v.append("S1 + S2 + S3 > 1 + S")
    if not 1 < q["p2"] < np.inf:
        v.append("1 < p2 < inf")
    if not (1 < q["p1"] and 1 < q["p3"]):
        v.append("1 < p1, p3 <= inf")
    if not _holder_triple(q["p1"], q["p2"], q["p3"]):
        v.append("1/p1 + 1/p2 + 1/p3 = 1")
    return v


def _check_fazel5(e, q, alpha):
    v = []
    if not all(0 <= e[k] <= 1 for k in ("s1", "s2")):
        v.append("0 <= s1, s2 <= 1")
    if not e["s1"] + e["s2"] > 1 - alpha:
        v.append("s1 + s2 > 1 - alpha")
    if not q["p3"] < np.inf:
        v.append("p3 < inf")
    if not _holder_triple(q["p1"], q["p2"], q["p3"]):
        v.append("1/p1 + 1/p2 + 1/p3 = 1")
    return v


def _check_fazel6(e, q, alpha):
    v = []
    if not 0 < e["S"] < 1:
        v.append("0 < S < 1")
    if not all(0 <= e[k] < 1 for k in ("s2", "s3")):
        v.append("0 <= s2, s3 < 1")
    if not e["s2"] + e["s3"] > 1 + e["S"]:
        v.append("s2 + s3 > 1 + S")
    if not _holder_triple(q["p1"], q["p2"], q["p3"]):
        v.append("1/p1 + 1/p2 + 1/p3 = 1")
    return v


def _check_eq20(e, q, alpha):
    v = []
    if not 0 <= e["s1"]:
        v.append("0 <= s1")
    if not 0 <= e["s2"] - e["s1"] <= 1:
        v.append("0 <= s2 - s1 <= 1")
    if not 2 < q["q"] < np.inf:
        v.append("2 < q < inf")
    if not (1 < q["p"] < np.inf and 1 < q["r"] < np.inf):
        v.append("1 < p, r < inf")
    if abs(1.0 / q["p"] - 1.0 / q["q"] - 1.0 / q["r"]) > 1e-9:
        v.append("1/p = 1/q + 1/r")
    if not e["s2"] - e["s1"] <= e["a"] <= 1:
        v.append("a in [s2 - s1, 1]")
    return v


def _check_eq25(e, q, alpha):
    v = []
    if not all(e[k] > 0 for k in ("s1", "s2", "s3")):
        v.append("s1, s2, s3 > 0")
    if not (e["s1"] < 1 and e["s3"] < 1):
        v.append("s1 < 1 and s3 < 1")
    if not e["s2"] < e["s1"] + e["s3"]:
        v.append("s2 < s1 + s3")
    return v


def _check_f10(e, q, alpha):
    v = []
    if not 0 <= e["s"] <= 1:
        v.append("0 <= s <= 1")
    if not q["p1"] > 2:
        v.append("p1 > 2")
    if not _holder_triple(q["p1"], q["p2"], q["p3"]):
        v.append("1/p1 + 1/p2 + 1/p3 = 1")
    return v


def _check_f20(e, q, alpha):
    v = _check_f10(e, q, alpha)
    if not e["s"] <= e["a"] <= 1:
        v.append("a in [s, 1]")
    return v


def _check_eq200(e, q, alpha):
    beta = 1.0 - alpha
    v = []
    if not 0 <= e["s"] < alpha:
        v.append("0 <= s < alpha")
    if not beta + e["s"] < e["a"] <= 1:
        v.append("a in (beta + s, 1]")
    if not (2 < q["q"] < np.inf and 2 < q["r"] < np.inf):
        v.append("2 < q, r < inf")
    if abs(0.5 - 1.0 / q["q"] - 1.0 / q["r"]) > 1e-9:
        v.append("1/2 = 1/q + 1/r")
    return v


def _check_eq201(e, q, alpha):
    v = []
    if not 0 <= e["s1"]:
        v.append("0 <= s1")
    if not 0 < e["s2"]:
        v.append("0 < s2")
    if not 0 <= e["s1"] + e["s2"] < 1:
        v.append("0 <= s1 + s2 < 1")
    if not e["s1"] + e["s2"] < e["a"] <= 1:
        v.append("a in (s1 + s2, 1]")
    if not 2 < q["q"] < np.inf:
        v.append("2 < q < inf")
    if not 1 < q["r"] < np.inf:
        v.append("1 < r < inf")
    if abs(1.0 / q["p"] - 1.0 / q["q"] - 1.0 / q["r"]) > 1e-9:
        v.append("1/p = 1/q + 1/r")
    return v


def _check_g50(e, q, alpha):
    v = []
    if not (1 < q["p1"] < np.inf and 1 < q["q1"] < np.inf):
        v.append("1 < p1, q1 < inf")
    if abs(1.0 / q["p1"] + 1.0 / q["q1"] - 1.0) > 1e-9:
        v.append("1/p1 + 1/q1 = 1")
    return v


_CONSTRAINTS = {
    "aaa": _check_aaa, "fazel5": _check_fazel5, "fazel6": _check_fazel6,
    "eq20": _check_eq20, "eq25": _check_eq25, "f10": _check_f10, "f20": _check_f20,
    "eq200": _check_eq200, "eq201": _check_eq201, "g50": _check_g50,
}


# -- draws ---------------------------------------------------------------


def _draw_role(grid: Grid, seed, role: str):
    """The field named by ``role`` ("v", "phi" or "psi") for seed
    (base, trial, attempt); trial t cycles through ENSEMBLE_CYCLE."""
    base, trial, attempt = seed
    cfg = ENSEMBLE_CYCLE[trial % len(ENSEMBLE_CYCLE)]
    if role == "v":
        return random_divfree_field(grid, (base, trial, attempt, 0),
                                    _resolve_band(cfg["vband"], grid), cfg["vdecay"])
    if role == "phi":
        return random_scalar_field(grid, (base, trial, attempt, 1),
                                   _resolve_band(cfg["pband"], grid), cfg["pdecay"])
    return random_scalar_field(grid, (base, trial, attempt, 2), (0, 4), 0.5)


class TrialDraw:
    """The draw of one (grid, trial, attempt), shared by every spec.

    v, phi and psi are drawn on first use with the seed tuples a spec
    drawing alone would use, so specs share them and their sample caches.
    ``transported()`` is v.grad(phi), the operator-free half of every
    commutator on v, and ``grad_magnitude()`` the samples of |grad v|
    that fazel5, f10 and g50 read (one n-by-n array).  ``scalar``
    memoises numbers of the drawn fields under keys of field role and
    exponents, never object ids: norms, and pairing LHS values keyed by
    operator.  A field a spec derives (a commutator, or eq25's smoothed
    velocity with its transport of phi) goes in one slot through
    ``derived``: the next spec asking for the same key reuses it, and
    another key replaces it.  Specs sharing that work run back to back
    (see :func:`lhs_work`), so each is built once a draw, and at most
    one derived field outlives its spec: holding them all would raise
    the peak memory of an estimate run.
    """

    __slots__ = ("grid", "seed", "_fields", "_transported", "_grad_magnitude", "_scalars",
                 "_derived_key", "_derived")

    def __init__(self, grid: Grid, seed):
        self.grid = grid
        self.seed = tuple(seed)
        self._fields: Dict[str, object] = {}
        self._transported: Optional[SpectralField] = None
        self._grad_magnitude: Optional[np.ndarray] = None
        self._scalars: Dict[tuple, float] = {}
        self._derived_key: Optional[tuple] = None
        self._derived = None

    def field(self, role: str):
        if role not in self._fields:
            self._fields[role] = _draw_role(self.grid, self.seed, role)
        return self._fields[role]

    def transported(self) -> SpectralField:
        if self._transported is None:
            self._transported = advect(self.field("v"), self.field("phi"))
        return self._transported

    def grad_magnitude(self) -> np.ndarray:
        if self._grad_magnitude is None:
            self._grad_magnitude = _grad_magnitude(self.field("v"))
        return self._grad_magnitude

    def scalar(self, key: tuple, compute: Callable[[], float]) -> float:
        if key not in self._scalars:
            self._scalars[key] = compute()
        return self._scalars[key]

    def derived(self, key: tuple, compute: Callable[[], object]):
        """The derived field under ``key``: the slot's if its key matches,
        else computed and put in the slot in place of the one held."""
        if self._derived_key != key:
            self._derived_key, self._derived = None, None  # free it before building
            self._derived = compute()
            self._derived_key = key
        return self._derived


# -- evaluators -----------------------------------------------------------
# Numbers of the drawn fields go through the draw's memo (see TrialDraw);
# a fields dict without a "trial" entry is evaluated directly.


def _scalar(fields, key: tuple, compute: Callable[[], float]) -> float:
    trial = fields.get("trial")
    return compute() if trial is None else trial.scalar(key, compute)


def _lp(fields, role: str, order: float, p: float) -> float:
    """||Lambda^order f||_p of the drawn scalar field named by ``role``."""
    return _scalar(fields, ("lam", role, order, p), lambda: _lam_lp(fields[role], order, p))


def _v_lp(fields, p: float, order: float = 0.0) -> float:
    return _scalar(fields, ("vector", "v", p, order), lambda: _vector_lp(fields["v"], p, order))


def _grad_v(fields) -> np.ndarray:
    """|grad v| of the drawn velocity, from the draw's shared samples."""
    trial = fields.get("trial")
    return _grad_magnitude(fields["v"]) if trial is None else trial.grad_magnitude()


def _grad_v_lp(fields, p: float) -> float:
    return _scalar(fields, ("grad", "v", p),
                   lambda: _magnitude_lp(_grad_v(fields), p, fields["v"][0].grid))


# keep every product inside the alias-safe band of the smallest grid used: g50's block
_MID_BLOCK_LEVEL = 3


def lhs_work(spec: InequalitySpec) -> Tuple[float, Multiplier]:
    """The commutator [op, w.grad] phi that the spec's LHS builds, as
    (order, op): w = Lambda^order v is its velocity form (order 0: the
    drawn v).  Specs with equal work, or with one velocity form, share
    it within a draw when they run back to back (see TrialDraw)."""
    e, family = spec.exponents, spec.family
    if family in ("fazel5", "eq200"):
        return 0.0, Multiplier.riesz(spec.alpha)
    if family == "g50":
        return 0.0, Multiplier.smooth_bump(_MID_BLOCK_LEVEL)
    if family == "eq25":
        return -e["s3"], Multiplier.lambda_pow(e["s2"])
    if family in ("eq20", "eq201"):
        return 0.0, Multiplier.lambda_pow(e["s2"])
    return 0.0, Multiplier.lambda_pow(e.get("S", e.get("s")))  # aaa, fazel6, f10, f20


def _commutator(spec: InequalitySpec, fields) -> SpectralField:
    """The LHS commutator of ``spec`` (see :func:`lhs_work`).  In a draw,
    one on v goes in the draw's slot for the next spec with its operator;
    for a smoothed velocity the slot holds that velocity and its transport
    of phi instead, for the next spec of that velocity form."""
    order, op = lhs_work(spec)
    v, phi, trial = fields["v"], fields["phi"], fields.get("trial")

    def smoothed():
        lam = Multiplier.lambda_pow(order)
        w = (apply_multiplier(v[0], lam), apply_multiplier(v[1], lam))
        return w, advect(w, phi)

    if order != 0.0:
        w, transported = smoothed() if trial is None else trial.derived(("velocity", order), smoothed)
        return commutator_apply(op, w, phi, transported=transported)
    if trial is None:
        return commutator_apply(op, v, phi)
    return trial.derived(("commutator", op),
                         lambda: commutator_apply(op, v, phi, transported=trial.transported()))


def _pairing_lhs(spec: InequalitySpec, grid: Grid, fields) -> float:
    _, op = lhs_work(spec)
    return _scalar(fields, ("pairing", op),
                   lambda: abs(inner(_commutator(spec, fields), fields["psi"])))


def _rhs_aaa(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_lp(fields, "phi", e["S1"], q["p1"])
            * _lp(fields, "psi", e["S2"], q["p2"])
            * _v_lp(fields, q["p3"], e["S3"]))


def _rhs_fazel5(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_lp(fields, "phi", e["s1"], q["p1"])
            * _lp(fields, "psi", e["s2"], q["p2"])
            * _grad_v_lp(fields, q["p3"]))


def _rhs_fazel6(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_lp(fields, "phi", 0.0, q["p1"])
            * _lp(fields, "psi", e["s2"], q["p2"])
            * _v_lp(fields, q["p3"], e["s3"]))


def _rhs_f10(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_grad_v_lp(fields, q["p1"])
            * _lp(fields, "phi", e["s"], q["p2"])
            * _lp(fields, "psi", 0.0, q["p3"]))


def _rhs_f20(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_v_lp(fields, q["p1"], e["a"])
            * _lp(fields, "phi", e["s"] + 1.0 - e["a"], q["p2"])
            * _lp(fields, "psi", 0.0, q["p3"]))


def _norm_lhs(spec: InequalitySpec, grid: Grid, fields) -> float:
    e, q = spec.exponents, spec.integrability
    if spec.family == "eq200":
        outer, pnorm = e["s"], 2.0
    elif spec.family == "eq201":
        outer, pnorm = e["s1"], q["p"]
    elif spec.family == "eq25":
        outer, pnorm = -e["s1"], 2.0
    else:  # eq20
        outer, pnorm = -e["s1"], q["p"]
    return _lam_lp(_commutator(spec, fields), outer, pnorm)


def _rhs_eq20(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_v_lp(fields, q["q"], e["a"])
            * _lp(fields, "phi", e["s2"] - e["s1"] + 1.0 - e["a"], q["r"]))


def _rhs_eq201(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_v_lp(fields, q["q"], e["a"])
            * _lp(fields, "phi", 1.0 + e["s2"] + e["s1"] - e["a"], q["r"]))


def _rhs_eq200(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    beta = 1.0 - spec.alpha
    return (_v_lp(fields, q["q"], e["a"])
            * _lp(fields, "phi", 1.0 + beta + e["s"] - e["a"], q["r"]))


def _rhs_eq25(spec, grid, fields):
    e = spec.exponents
    return (_v_lp(fields, np.inf)
            * _lp(fields, "phi", e["s2"] - e["s1"] + 1.0 - e["s3"], 2.0))


def _g50_fields(spec, grid, fields):
    comm = _commutator(spec, fields)
    q1, p1 = spec.integrability["q1"], spec.integrability["p1"]
    rhs_field = (maximal_function(_grad_v(fields) ** q1) ** (1.0 / q1)
                 * maximal_function(np.abs(fields["phi"].physical()) ** p1) ** (1.0 / p1))
    return np.abs(comm.physical()), rhs_field


def _g50_lhs(spec, grid, fields):
    lhs_field, rhs_field = _g50_fields(spec, grid, fields)
    floor = 1e-12 * max(np.max(rhs_field), 1e-300)
    mask = rhs_field > floor
    if not np.any(mask):
        return 0.0
    return float(np.max(lhs_field[mask] / rhs_field[mask]))


def _g50_rhs(spec, grid, fields):
    return 1.0  # ratio already formed pointwise in the LHS evaluator


# -- registry construction -------------------------------------------------


def _spec(spec_id, exponents, integrability, alpha, lhs, rhs, needs_pairing_field=False,
          canary=False, near_boundary=False, skip_validation=False, family=None) -> InequalitySpec:
    s = InequalitySpec(spec_id, family or spec_id, exponents, integrability, alpha,
                       canary, near_boundary, lhs, rhs, needs_pairing_field)
    if not skip_validation:
        s.validate()
    return s


def build_registry(alpha: float = 0.75) -> Dict[str, InequalitySpec]:
    return {
        "aaa": _spec("aaa", {"S": 0.5, "S1": 0.6, "S2": 0.6, "S3": 0.6},
                     {"p1": 3.0, "p2": 3.0, "p3": 3.0}, alpha,
                     _pairing_lhs, _rhs_aaa, needs_pairing_field=True),
        "fazel5": _spec("fazel5", {"s1": 0.2, "s2": 0.2},
                        {"p1": 4.0, "p2": 4.0, "p3": 2.0}, alpha,
                        _pairing_lhs, _rhs_fazel5, needs_pairing_field=True),
        "fazel6": _spec("fazel6", {"S": 0.25, "s2": 0.7, "s3": 0.7},
                        {"p1": np.inf, "p2": 2.0, "p3": 2.0}, alpha,
                        _pairing_lhs, _rhs_fazel6, needs_pairing_field=True),
        "eq20": _spec("eq20", {"s1": 0.3, "s2": 0.8, "a": 0.75},
                      {"p": 2.0, "q": 4.0, "r": 4.0}, alpha, _norm_lhs, _rhs_eq20),
        "eq25": _spec("eq25", {"s1": 0.4, "s2": 0.5, "s3": 0.35}, {}, alpha,
                      _norm_lhs, _rhs_eq25),
        "f10": _spec("f10", {"s": 0.5}, {"p1": 4.0, "p2": 4.0, "p3": 2.0}, alpha,
                     _pairing_lhs, _rhs_f10, needs_pairing_field=True),
        "f20": _spec("f20", {"s": 0.5, "a": 0.75}, {"p1": 4.0, "p2": 4.0, "p3": 2.0}, alpha,
                     _pairing_lhs, _rhs_f20, needs_pairing_field=True),
        "eq200": _spec("eq200", {"s": 0.2, "a": 0.6}, {"q": 4.0, "r": 4.0}, alpha,
                       _norm_lhs, _rhs_eq200),
        "eq201": _spec("eq201", {"s1": 0.2, "s2": 0.3, "a": 0.8},
                       {"p": 2.0, "q": 4.0, "r": 4.0}, alpha, _norm_lhs, _rhs_eq201),
        "g50": _spec("g50", {}, {"p1": 4.0 / 3.0, "q1": 4.0}, alpha, _g50_lhs, _g50_rhs),
        # q = 2 violates the low-high hypothesis of eq20; runnable, never gating
        "eq20_canary_q2": _spec("eq20_canary_q2", {"s1": 0.3, "s2": 0.8, "a": 0.75},
                                {"p": 4.0 / 3.0, "q": 2.0, "r": 4.0}, alpha, _norm_lhs, _rhs_eq20,
                                canary=True, skip_validation=True, family="eq20"),
        # hypotheses satisfied but just inside the s2 < s1 + s3 boundary
        "eq25_boundary": _spec("eq25_boundary", {"s1": 0.4, "s2": 0.74, "s3": 0.35}, {}, alpha,
                               _norm_lhs, _rhs_eq25, near_boundary=True, family="eq25"),
    }
