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
from typing import Callable, Dict, List, Tuple

import numpy as np

from .dyadic import maximal_function
from .ensembles import random_divfree_field, random_scalar_field
from .fields import SpectralField
from .grid import Grid
from .multipliers import Multiplier, apply_multiplier
from .norms import inner, lp_norm
from .operators import Velocity, commutator_apply, gradient

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
    mag = np.hypot(comps[0].physical(), comps[1].physical())
    if p == np.inf:
        return float(np.max(mag))
    area = v[0].grid.length ** 2
    return float((np.mean(mag ** p) * area) ** (1.0 / p))


def _grad_frobenius_lp(v: Velocity, p: float) -> float:
    acc = None
    for comp in v:
        gx, gy = gradient(comp)
        sq = gx.physical() ** 2 + gy.physical() ** 2
        acc = sq if acc is None else acc + sq
    mag = np.sqrt(acc)
    if p == np.inf:
        return float(np.max(mag))
    area = v[0].grid.length ** 2
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
    _draw: Callable = dc_field(default=None, repr=False)
    needs_pairing_field: bool = False

    def validate(self):
        """Raise ConstraintError naming every violated hypothesis."""
        violations = _CONSTRAINTS[self.family](self.exponents, self.integrability, self.alpha)
        if violations:
            raise ConstraintError(f"{self.spec_id} requires " + "; ".join(violations))

    def draw(self, grid: Grid, seed) -> Dict[str, object]:
        return self._draw(self, grid, seed)

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


def _draw_standard(spec: InequalitySpec, grid: Grid, seed) -> Dict[str, object]:
    base, trial, attempt = seed
    cfg = ENSEMBLE_CYCLE[trial % len(ENSEMBLE_CYCLE)]
    v = random_divfree_field(grid, (base, trial, attempt, 0),
                             _resolve_band(cfg["vband"], grid), cfg["vdecay"])
    phi = random_scalar_field(grid, (base, trial, attempt, 1),
                              _resolve_band(cfg["pband"], grid), cfg["pdecay"])
    out = {"v": v, "phi": phi}
    if spec.needs_pairing_field:
        out["psi"] = random_scalar_field(grid, (base, trial, attempt, 2), (0, 4), 0.5)
    return out


# -- evaluators -----------------------------------------------------------


def _pairing_lhs(spec: InequalitySpec, grid: Grid, fields) -> float:
    e = spec.exponents
    if spec.family == "fazel5":
        op = Multiplier.riesz(spec.alpha)
    else:
        s = e.get("S", e.get("s"))
        op = Multiplier.lambda_pow(s)
    comm = commutator_apply(op, fields["v"], fields["phi"])
    return abs(inner(comm, fields["psi"]))


def _rhs_aaa(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_lam_lp(fields["phi"], e["S1"], q["p1"])
            * _lam_lp(fields["psi"], e["S2"], q["p2"])
            * _vector_lp(fields["v"], q["p3"], e["S3"]))


def _rhs_fazel5(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_lam_lp(fields["phi"], e["s1"], q["p1"])
            * _lam_lp(fields["psi"], e["s2"], q["p2"])
            * _grad_frobenius_lp(fields["v"], q["p3"]))


def _rhs_fazel6(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (lp_norm(fields["phi"], q["p1"])
            * _lam_lp(fields["psi"], e["s2"], q["p2"])
            * _vector_lp(fields["v"], q["p3"], e["s3"]))


def _rhs_f10(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_grad_frobenius_lp(fields["v"], q["p1"])
            * _lam_lp(fields["phi"], e["s"], q["p2"])
            * lp_norm(fields["psi"], q["p3"]))


def _rhs_f20(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_vector_lp(fields["v"], q["p1"], e["a"])
            * _lam_lp(fields["phi"], e["s"] + 1.0 - e["a"], q["p2"])
            * lp_norm(fields["psi"], q["p3"]))


def _norm_lhs(spec: InequalitySpec, grid: Grid, fields) -> float:
    e, q = spec.exponents, spec.integrability
    sid = spec.family
    if sid == "eq200":
        op = Multiplier.riesz(spec.alpha)
        outer, pnorm = e["s"], 2.0
    elif sid == "eq201":
        op = Multiplier.lambda_pow(e["s2"])
        outer, pnorm = e["s1"], q["p"]
    elif sid == "eq25":
        op = Multiplier.lambda_pow(e["s2"])
        outer, pnorm = -e["s1"], 2.0
    else:  # eq20
        op = Multiplier.lambda_pow(e["s2"])
        outer, pnorm = -e["s1"], q["p"]
    v = fields["v_effective"] if sid == "eq25" else fields["v"]
    comm = commutator_apply(op, v, fields["phi"])
    return _lam_lp(comm, outer, pnorm)


def _rhs_eq20(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_vector_lp(fields["v"], q["q"], e["a"])
            * _lam_lp(fields["phi"], e["s2"] - e["s1"] + 1.0 - e["a"], q["r"]))


def _rhs_eq201(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    return (_vector_lp(fields["v"], q["q"], e["a"])
            * _lam_lp(fields["phi"], 1.0 + e["s2"] + e["s1"] - e["a"], q["r"]))


def _rhs_eq200(spec, grid, fields):
    e, q = spec.exponents, spec.integrability
    beta = 1.0 - spec.alpha
    return (_vector_lp(fields["v"], q["q"], e["a"])
            * _lam_lp(fields["phi"], 1.0 + beta + e["s"] - e["a"], q["r"]))


def _rhs_eq25(spec, grid, fields):
    e = spec.exponents
    return (_vector_lp(fields["v"], np.inf)
            * _lam_lp(fields["phi"], e["s2"] - e["s1"] + 1.0 - e["s3"], 2.0))


def _draw_eq25(spec: InequalitySpec, grid: Grid, seed) -> Dict[str, object]:
    fields = _draw_standard(spec, grid, seed)
    lam = Multiplier.lambda_pow(-spec.exponents["s3"])
    fields["v_effective"] = (apply_multiplier(fields["v"][0], lam),
                             apply_multiplier(fields["v"][1], lam))
    return fields


# keep every product inside the alias-safe band of the smallest grid used
_MID_BLOCK_LEVEL = 3


def _draw_g50(spec: InequalitySpec, grid: Grid, seed) -> Dict[str, object]:
    base, trial, attempt = seed
    cfg = ENSEMBLE_CYCLE[trial % len(ENSEMBLE_CYCLE)]
    v = random_divfree_field(grid, (base, trial, attempt, 0),
                             _resolve_band(cfg["vband"], grid), cfg["vdecay"])
    f = random_scalar_field(grid, (base, trial, attempt, 1),
                            _resolve_band(cfg["pband"], grid), cfg["pdecay"])
    return {"v": v, "phi": f, "k": _MID_BLOCK_LEVEL}


def _g50_fields(spec, grid, fields):
    op = Multiplier.smooth_bump(fields["k"])
    comm = commutator_apply(op, fields["v"], fields["phi"])
    q1, p1 = spec.integrability["q1"], spec.integrability["p1"]
    gx0, gy0 = gradient(fields["v"][0])
    gx1, gy1 = gradient(fields["v"][1])
    grad_mag = np.sqrt(gx0.physical()**2 + gy0.physical()**2
                       + gx1.physical()**2 + gy1.physical()**2)
    rhs_field = (maximal_function(grad_mag ** q1) ** (1.0 / q1)
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


def _spec(spec_id, exponents, integrability, alpha, lhs, rhs, draw=_draw_standard,
          needs_pairing_field=False, canary=False, near_boundary=False,
          skip_validation=False, family=None) -> InequalitySpec:
    s = InequalitySpec(spec_id, family or spec_id, exponents, integrability, alpha,
                       canary, near_boundary, lhs, rhs, draw, needs_pairing_field)
    if not skip_validation:
        s.validate()
    return s


def build_registry(alpha: float = 0.75, include_canaries: bool = True) -> Dict[str, InequalitySpec]:
    reg = {
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
                      _norm_lhs, _rhs_eq25, draw=_draw_eq25),
        "f10": _spec("f10", {"s": 0.5}, {"p1": 4.0, "p2": 4.0, "p3": 2.0}, alpha,
                     _pairing_lhs, _rhs_f10, needs_pairing_field=True),
        "f20": _spec("f20", {"s": 0.5, "a": 0.75}, {"p1": 4.0, "p2": 4.0, "p3": 2.0}, alpha,
                     _pairing_lhs, _rhs_f20, needs_pairing_field=True),
        "eq200": _spec("eq200", {"s": 0.2, "a": 0.6}, {"q": 4.0, "r": 4.0}, alpha,
                       _norm_lhs, _rhs_eq200),
        "eq201": _spec("eq201", {"s1": 0.2, "s2": 0.3, "a": 0.8},
                       {"p": 2.0, "q": 4.0, "r": 4.0}, alpha, _norm_lhs, _rhs_eq201),
        "g50": _spec("g50", {}, {"p1": 4.0 / 3.0, "q1": 4.0}, alpha, _g50_lhs, _g50_rhs,
                     draw=_draw_g50),
    }
    if include_canaries:
        # q = 2 violates the low-high hypothesis of eq20; runnable, never gating
        reg["eq20_canary_q2"] = _spec(
            "eq20_canary_q2", {"s1": 0.3, "s2": 0.8, "a": 0.75},
            {"p": 4.0 / 3.0, "q": 2.0, "r": 4.0},
            alpha, _norm_lhs, _rhs_eq20, canary=True, skip_validation=True, family="eq20")
        # hypotheses satisfied but just inside the s2 < s1 + s3 boundary
        reg["eq25_boundary"] = _spec(
            "eq25_boundary", {"s1": 0.4, "s2": 0.74, "s3": 0.35}, {}, alpha,
            _norm_lhs, _rhs_eq25, draw=_draw_eq25, near_boundary=True, family="eq25")
    return reg


def hypothesis_satisfying_ids(registry: Dict[str, InequalitySpec]) -> List[str]:
    return [sid for sid in SPEC_IDS if sid in registry and not registry[sid].canary]
