"""Registry hypothesis rows: one violating case per row of each family.

Every case starts from the registered exponents of its family and changes
the few entries named in the table; the ConstraintError message must
match word for word, rows in declaration order joined by "; ".
"""

import numpy as np
import pytest

from fblab.commutators import estimate_constants
from fblab.registry import ConstraintError, build_registry, declare

INF = np.inf

# (family, exponent changes, integrability changes, alpha, message after "<family> requires ")
VIOLATIONS = [
    ("aaa", {"S": 0.0}, {}, 0.75, "0 < S < 1"),
    ("aaa", {"S1": 1.1}, {}, 0.75, "0 <= S1, S2, S3 <= 1"),
    ("aaa", {"S1": 0.5, "S2": 0.5, "S3": 0.5}, {}, 0.75, "S1 + S2 + S3 > 1 + S"),
    ("aaa", {}, {"p1": 2.0, "p2": INF, "p3": 2.0}, 0.75, "1 < p2 < inf"),
    ("aaa", {}, {"p1": 1.0}, 0.75, "1 < p1, p3 <= inf; 1/p1 + 1/p2 + 1/p3 = 1"),
    ("aaa", {}, {"p1": 4.0, "p2": 4.0, "p3": 4.0}, 0.75, "1/p1 + 1/p2 + 1/p3 = 1"),
    ("fazel5", {"s1": 1.2}, {}, 0.75, "0 <= s1, s2 <= 1"),
    ("fazel5", {}, {}, 0.6, "s1 + s2 > 1 - alpha"),
    ("fazel5", {}, {"p1": 2.0, "p2": 2.0, "p3": INF}, 0.75, "p3 < inf"),
    ("fazel5", {}, {"p3": 4.0}, 0.75, "1/p1 + 1/p2 + 1/p3 = 1"),
    ("fazel6", {"S": 0.0}, {}, 0.75, "0 < S < 1"),
    ("fazel6", {"s2": 1.0}, {}, 0.75, "0 <= s2, s3 < 1"),
    ("fazel6", {"s2": 0.6, "s3": 0.6}, {}, 0.75, "s2 + s3 > 1 + S"),
    ("fazel6", {}, {"p1": 2.0}, 0.75, "1/p1 + 1/p2 + 1/p3 = 1"),
    ("eq20", {"s1": -0.1, "a": 0.95}, {}, 0.75, "0 <= s1"),
    ("eq20", {"s2": 0.2}, {}, 0.75, "0 <= s2 - s1 <= 1"),
    ("eq20", {}, {"p": 4 / 3, "q": 2.0}, 0.75, "2 < q < inf"),
    ("eq20", {}, {"p": 4.0, "r": INF}, 0.75, "1 < p, r < inf"),
    ("eq20", {}, {"p": 3.0}, 0.75, "1/p = 1/q + 1/r"),
    ("eq20", {"a": 0.4}, {}, 0.75, "a in [s2 - s1, 1]"),
    ("eq20", {"s2": 1.4}, {}, 0.75, "0 <= s2 - s1 <= 1; a in [s2 - s1, 1]"),
    ("eq25", {"s2": 0.0}, {}, 0.75, "s1, s2, s3 > 0"),
    ("eq25", {"s1": 1.0}, {}, 0.75, "s1 < 1 and s3 < 1"),
    ("eq25", {"s2": 0.9}, {}, 0.75, "s2 < s1 + s3"),
    ("f10", {"s": 1.5}, {}, 0.75, "0 <= s <= 1"),
    ("f10", {}, {"p1": 2.0, "p3": 4.0}, 0.75, "p1 > 2"),
    ("f10", {}, {"p3": 4.0}, 0.75, "1/p1 + 1/p2 + 1/p3 = 1"),
    ("f20", {"s": -0.1}, {}, 0.75, "0 <= s <= 1"),
    ("f20", {}, {"p1": 2.0, "p3": 4.0}, 0.75, "p1 > 2"),
    ("f20", {}, {"p3": 4.0}, 0.75, "1/p1 + 1/p2 + 1/p3 = 1"),
    ("f20", {"a": 0.4}, {}, 0.75, "a in [s, 1]"),
    ("f20", {"s": 1.5}, {}, 0.75, "0 <= s <= 1; a in [s, 1]"),
    ("eq200", {"s": -0.1}, {}, 0.75, "0 <= s < alpha"),
    ("eq200", {"a": 0.45}, {}, 0.75, "a in (beta + s, 1]"),
    ("eq200", {}, {}, 0.6, "a in (beta + s, 1]"),
    ("eq200", {}, {"q": 2.0, "r": INF}, 0.75, "2 < q, r < inf"),
    ("eq200", {}, {"q": 6.0, "r": 6.0}, 0.75, "1/2 = 1/q + 1/r"),
    ("eq201", {"s1": -0.1}, {}, 0.75, "0 <= s1"),
    ("eq201", {"s2": 0.0}, {}, 0.75, "0 < s2"),
    ("eq201", {"s1": 0.5, "s2": 0.5}, {}, 0.75, "0 <= s1 + s2 < 1; a in (s1 + s2, 1]"),
    ("eq201", {"a": 0.5}, {}, 0.75, "a in (s1 + s2, 1]"),
    ("eq201", {}, {"p": 4 / 3, "q": 2.0}, 0.75, "2 < q < inf"),
    ("eq201", {}, {"p": 4.0, "r": INF}, 0.75, "1 < r < inf"),
    ("eq201", {}, {"p": 3.0}, 0.75, "1/p = 1/q + 1/r"),
    ("g50", {}, {"p1": 1.0, "q1": INF}, 0.75, "1 < p1, q1 < inf"),
    ("g50", {}, {"p1": 3.0, "q1": 3.0}, 0.75, "1/p1 + 1/q1 = 1"),
]


def test_every_family_has_cases():
    assert {case[0] for case in VIOLATIONS} == set(build_registry(0.75)) - {
        "eq20_canary_q2", "eq25_boundary"}


@pytest.mark.parametrize("family,de,dq,alpha,message", VIOLATIONS,
                         ids=[f"{c[0]}:{c[4]}" for c in VIOLATIONS])
def test_violation_message(family, de, dq, alpha, message):
    base = build_registry(0.75)[family]
    spec = declare(family, {**base.exponents, **de}, {**base.integrability, **dq}, alpha)
    with pytest.raises(ConstraintError) as err:
        spec.validate()
    assert str(err.value) == f"{family} requires {message}"


@pytest.mark.parametrize("family", sorted({c[0] for c in VIOLATIONS}))
def test_registered_exponents_hold(family):
    base = build_registry(0.75)[family]
    declare(family, base.exponents, base.integrability, 0.75).validate()


@pytest.mark.parametrize("alpha", [0.55, 0.6])
def test_library_callers_cannot_sample_a_violated_spec(alpha):
    # construction never validates; estimate_constants validates what it is given
    reg = build_registry(alpha)
    with pytest.raises(ConstraintError, match=r"fazel5 requires s1 \+ s2 > 1 - alpha"):
        estimate_constants([reg["eq20"], reg["fazel5"]], trials=1, grid_sizes=(64,))
    estimate_constants([reg["eq20"], reg["eq20_canary_q2"]], trials=1, grid_sizes=(64,))
