"""Admissible parameter ranges: the one table every layer reads.

Each row of ``RANGES`` gives a parameter's key, the run modes it binds,
a predicate over a mapping of values, the range in words and the reason.
:func:`check` refuses the first violated row by name.  A row that binds
no mode refuses nothing: ``BESOV`` says where the criteria monitor's
Besov quantities are defined; outside it a run writes them as undefined.
"""

import math
from collections import namedtuple
from numbers import Integral

Range = namedtuple("Range", "key modes holds admits reason")
RUNS = ("simulate", "ledger", "estimate")


def _power_of_two(n, floor: int) -> bool:
    return isinstance(n, Integral) and n >= floor and n & (n - 1) == 0


BESOV = Range("alpha", (), lambda v: 3.0 * v["alpha"] - 2.0 > 0, "above 2/3",
              "the paper's range, where the Besov index r = 6/(3 alpha - 2) is finite")

RANGES = (
    Range("alpha", RUNS, lambda v: 0.5 < v["alpha"] < 1.0, "in (1/2, 1)",
          "the critical model: beta = 1 - alpha lies below alpha"),
    BESOV,
    Range("eps0", RUNS, lambda v: 0.0 < v["eps0"] <= 1.0, "in (0, 1]",
          "the scaled form's x -> eps0 x; 1 is the f form"),
    *(Range(k, RUNS, lambda v, k=k: 0 <= v[k] < math.inf, "finite and nonnegative",
            "a dissipation coefficient; 0 is inviscid") for k in ("nu", "kappa")),
    Range("formulation", RUNS, lambda v: v["formulation"] in ("omega", "f", "scaled"),
          "omega, f or scaled", "the integrated form"),
    Range("formulation", RUNS, lambda v: v["formulation"] != "omega" or v["eps0"] == 1.0,
          "f or scaled when eps0 < 1", "the omega form integrates the unscaled system"),
    Range("n", RUNS, lambda v: _power_of_two(v["n"], 8), "a power of two >= 8",
          "the size of the radix-2 grid"),
    Range("length", RUNS, lambda v: 0 < v["length"] < math.inf, "positive and finite",
          "the box period"),
    *(Range(k, RUNS, lambda v, k=k: v[k] is None or 0 < v[k] < math.inf, "positive and finite",
            why) for k, why in (("t_end", "the end time"), ("cfl", "the CFL guard's factor"),
                                ("dt", "the step; unset, the CFL guard sets it"))),
    *(Range(k, modes, lambda v, k=k, lo=lo: isinstance(v[k], Integral) and v[k] >= lo, admits,
            why) for k, modes, lo, admits, why in (
        ("cadence", RUNS, 1, "a positive integer", "steps between stored states"),
        ("seed", RUNS, 0, "a non-negative integer", "numpy's generators take no negative seed"),
        ("trials", ("estimate",), 1, "a positive integer", "draws per spec and grid"))),
    Range("init", RUNS, lambda v: v["init"] in ("random", "bumps"), "random or bumps",
          "the initial data"),
    *(Range(k, RUNS, lambda v, k=k: math.isfinite(v[k]), "finite", why) for k, why in (
        ("amplitude_theta", "an initial amplitude"), ("amplitude_primary", "an initial amplitude"),
        ("decay", "the initial spectral slope"), ("rho", "the l2 weight gamma = beta/2 - 2 rho"))),
    Range("rho", ("ledger",), lambda v: v["rho"] <= (1.0 - v["alpha"]) / 4.0,
          "at most beta/4 = (1 - alpha)/4", "the l2 weight gamma = beta/2 - 2 rho is nonnegative"),
    Range("grids", ("estimate",), lambda v: all(_power_of_two(g, 64) for g in v["grids"]),
          "powers of two >= 64", "every registered ensemble band is representable"),
    Range("snapshots", ("ledger",), lambda v: v["snapshots"] or bool(v["snapshots_dir"]),
          "true unless [ledger] snapshots_dir is set",
          "an inline ledger replays the snapshots it writes"),
)


def check(values, mode: str | None = None):
    """Raise ValueError naming the first row of ``RANGES`` that binds ``mode``
    (None: any mode) and whose key ``values``, a mapping, holds and violates."""
    for row in RANGES:
        binds = row.modes and (mode is None or mode in row.modes)
        if binds and row.key in values and not row.holds(values):
            raise ValueError(f"{row.key} must be {row.admits} ({row.reason}), "
                             f"got {values[row.key]!r}")
