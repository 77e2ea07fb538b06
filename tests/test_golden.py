"""Golden artifacts: CLI runs rerun and compared with the files committed
under tests/golden/.

Each case of ``CASES`` runs at seeds 0 and 7: one ``estimate`` over every
registered spec (2 trials on grids 64 and 128), n = 32 ``simulate`` runs
in the ``f``, ``omega`` and ``scaled`` forms and in the ``f`` form at
alpha = 0.7, one n = 32 ``simulate`` that fails (exit code 2) after its
first steps, and one inline ``ledger`` over l2, l4 and l6.  Every run
must end with its case's exit code.  Every number must match within
1e-12 of the largest number of its file; every flag, count and string
exactly.  Binary
snapshots are not committed: the ledger case reads its own back, and
``snapshots.csv`` names them.  The same runs also check every symbol
they build, bit for bit, against the zero-mode rule symbols once
stored (``oracles.reference_symbol``).  After an intended change of output,
regenerate with

    PYTHONPATH=src python tests/test_golden.py

and name the files and the measured drift in CHANGES.md.
"""

import csv
import json
import math
import os
import sys
from pathlib import Path

import pytest

from fblab.cli import EXIT_NUMERICAL, EXIT_OK, main
from fblab.multipliers import Multiplier
from oracles import reference_symbol

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 7)
RTOL = 1e-12

ESTIMATE_INI = """\
[model]
alpha = 0.75
seed = {seed}

[estimates]
specs = all
trials = 2
grids = 64,128
"""

# four stored states (t = 0, 0.02, 0.04, 0.06), the fewest a ledger
# with centred rates can check twice
RUN_INI = """\
[model]
n = 32
alpha = {alpha}
formulation = {form}
eps0 = {eps0}
t_end = 0.06
dt = 0.01
cadence = 2
seed = {seed}
amplitude_theta = 0.4
amplitude_primary = 0.4

[diagnostics]
configs = l2,l4,l6
"""


# an inviscid run whose state grows by orders of magnitude a step, under
# a guard loosened by cfl: after two steps (t = 1.0) dt = 0.5 exceeds the
# guard, so the run keeps three rows and snapshots, then its DIAGNOSTIC
# row, and writes no criteria.json
FAILED_INI = """\
[model]
n = 32
alpha = 0.55
nu = 0.0
kappa = 0.0
formulation = omega
t_end = 40.0
dt = 0.5
cadence = 1
seed = {seed}
amplitude_theta = 30.0
amplitude_primary = 30.0
cfl = 1000000.0
"""


def run_ini(form: str, alpha: float = 0.75, eps0: float = 1.0) -> str:
    """RUN_INI with its model filled in and the seed left open."""
    return RUN_INI.format(form=form, alpha=alpha, eps0=eps0, seed="{seed}")


# case name: (mode, config text with a {seed} field, exit code)
CASES = {
    "estimate": ("estimate", ESTIMATE_INI, EXIT_OK),
    "simulate_f": ("simulate", run_ini("f"), EXIT_OK),
    "simulate_omega": ("simulate", run_ini("omega"), EXIT_OK),
    "simulate_scaled": ("simulate", run_ini("scaled", eps0=0.5), EXIT_OK),
    # Besov index r = 60: block norms of about 1e-20 need the scale-safe L^p
    "simulate_alpha07": ("simulate", run_ini("f", alpha=0.7), EXIT_OK),
    "simulate_failed": ("simulate", FAILED_INI, EXIT_NUMERICAL),
    "ledger": ("ledger", run_ini("f"), EXIT_OK),
}


def run_case(case: str, seed: int, out: Path):
    mode, text, code = CASES[case]
    ini = out.parent / f"{case}_seed{seed}.ini"
    ini.write_text(text.format(seed=seed))
    assert main(["--config", str(ini), "--out", str(out), mode]) == code


def committed(out: Path):
    """The artifacts of ``out`` that are kept as goldens: all but snapshots."""
    return sorted(name for name in os.listdir(out) if not name.endswith(".fbl"))


def _is_count(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _csv_cells(path: Path):
    """(row, column, text) of every cell, header included."""
    with open(path, newline="") as fh:
        return [(i, j, cell) for i, row in enumerate(csv.reader(fh)) for j, cell in enumerate(row)]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _json_leaves(obj, path=()):
    if isinstance(obj, dict):
        yield path + ("{keys}",), sorted(obj)
        for key in sorted(obj):
            yield from _json_leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        yield path + ("[len]",), len(obj)
        for i, item in enumerate(obj):
            yield from _json_leaves(item, path + (i,))
    else:
        yield path, obj


def _leaves(path: Path):
    """(where, exact value or None, float or None) of each datum of a file:
    a float is compared within tolerance, anything else exactly."""
    if path.suffix == ".json":
        for where, value in _json_leaves(json.loads(path.read_text())):
            if isinstance(value, float):
                yield where, None, value
            else:
                yield where, value, None
        return
    for i, j, text in _csv_cells(path):
        value = _number(text)
        if value is None or _is_count(text):
            yield (i, j), text, None
        else:
            yield (i, j), None, value


def compare_file(got: Path, want: Path):
    """Mismatches of ``got`` against ``want``, as readable strings."""
    have, need = list(_leaves(got)), list(_leaves(want))
    if [w for w, _, _ in have] != [w for w, _, _ in need]:
        return [f"{want.name}: layout differs"]
    finite = [abs(x) for _, _, x in need if x is not None and math.isfinite(x)]
    tol = RTOL * max(finite, default=0.0)
    bad = []
    for (where, exact_got, x_got), (_, exact_want, x_want) in zip(have, need):
        if x_want is None or x_got is None:
            same = exact_got == exact_want and x_got is None and x_want is None
        elif math.isfinite(x_want):
            same = abs(x_got - x_want) <= tol
        else:
            same = x_got == x_want or (math.isnan(x_got) and math.isnan(x_want))
        if not same:
            bad.append(f"{want.name} {where}: {exact_got if x_got is None else x_got!r} "
                       f"!= {exact_want if x_want is None else x_want!r}")
    return bad


def check_case(tmp_path: Path, case: str, seed: int):
    out = tmp_path / "out"
    run_case(case, seed, out)
    want_dir = GOLDEN / f"{case}_seed{seed}"
    assert committed(out) == sorted(os.listdir(want_dir))
    bad = []
    for name in sorted(os.listdir(want_dir)):
        bad += compare_file(out / name, want_dir / name)
    assert not bad, "\n".join(bad[:20])


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_matches_golden(tmp_path, seed):
    check_case(tmp_path, "estimate", seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", [case for case in CASES if case != "estimate"])
def test_run_matches_golden(tmp_path, case, seed):
    check_case(tmp_path, case, seed)


def test_symbols_match_stored_zero_mode_rule(tmp_path, monkeypatch):
    """Every symbol the golden runs build, parts included, is bit for bit
    the one of the zero-mode rule the factories once stored."""
    build, reference, bad = Multiplier.symbol, {}, []

    def checked(spec, grid):
        sym = build(spec, grid)
        if (spec, grid) not in reference:
            reference[spec, grid] = reference_symbol(spec, grid)
        want = reference[spec, grid]
        if sym.dtype != want.dtype or sym.tobytes() != want.tobytes():
            bad.append(spec)
        return sym

    monkeypatch.setattr(Multiplier, "symbol", checked)
    for case in ("simulate_f", "simulate_omega", "simulate_scaled", "ledger", "estimate"):
        run_case(case, 0, tmp_path / case)
    assert not bad, bad[:5]
    kinds = {spec.kind for spec, _ in reference}
    assert kinds >= {"lambda_pow", "riesz", "partial", "inv_lap_perp_grad", "composite", "sum",
                     "ring", "lowpass"}


def regenerate():
    import shutil
    import tempfile

    for case in CASES:
        for seed in SEEDS:
            target = GOLDEN / f"{case}_seed{seed}"
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out"
                run_case(case, seed, out)
                shutil.rmtree(target, ignore_errors=True)
                target.mkdir()
                for name in committed(out):
                    shutil.copy(out / name, target / name)
            print(f"wrote {target}")


if __name__ == "__main__":
    sys.exit(regenerate())
