"""Command-line entry point.

Subcommands:

    simulate   advance a trajectory, write the norm time series and snapshots;
               each state the integrator yields is measured and written before
               the next step, so a failed run keeps the states it completed
    ledger     evaluate the energy ledgers over a snapshot set (replaying a
               stored set, or producing one inline first)
    estimate   run best-constant sampling campaigns from the registry
    selftest   run the closed-form check battery

Exit codes: 0 pass, 1 validation error, 2 numerical failure,
3 invariant violation.

Allocator policy: :func:`main` first tells glibc's allocator to keep freed
arrays in the process (``mallopt`` raises the mmap threshold to 32 MiB and
the heap-trim threshold to 256 MiB), so each IF-RK4 stage reuses the pages
the last one freed instead of faulting them back in zero-filled.  It does
nothing where glibc is absent, changes no number, and library use
(``import fblab``) is unaffected.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import math
import os
import sys
from dataclasses import asdict, fields as dc_fields
from typing import List, Optional

from .config import ConfigError, RunConfig, load_config
from .diagnostics import CriteriaReport, StateNorms, criteria_monitor, ledger_configs, ledger_run
from .commutators import estimate_constants
from .fields import SpectralField
from .grid import Grid, make_grid
from .model import (IntegrationBlowupError, ModelParams, SimState, StabilityError,
                    initial_state, integrate)
from .multipliers import SymbolTable
from .registry import ConstraintError, InequalitySpec
from .reporting import write_csv, write_json
from .selftest import run_selftest
from .snapshot import SnapshotFormatError, read_snapshot, write_snapshot

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3

# glibc starts with a 128 KiB mmap threshold and, after the first free of a
# mapped array, a trim threshold near 600 KB.  An n = 128 half spectrum
# (133,120 B) and a padded 192^2 sample array (294,912 B) cross the first,
# and a stage frees several MB, so every stage unmaps or trims its arrays
# and the next faults them back in.  Both are needed: setting one leaves
# the other's faults (trim alone also pins the mmap threshold at 128 KiB).
_MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's maximum
_TRIM_THRESHOLD = 256 * 1024 * 1024
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers, malloc.h


def _keep_freed_arrays():
    """Set the allocator policy of the module docstring; no-op off glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


# the fields of diagnostics.StateNorms, in order, but for the one only
# criteria.json reads
SERIES_HEADER = tuple(f.name for f in dc_fields(StateNorms) if f.name != "grad_theta_linf")


def _build_initial(cfg: RunConfig, grid: Grid) -> SimState:
    return initial_state(grid, cfg.params(), cfg.formulation, kind=cfg.init, seed=cfg.seed,
                         amplitude_theta=cfg.amplitude_theta,
                         amplitude_primary=cfg.amplitude_primary, decay=cfg.decay)


def _snapshot_name(index: int) -> str:
    return f"snap_{index:06d}.fbl"


def _index_number(row: dict, key: str, where: str) -> float:
    try:
        value = float(row[key])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {key} = {row[key]!r} is not a finite number")
    return value


def _load_trajectory(snap_dir: str, params: ModelParams, grid: Grid) -> List[SimState]:
    """States of a stored snapshot set on the config's ``grid``; a bad
    index or snapshot, or one on another grid, raises ConfigError or
    SnapshotFormatError naming the index line or the file."""
    index_path = os.path.join(snap_dir, "snapshots.csv")
    if not os.path.exists(index_path):
        raise ConfigError(f"no snapshot index at {index_path}")
    try:
        with open(index_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = [(reader.line_num, row) for row in reader]
            columns = reader.fieldnames or []
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"snapshot index {index_path} is unreadable ({exc})") from exc
    for key in ("file", "t"):
        if key not in columns:
            raise ConfigError(f"snapshot index {index_path} has no {key!r} column")
    states = []
    for line, row in rows:
        where = f"snapshot index {index_path}, line {line}"
        for key, want in (("alpha", params.alpha), ("eps0", params.eps0)):
            if key not in columns:
                continue
            stored = _index_number(row, key, where)
            if abs(stored - want) > 1e-12:
                raise ConfigError(f"{where}: snapshot set was produced with {key}={stored:g}, "
                                  f"config says {want:g}")
        t = _index_number(row, "t", where)
        if states and t <= states[-1].time:
            raise ConfigError(f"{where}: t = {t:g} does not follow t = {states[-1].time:g}")
        path = os.path.join(snap_dir, row["file"] or "")
        try:
            stored, fields = read_snapshot(path)
        except SnapshotFormatError:
            raise
        except (OSError, ValueError) as exc:  # missing, a directory, a NUL in the name
            raise SnapshotFormatError(f"{where} names {path}, which cannot be read ({exc})") from exc
        if stored != grid:
            raise ConfigError(f"{where}: {path} holds an n = {stored.n}, L = {stored.length:g} "
                              f"grid, config says n = {grid.n}, L = {grid.length:g}")
        for name in ("theta", "f"):
            if name not in fields:
                raise SnapshotFormatError(f"{path}: no {name!r} field")
        try:
            theta = SpectralField.from_physical(grid, fields["theta"])
            f = SpectralField.from_physical(grid, fields["f"])
            states.append(SimState(t, theta, f, "f", params))
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}: {exc}") from exc
    if not states:
        raise ConfigError(f"snapshot index {index_path} is empty")
    return states


def run_simulate(cfg: RunConfig, out_dir: str) -> int:
    """One pass: each stored state is converted to ``f`` once (on the
    integrator's symbol table), measured and written before the next step;
    a failed run still writes its completed rows, snapshots and DIAGNOSTIC row."""
    grid = make_grid(cfg.n, cfg.length)
    symbols = SymbolTable(grid)
    norms, index_rows, diagnostic = [], [], None
    try:
        for state, _ in integrate(_build_initial(cfg, grid), cfg.t_end, dt=cfg.dt, cfl_c=cfg.cfl,
                                  cadence=cfg.cadence, symbols=symbols):
            fs, record = criteria_monitor(state, symbols)
            norms.append(record)
            if cfg.write_snapshots:
                name = _snapshot_name(len(index_rows))
                write_snapshot(os.path.join(out_dir, name), grid, {"theta": fs.theta, "f": fs.primary})
                index_rows.append((name, fs.time, fs.params.alpha, fs.params.eps0))
            del state, fs  # not held through the next steps
    except IntegrationBlowupError as exc:
        diagnostic = ("DIAGNOSTIC", f"blowup at t={exc.time:.6g}", exc.detail)
    except StabilityError as exc:
        diagnostic = ("DIAGNOSTIC", "state outgrew the step-size guard", str(exc))
    rows = [tuple(getattr(record, key) for key in SERIES_HEADER) for record in norms]
    if cfg.write_snapshots:
        write_csv(os.path.join(out_dir, "snapshots.csv"), ("file", "t", "alpha", "eps0"), index_rows)
    if diagnostic is None:
        report = CriteriaReport.of(norms, cfg.alpha)
        write_json(os.path.join(out_dir, "criteria.json"), {**asdict(report), "domain": "torus"})
    else:
        rows.append(diagnostic + ("",) * (len(SERIES_HEADER) - len(diagnostic)))
    write_csv(os.path.join(out_dir, "series.csv"), SERIES_HEADER, rows)
    return EXIT_OK if diagnostic is None else EXIT_NUMERICAL


_TERMS = ("I1", "I2", "I3", "I4", "I5", "K1", "K2", "K3")
_SPLITS = ("I3_f", "I3_t", "K2_f", "K2_t")
LEDGER_HEADER = ("t", "config_id", "row_kind", "functional", "lhs_rate", "dissipation",
                 "rhs_sum", "tolerance", "verdict", *_TERMS, *_SPLITS, "coercivity_ratio")


def run_ledger(cfg: RunConfig, out_dir: str) -> int:
    """Replay ``[ledger] snapshots_dir``, or the snapshots of a simulate
    run into ``out_dir`` first; a set of fewer than 3 states is refused,
    since the rates are centered differences."""
    if not cfg.snapshots_dir:
        sim_status = run_simulate(cfg, out_dir)
        if sim_status != EXIT_OK:
            return sim_status
    snap_dir = cfg.snapshots_dir or out_dir
    states = _load_trajectory(snap_dir, cfg.params(), make_grid(cfg.n, cfg.length))
    if len(states) < 3:
        raise ConfigError(f"snapshot index {os.path.join(snap_dir, 'snapshots.csv')} lists "
                          f"{len(states)} stored states; the ledger's centered rates need at least 3")

    configs = ledger_configs(cfg.alpha, cfg.rho)
    summary = {"domain": "torus", "alpha": cfg.alpha, "configs": {}}
    worst = EXIT_OK
    results = ledger_run(states, [configs[cid] for cid in cfg.ledger_ids])
    for cid, (rows, verdict) in zip(cfg.ledger_ids, results):
        csv_rows = []
        for row in rows:
            for kind in ("s", "kappa", "p"):
                if kind not in row.lhs_rate:
                    continue
                csv_rows.append((row.t, cid, kind, row.functionals[kind], row.lhs_rate[kind],
                                 row.dissipation[kind], row.rhs_sum[kind], row.tolerance[kind],
                                 int(row.verdicts[kind]), *(row.terms[t] for t in _TERMS),
                                 *(row.signed[t] for t in _SPLITS), row.coercivity_ratio))
        write_csv(os.path.join(out_dir, f"ledger_{cid}.csv"), LEDGER_HEADER, csv_rows)
        summary["configs"][cid] = {
            "rows_checked": verdict.rows_checked,
            "rows_passed": verdict.rows_passed,
            "sup_functionals": verdict.sup_functionals,
            "dissipation_integrals": verdict.dissipation_integrals,
            "richardson_rel": verdict.richardson_rel,
            "gronwall_rate_torus": verdict.gronwall_rate,
            "pass": verdict.all_pass,
        }
        if not verdict.all_pass:
            worst = EXIT_INVARIANT
    write_json(os.path.join(out_dir, "ledger_verdicts.json"), summary)
    return worst


def run_estimate(cfg: RunConfig, out_dir: str, specs: List[InequalitySpec]) -> int:
    """Sample ``specs``, the list ``cfg.validate`` returns, on ``cfg.grids``."""
    grids = cfg.grids
    summary = {"domain": "torus", "alpha": cfg.alpha,
               "note": "sampled lower bounds of best constants; never a universal verification",
               "specs": {}}
    status = EXIT_OK
    reports = estimate_constants(specs, cfg.trials, grids, seed=cfg.seed)
    for sid, report in zip((spec.spec_id for spec in specs), reports):
        rows = []
        for n, ratios in sorted(report.ratios.items()):
            for t, ratio in enumerate(ratios):
                rows.append((sid, n, t, cfg.seed, ratio))
        write_csv(os.path.join(out_dir, f"est_{sid}.csv"),
                  ("spec_id", "grid_n", "trial", "seed", "ratio"), rows)
        stable = report.resolution_stable
        summary["specs"][sid] = {
            "c_hat": report.c_hat,
            "c_hat_per_grid": {str(k): v for k, v in report.c_hat_per_grid.items()},
            "growth_factor": report.growth_factor(),
            "resolution_stable": stable,
            "canary": report.canary,
            "near_boundary": report.near_boundary,
            "degenerate_redraws": report.degenerate,
            "trials": report.trials,
        }
        if not stable and not report.canary:
            status = EXIT_INVARIANT
    from .commutators import smoothing_comparison
    from .dyadic import measurement_rows
    write_csv(os.path.join(out_dir, "lp_measurements.csv"),
              ("quantity", "parameter", "value", "grid_n", "seed"),
              measurement_rows(tuple(grids), cfg.seed))
    # observation only: the extra negative-order factor should not make
    # the temperature commutator harder; never asserted
    summary["smoothing_comparison"] = smoothing_comparison(
        cfg.alpha, trials=min(cfg.trials, 20), n=min(grids), seed=cfg.seed)
    write_json(os.path.join(out_dir, "estimates_summary.json"), summary)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    _keep_freed_arrays()
    parser = argparse.ArgumentParser(prog="fblab",
                                     description="Pseudo-spectral laboratory for the 2D "
                                                 "fractional Boussinesq system")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--grids", default=None, help="comma-separated grid sizes, e.g. 64,128")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("simulate", "ledger", "estimate", "selftest"):
        sub.add_parser(mode)
    args = parser.parse_args(argv)

    if args.mode == "selftest":
        return EXIT_OK if run_selftest() else EXIT_INVARIANT

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        if args.grids is not None:
            cfg.grids = [int(x) for x in args.grids.split(",") if x.strip()]
        specs = cfg.validate(mode=args.mode)
    except (ConfigError, ConstraintError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"validation error: cannot make output directory {cfg.out_dir!r} "
              f"({exc.strerror})", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.mode == "simulate":
            return run_simulate(cfg, cfg.out_dir)
        if args.mode == "ledger":
            return run_ledger(cfg, cfg.out_dir)
        return run_estimate(cfg, cfg.out_dir, specs)
    except (ConfigError, SnapshotFormatError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegrationBlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
