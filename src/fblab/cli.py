"""Command-line entry point.

Subcommands:

    simulate   advance a trajectory, write the norm time series and snapshots
    ledger     evaluate the energy ledgers over a snapshot set (replaying a
               stored set, or producing one inline first)
    estimate   run best-constant sampling campaigns from the registry
    selftest   run the closed-form check battery

Exit codes: 0 pass, 1 validation error, 2 numerical failure,
3 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import List, Optional

from .config import ConfigError, RunConfig, load_config
from .diagnostics import _ROW_TERMS, criteria_monitor, ledger_configs, ledger_run
from .commutators import estimate_constants
from .fields import SpectralField
from .grid import Grid, make_grid
from .model import (IntegrationBlowupError, ModelParams, SimState, StabilityError, Trajectory,
                    convert_state, initial_state, integrate)
from .registry import ConstraintError, build_registry
from .reporting import write_csv, write_json
from .selftest import run_selftest
from .snapshot import SnapshotFormatError, read_snapshot, write_snapshot

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3

# field names of diagnostics.StateNorms, in column order
SERIES_HEADER = ("t", "theta_l2", "theta_linf", "f_l2", "f_l4", "f_l6",
                 "f_halfalpha_l2", "uf_linf", "grad_uf_linf", "f_besov")


def _build_initial(cfg: RunConfig) -> SimState:
    grid = make_grid(cfg.n, cfg.length)
    return initial_state(grid, cfg.params(), cfg.formulation, kind=cfg.init, seed=cfg.seed,
                         amplitude_theta=cfg.amplitude_theta,
                         amplitude_primary=cfg.amplitude_primary, decay=cfg.decay)


def _snapshot_name(index: int) -> str:
    return f"snap_{index:06d}.fbl"


def _write_trajectory(out_dir: str, traj: Trajectory):
    index_rows = []
    for i, st in enumerate(traj.states):
        fs = convert_state(st, "f")
        name = _snapshot_name(i)
        write_snapshot(os.path.join(out_dir, name), st.grid,
                       {"theta": fs.theta, "f": fs.primary})
        index_rows.append((name, st.time, st.params.alpha, st.params.eps0))
    write_csv(os.path.join(out_dir, "snapshots.csv"), ("file", "t", "alpha", "eps0"), index_rows)


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
    state = _build_initial(cfg)
    rows = []
    status = EXIT_OK
    diagnostic = None
    try:
        traj = integrate(state, cfg.t_end, dt=cfg.dt, cfl_c=cfg.cfl, cadence=cfg.cadence)
    except IntegrationBlowupError as exc:
        diagnostic = ("DIAGNOSTIC", f"blowup at t={exc.time:.6g}", exc.detail)
        status = EXIT_NUMERICAL
        traj = None
    except StabilityError as exc:
        diagnostic = ("DIAGNOSTIC", "state outgrew the step-size guard", str(exc))
        status = EXIT_NUMERICAL
        traj = None
    if traj is not None:
        report = criteria_monitor(traj)
        rows = [tuple(getattr(norms, key) for key in SERIES_HEADER) for norms in report.norms]
        if cfg.write_snapshots:
            _write_trajectory(out_dir, traj)
            write_json(os.path.join(out_dir, "criteria.json"), {
                "domain": "torus",
                "alpha": report.alpha,
                "sup_f_l6": report.sup_f_l6,
                "sup_uf_linf": report.sup_uf_linf,
                "sup_grad_uf_linf": report.sup_grad_uf_linf,
                "sup_grad_theta_linf": report.sup_grad_theta_linf,
                "sup_besov": report.sup_besov,
                "embedding_ratio_torus": report.embedding_ratio,
                "finite": report.is_finite(),
            })
    all_rows = list(rows)
    if diagnostic is not None:
        all_rows.append(diagnostic + ("",) * (len(SERIES_HEADER) - len(diagnostic)))
    write_csv(os.path.join(out_dir, "series.csv"), SERIES_HEADER, all_rows)
    return status


LEDGER_HEADER = ("t", "config_id", "row_kind", "functional", "lhs_rate", "dissipation",
                 "rhs_sum", "tolerance", "verdict",
                 "I1", "I2", "I3", "I4", "I5", "K1", "K2", "K3",
                 "I3_f", "I3_t", "K2_f", "K2_t", "coercivity_ratio")


def run_ledger(cfg: RunConfig, out_dir: str) -> int:
    params = cfg.params()
    grid = make_grid(cfg.n, cfg.length)
    if cfg.snapshots_dir:
        states = _load_trajectory(cfg.snapshots_dir, params, grid)
    else:
        sim_status = run_simulate(cfg, out_dir)
        if sim_status != EXIT_OK:
            return sim_status
        states = _load_trajectory(out_dir, params, grid)

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
                rhs_sum = sum(row.terms[t] for t in _ROW_TERMS[kind])
                csv_rows.append((row.t, cid, kind, row.functionals[kind], row.lhs_rate[kind],
                                 row.dissipation[kind], rhs_sum, row.tolerance[kind],
                                 int(row.verdicts[kind]),
                                 row.terms["I1"], row.terms["I2"], row.terms["I3"],
                                 row.terms["I4"], row.terms["I5"], row.terms["K1"],
                                 row.terms["K2"], row.terms["K3"],
                                 row.signed["I3_f"], row.signed["I3_t"],
                                 row.signed["K2_f"], row.signed["K2_t"],
                                 row.coercivity_ratio))
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


def run_estimate(cfg: RunConfig, out_dir: str, grids: Optional[List[int]] = None) -> int:
    registry = build_registry(cfg.alpha)
    grids = grids or cfg.grids
    summary = {"domain": "torus", "alpha": cfg.alpha,
               "note": "sampled lower bounds of best constants; never a universal verification",
               "specs": {}}
    status = EXIT_OK
    ids = cfg.resolve_estimate_ids()
    reports = estimate_constants([registry[sid] for sid in ids], cfg.trials, grids, seed=cfg.seed)
    for sid, report in zip(ids, reports):
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
        grids = None
        if args.grids is not None:
            grids = [int(x) for x in args.grids.split(",") if x.strip()]
            cfg.grids = grids
        cfg.validate(mode=args.mode)
    except (ConfigError, ConstraintError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        if args.mode == "simulate":
            return run_simulate(cfg, cfg.out_dir)
        if args.mode == "ledger":
            return run_ledger(cfg, cfg.out_dir)
        return run_estimate(cfg, cfg.out_dir, grids)
    except (ConfigError, SnapshotFormatError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegrationBlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
