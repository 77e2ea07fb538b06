"""Run configuration: INI-style key/value files, validated before any compute.

Sections and keys (defaults in parentheses):

    [model]        n (64), length (2*pi), alpha (0.75), nu (1), kappa (1),
                   eps0 (1), formulation (omega), t_end (0.5), dt (unset),
                   cfl (0.4), cadence (1), seed (0), init (random),
                   amplitude_theta (0.5), amplitude_primary (0.5), decay (4)
    [diagnostics]  configs (l2,l4,l6), rho (0.01)
    [estimates]    specs (all), trials (50), grids (64,128)
    [ledger]       snapshots_dir (unset; replay an existing snapshot set)
    [output]       directory (out), snapshots (true)
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional

from .diagnostics import ledger_configs
from .grid import make_grid
from .model import ModelParams
from .registry import ConstraintError, build_registry


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    n: int = 64
    length: float = 2 * math.pi
    alpha: float = 0.75
    nu: float = 1.0
    kappa: float = 1.0
    eps0: float = 1.0
    formulation: str = "omega"
    t_end: float = 0.5
    dt: Optional[float] = None
    cfl: float = 0.4
    cadence: int = 1
    seed: int = 0
    init: str = "random"
    amplitude_theta: float = 0.5
    amplitude_primary: float = 0.5
    decay: float = 4.0
    ledger_ids: List[str] = dc_field(default_factory=lambda: ["l2", "l4", "l6"])
    rho: float = 0.01
    estimate_ids: List[str] = dc_field(default_factory=lambda: ["all"])
    trials: int = 50
    grids: List[int] = dc_field(default_factory=lambda: [64, 128])
    snapshots_dir: Optional[str] = None
    out_dir: str = "out"
    write_snapshots: bool = True

    def params(self) -> ModelParams:
        return ModelParams(alpha=self.alpha, nu=self.nu, kappa=self.kappa, eps0=self.eps0)

    def resolve_estimate_ids(self) -> List[str]:
        registry = build_registry(self.alpha)
        if self.estimate_ids == ["all"]:
            return sorted(registry)
        return self.estimate_ids

    def validate(self, mode: Optional[str] = None):
        """Check every constraint the run will rely on; ``mode`` limits the
        estimate-registry checks to runs that reference those specs."""
        if self.formulation not in ("omega", "f", "scaled"):
            raise ConfigError(f"formulation must be omega, f or scaled, got {self.formulation!r}")
        try:
            params = self.params()
            make_grid(self.n, self.length)
            # the ledger replays its run in the hybrid formulation
            if self.formulation != "omega" or mode == "ledger":
                params.require_unit_dissipation("the hybrid formulation")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for key in ("t_end", "dt", "cfl"):  # dt None: derived from the CFL guard
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")
        for key in ("rho", "amplitude_theta", "amplitude_primary", "decay"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.cadence < 1:
            raise ConfigError("cadence must be a positive integer")
        if self.init not in ("random", "bumps"):
            raise ConfigError(f"init must be random or bumps, got {self.init!r}")
        known_ledgers = ledger_configs(self.alpha, self.rho)
        for cid in self.ledger_ids:
            if cid not in known_ledgers:
                raise ConfigError(f"unknown ledger config {cid!r}; known: {sorted(known_ledgers)}")
        if mode in (None, "estimate"):
            if self.trials < 1:
                raise ConfigError(f"trials must be a positive integer, got {self.trials}")
            registry = build_registry(self.alpha)
            for sid in self.resolve_estimate_ids():
                if sid not in registry:
                    raise ConfigError(f"unknown estimate spec {sid!r}; known: {sorted(registry)}")
                spec = registry[sid]
                if not spec.canary:
                    try:
                        spec.validate()
                    except ConstraintError as exc:
                        raise ConfigError(str(exc)) from exc
            for g in self.grids:
                try:
                    make_grid(g, 2 * math.pi)  # the estimates run on the 2*pi box
                except ValueError as exc:
                    raise ConfigError(f"estimate grids: {exc}") from exc
                if g < 64:
                    raise ConfigError(f"estimate grids must be >= 64 so every registered "
                                      f"ensemble band is representable, got {g}")


def _parse_list(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


# what a malformed file raises: a bad header, duplicate, continuation
# line or interpolation, an undecodable byte or an unparsable value
_PARSE_ERRORS = (configparser.Error, ValueError)


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"could not parse {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    cfg = RunConfig()
    try:
        if parser.has_section("model"):
            m = parser["model"]
            cfg.n = m.getint("n", cfg.n)
            cfg.length = m.getfloat("length", cfg.length)
            cfg.alpha = m.getfloat("alpha", cfg.alpha)
            cfg.nu = m.getfloat("nu", cfg.nu)
            cfg.kappa = m.getfloat("kappa", cfg.kappa)
            cfg.eps0 = m.getfloat("eps0", cfg.eps0)
            cfg.formulation = m.get("formulation", cfg.formulation)
            cfg.t_end = m.getfloat("t_end", cfg.t_end)
            if m.get("dt", None) is not None:
                cfg.dt = m.getfloat("dt")
            cfg.cfl = m.getfloat("cfl", cfg.cfl)
            cfg.cadence = m.getint("cadence", cfg.cadence)
            cfg.seed = m.getint("seed", cfg.seed)
            cfg.init = m.get("init", cfg.init)
            cfg.amplitude_theta = m.getfloat("amplitude_theta", cfg.amplitude_theta)
            cfg.amplitude_primary = m.getfloat("amplitude_primary", cfg.amplitude_primary)
            cfg.decay = m.getfloat("decay", cfg.decay)
        if parser.has_section("diagnostics"):
            d = parser["diagnostics"]
            if d.get("configs", None) is not None:
                cfg.ledger_ids = _parse_list(d.get("configs"))
            cfg.rho = d.getfloat("rho", cfg.rho)
        if parser.has_section("estimates"):
            e = parser["estimates"]
            if e.get("specs", None) is not None:
                cfg.estimate_ids = _parse_list(e.get("specs"))
            cfg.trials = e.getint("trials", cfg.trials)
            if e.get("grids", None) is not None:
                cfg.grids = [int(x) for x in _parse_list(e.get("grids"))]
        if parser.has_section("ledger"):
            cfg.snapshots_dir = parser["ledger"].get("snapshots_dir", None)
        if parser.has_section("output"):
            o = parser["output"]
            cfg.out_dir = o.get("directory", cfg.out_dir)
            cfg.write_snapshots = o.getboolean("snapshots", cfg.write_snapshots)
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"could not parse {path!r}: {exc}") from exc
    return cfg
