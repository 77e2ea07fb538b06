"""Run configuration: INI-style key/value files, validated before any compute.

``_KEYS`` names the sections and keys and the :class:`RunConfig` field
each sets; an absent key keeps the field's default, and a section or key
it does not name is refused.  Each key's range, the modes it binds and
the reason for it are rows of :data:`fblab.ranges.RANGES`, which
:meth:`RunConfig.validate` reads, keyed by INI name.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field, fields
from typing import List, Optional

from .diagnostics import ledger_configs
from .model import ModelParams, step_count
from .ranges import check
from .registry import ConstraintError, InequalitySpec, build_registry


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

    def estimate_specs(self) -> List[InequalitySpec]:
        """The requested specs, from one registry build; an unknown id or a
        violated hypothesis of a non-canary spec raises ConfigError."""
        _require_distinct("estimate specs", "spec", self.estimate_ids)
        registry = build_registry(self.alpha)
        ids = sorted(registry) if self.estimate_ids == ["all"] else self.estimate_ids
        for sid in ids:
            if sid not in registry:
                raise ConfigError(f"unknown estimate spec {sid!r}; known: {sorted(registry)}")
            if not registry[sid].canary:
                try:
                    registry[sid].validate()
                except ConstraintError as exc:
                    raise ConfigError(str(exc)) from exc
        return [registry[sid] for sid in ids]

    def resolve_estimate_ids(self) -> List[str]:
        return [spec.spec_id for spec in self.estimate_specs()]

    def validate(self, mode: Optional[str] = None) -> Optional[List[InequalitySpec]]:
        """Check the ranges of :data:`fblab.ranges.RANGES` that bind ``mode``
        (None: every mode) and the lists the run names; returns the
        requested estimate specs, built once, if ``mode`` is estimate or None."""
        try:
            check({key: getattr(self, attr) for keys in _KEYS.values()
                   for key, attr in keys.items()}, mode)
            # the ledger replays its run in the hybrid formulation
            if self.formulation != "omega" or mode == "ledger":
                self.params().require_unit_dissipation("the hybrid formulation")
            if self.dt is not None:
                step_count(self.t_end, self.dt)  # refuses a count that overflows
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if mode in (None, "ledger"):
            _require_distinct("diagnostics configs", "ledger config", self.ledger_ids)
            known = ledger_configs(self.alpha, self.rho)
            for cid in self.ledger_ids:
                if cid not in known:
                    raise ConfigError(f"unknown ledger config {cid!r}; known: {sorted(known)}")
            if not self.snapshots_dir and self.dt is not None:
                # integrate stores the start, every cadence-th state and the last
                stored = 1 + math.ceil(step_count(self.t_end, self.dt) / self.cadence)
                if stored < 3:
                    raise ConfigError(f"an inline ledger at t_end = {self.t_end:g}, dt = {self.dt:g}, "
                                      f"cadence = {self.cadence} stores {stored} states; the "
                                      "ledger's centered rates need at least 3")
        if mode in (None, "estimate"):
            _require_distinct("estimate grids", "grid size", self.grids)
            return self.estimate_specs()


def _require_distinct(key: str, item: str, values: list):
    """Refuse an empty list, or one naming an entry twice (it would run twice)."""
    if not values:
        raise ConfigError(f"{key} must name at least one {item}")
    if len(set(values)) != len(values):
        raise ConfigError(f"{key} must not repeat a {item}, got {values}")


def _parse_list(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


# INI key of each RunConfig field, by section; the field's type parses it
_KEYS = {
    "model": {k: k for k in ("n", "length", "alpha", "nu", "kappa", "eps0", "formulation", "t_end",
                             "dt", "cfl", "cadence", "seed", "init", "amplitude_theta",
                             "amplitude_primary", "decay")},
    "diagnostics": {"configs": "ledger_ids", "rho": "rho"},
    "estimates": {"specs": "estimate_ids", "trials": "trials", "grids": "grids"},
    "ledger": {"snapshots_dir": "snapshots_dir"},
    "output": {"directory": "out_dir", "snapshots": "write_snapshots"},
}
_PARSE = {"int": int, "float": float, "Optional[float]": float, "str": str, "Optional[str]": str,
          "List[str]": _parse_list, "List[int]": lambda raw: [int(x) for x in _parse_list(raw)]}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

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
    if parser.defaults():
        raise ConfigError(f"{path!r} sets {', '.join(parser.defaults())} in [DEFAULT]; "
                          "set each key in its own section")
    unknown = []
    for name in parser.sections():
        if name not in _KEYS:
            unknown.append(f"[{name}]")
        else:
            unknown += [f"[{name}] {key}" for key in parser[name] if key not in _KEYS[name]]
    if unknown:
        raise ConfigError(f"{path!r} sets unknown {', '.join(unknown)}; known: "
                          + "; ".join(f"[{name}] {', '.join(keys)}" for name, keys in _KEYS.items()))
    cfg = RunConfig()
    try:
        for name, keys in _KEYS.items():
            section = parser[name] if parser.has_section(name) else {}
            for key, attr in keys.items():
                if section.get(key) is None:
                    continue
                kind = _FIELD_TYPES[attr]
                setattr(cfg, attr, section.getboolean(key) if kind == "bool"
                        else _PARSE[kind](section.get(key)))
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"could not parse {path!r}: {exc}") from exc
    return cfg
