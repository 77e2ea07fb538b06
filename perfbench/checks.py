"""Correctness checks on the artifacts of one `fblab` CLI call.

Checks that hold for any seed:

* every number in every CSV/JSON artifact is finite;
* `theta_l2` never increases along `series.csv` (exact dealiasing makes
  advection conserve the L2 norm, so only dissipation acts on it);
* every ledger row passes and every ledger config reports `pass`;
* every non-canary estimate spec is `resolution_stable`.

For the reference seed the artifact values must also match the reference
stored in `reference/`: numbers within REL_TOL relative to the larger of
the two, plus an absolute floor of ABS_TOL times the largest magnitude in
the same file (terms that vanish analytically sit at roundoff), and
verdicts, flags, counts and strings exactly.  Byte equality with the
reference is not required: a faster transform changes roundoff.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from typing import Dict, List

REL_TOL = 1e-9
ABS_TOL = 1e-12


def artifact_hashes(out_dir: str) -> Dict[str, str]:
    """sha256 of every file the call wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_artifacts(out_dir: str) -> Dict[str, object]:
    """Parsed CSV and JSON artifacts; binary snapshots are left out (their
    content is covered by the series and criteria values)."""
    out: Dict[str, object] = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            out[name] = {"header": rows[0], "rows": [[_cell(c) for c in r] for r in rows[1:]]}
        elif name.endswith(".json"):
            with open(path) as fh:
                out[name] = json.load(fh)
    return out


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _column(table, name) -> List:
    idx = table["header"].index(name)
    return [r[idx] for r in table["rows"]]


def invariant_failures(mode: str, artifacts: Dict[str, object]) -> List[str]:
    """Checks that must pass for every seed; returns what failed."""
    bad = []
    for name, content in artifacts.items():
        if not all(math.isfinite(x) for x in _numbers(content)):
            bad.append(f"{name}: non-finite value")
    if mode == "simulate":
        theta = _column(artifacts["series.csv"], "theta_l2")
        if len(theta) < 2:
            bad.append("series.csv: fewer than two rows")
        if any(b > a for a, b in zip(theta, theta[1:])):
            bad.append("series.csv: theta_l2 increased")
    elif mode == "ledger":
        verdicts = artifacts["ledger_verdicts.json"]["configs"]
        for cid, summary in verdicts.items():
            table = artifacts[f"ledger_{cid}.csv"]
            if not table["rows"] or any(v != 1 for v in _column(table, "verdict")):
                bad.append(f"ledger_{cid}.csv: a row failed")
            if not summary["pass"] or summary["rows_passed"] != summary["rows_checked"]:
                bad.append(f"ledger config {cid}: not passed")
    elif mode == "estimate":
        for sid, spec in artifacts["estimates_summary.json"]["specs"].items():
            if not spec["canary"] and not spec["resolution_stable"]:
                bad.append(f"estimate {sid}: not resolution-stable")
    return bad


def _scale(obj) -> float:
    return max((abs(x) for x in _numbers(obj)), default=0.0)


def _compare(ref, got, floor: float, where: str, bad: List[str]):
    if isinstance(ref, bool) or isinstance(ref, str) or ref is None:
        if ref != got:
            bad.append(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            bad.append(f"{where}: {got!r} is not a number")
        elif isinstance(ref, int) and isinstance(got, int):
            if ref != got:
                bad.append(f"{where}: {got} != reference {ref}")
        elif abs(ref - got) > REL_TOL * max(abs(ref), abs(got)) + floor:
            bad.append(f"{where}: {got!r} differs from reference {ref!r}")
    elif isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            bad.append(f"{where}: keys differ from reference")
            return
        for k in ref:
            _compare(ref[k], got[k], floor, f"{where}.{k}", bad)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            bad.append(f"{where}: length differs from reference")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, floor, f"{where}[{i}]", bad)


def reference_failures(reference: Dict[str, object], artifacts: Dict[str, object]) -> List[str]:
    bad: List[str] = []
    if sorted(reference) != sorted(artifacts):
        bad.append(f"artifact set {sorted(artifacts)} != reference {sorted(reference)}")
        return bad
    for name, ref in reference.items():
        _compare(ref, artifacts[name], ABS_TOL * _scale(ref), name, bad)
    return bad[:20]
