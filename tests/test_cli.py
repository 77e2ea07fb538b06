"""End-to-end CLI tests: config validation, artifacts, determinism, replay."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fblab
from fblab import cli
from fblab.cli import EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from fblab.config import ConfigError, RunConfig, load_config
from fblab.dyadic import levels
from fblab.grid import make_grid
from fblab.ensembles import random_scalar_field
from fblab.model import ModelParams, initial_state, integrate, step_count
from fblab.multipliers import Multiplier
from fblab.ranges import RANGES, RUNS
from fblab.snapshot import SnapshotFormatError, read_snapshot, write_snapshot

BASE_INI = """
[model]
n = 32
alpha = 0.75
formulation = f
t_end = 0.12
dt = 0.01
cadence = 3
seed = 11
amplitude_theta = 0.4
amplitude_primary = 0.4

[estimates]
specs = eq20,g50
trials = 3
grids = 64,128

[output]
directory = {out}
"""


def write_ini(tmp_path, name="run.ini", extra="", out=None):
    out = out or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(BASE_INI.format(out=out) + extra)
    return str(path), out


def one_snapshot_set(tmp_path, theta, index):
    """An n = 8 snapshot directory: one file (theta given, f zero) and ``index``."""
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    write_snapshot(str(snaps / "snap_000000.fbl"), make_grid(8, 2 * np.pi),
                   {"theta": theta, "f": np.zeros((8, 8))})
    (snaps / "snapshots.csv").write_text(index)
    return snaps


def replay_ledger(tmp_path, snaps):
    """Exit code of `ledger` replaying the n = 8 snapshot set ``snaps``."""
    replay = (BASE_INI.format(out=str(tmp_path / "replay")).replace("n = 32", "n = 8")
              + f"\n[ledger]\nsnapshots_dir = {snaps}\n")
    rpath = tmp_path / "replay.ini"
    rpath.write_text(replay)
    return main(["--config", str(rpath), "ledger"])


def assert_refused(capsys, argv, out, *words):
    """``main(argv)`` exits 1 before any compute with a message naming ``words``."""
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and all(w in err for w in words), err
    assert "Traceback" not in err and not os.path.exists(out)


class TestConfig:
    def test_load_and_defaults(self, tmp_path):
        path, out = write_ini(tmp_path)
        cfg = load_config(path)
        assert cfg.n == 32 and cfg.alpha == 0.75 and cfg.seed == 11
        assert cfg.ledger_ids == ["l2", "l4", "l6"]
        cfg.validate()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")

    def test_bad_alpha(self, tmp_path):
        path, _ = write_ini(tmp_path)
        cfg = load_config(path)
        cfg.alpha = 0.4
        with pytest.raises(ConfigError, match="alpha"):
            cfg.validate()

    def test_unknown_estimate_spec(self, tmp_path):
        path, _ = write_ini(tmp_path)
        cfg = load_config(path)
        cfg.estimate_ids = ["nonsense"]
        with pytest.raises(ConfigError, match="nonsense"):
            cfg.validate()

    @pytest.mark.parametrize("mode", [None, "ledger", "simulate", "estimate"])
    def test_unknown_ledger_config(self, tmp_path, capsys, mode):
        # only a run that evaluates a ledger reads [diagnostics] configs
        path, out = write_ini(tmp_path, extra="\n[diagnostics]\nconfigs = l8\n")
        cfg = load_config(path)
        if mode is None:
            with pytest.raises(ConfigError, match="l8"):
                cfg.validate()
        elif mode == "ledger":
            assert_refused(capsys, ["--config", path, "ledger"], out, "unknown ledger config 'l8'")
        else:
            assert main(["--config", path, "--grids", "64", mode]) == EXIT_OK

    def test_validation_exit_code(self, tmp_path):
        path, _ = write_ini(tmp_path, extra="\n[model2]\n")
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(BASE_INI.format(out=str(tmp_path / "o")).replace("alpha = 0.75", "alpha = 0.3"))
        assert main(["--config", str(cfg_path), "simulate"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("old,new,word", [("n = 32", "n = 100", "power of two"),
                                              ("n = 32", "n = 32\nlength = -1", "period")])
    def test_bad_grid_exit_code(self, tmp_path, capsys, old, new, word):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(BASE_INI.format(out=str(tmp_path / "o")).replace(old, new))
        assert main(["--config", str(cfg_path), "simulate"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and word in err

    def test_readme_lists_every_binding_range(self):
        # every RANGES row that refuses something has a line of README's
        # parameter table under its INI key, naming each mode it binds
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = {}
        for line in readme.splitlines():
            cells = line.split("|")
            if line.startswith("| `") and len(cells) == 6:
                for key in re.findall(r"`(\w+)`", cells[1]):
                    table[key] = cells[3]
        for row in RANGES:
            if row.modes:
                modes = table[row.key]
                assert "all" in modes if row.modes == RUNS else \
                    all(f"`{mode}`" in modes for mode in row.modes), (row.key, modes)

    def test_readme_minimal_config_loads(self, tmp_path):
        # README's minimal config loads and validates in every run mode
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M)
        path = tmp_path / "minimal.ini"
        path.write_text(block)
        cfg = load_config(str(path))
        assert cfg.formulation == "f" and cfg.dt == 0.01 and cfg.ledger_ids == ["l2", "l4", "l6"]
        for mode in RUNS:
            cfg.validate(mode)

    @pytest.mark.parametrize("edit,words", [
        (lambda text: text.replace("alpha = 0.75", "alpah = 0.9"), ["[model] alpah"]),
        (lambda text: text + "\n[modle]\nn = 64\n", ["[modle]"]),
        (lambda text: text.replace("trials = 3", "trials = 3\ngrid = 64"), ["[estimates] grid"]),
        (lambda text: "[DEFAULT]\nseed = 3\n" + text, ["seed in [DEFAULT]"]),
    ], ids=["key", "section", "near_key", "default_section"])
    def test_unknown_section_or_key_refused(self, tmp_path, capsys, edit, words):
        path, out = write_ini(tmp_path)
        Path(path).write_text(edit(Path(path).read_text()))
        with pytest.raises(ConfigError, match="run.ini"):
            load_config(path)
        assert_refused(capsys, ["--config", path, "simulate"], out, *words)

    @pytest.mark.parametrize("target", ["empty", "file", "under_file"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, capsys, target):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = {"empty": "", "file": str(taken), "under_file": str(taken / "sub")}[target]
        path = tmp_path / "run.ini"
        path.write_text(BASE_INI.format(out=out))
        assert main(["--config", str(path), "simulate"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: cannot make output directory {out!r}"), err
        assert "Traceback" not in err and taken.read_text() == ""

    @pytest.mark.parametrize("text,word", [
        ("n = 32\n", "no section headers"),
        ("[model]\nn = 32\nn = 64\n", "already exists"),
        ("[model]\n  continued\n", "parsing errors"),
        ("[model]\nn = %(x)s\n", "interpolation"),
    ], ids=["no_section_header", "duplicate_option", "bad_continuation", "bad_interpolation"])
    def test_malformed_ini_exit_code(self, tmp_path, capsys, text, word):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="bad.ini"):
            load_config(str(path))
        assert main(["--config", str(path), "simulate"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "bad.ini" in err and word in err


def numeric_ini(tmp_path, section, key, value):
    """An n = 16 omega-form config with ``key = value`` in ``section``."""
    sections = {"model": {"n": "16", "formulation": "omega", "t_end": "0.02", "dt": "0.01"},
                "diagnostics": {}, "estimates": {"specs": "eq20", "trials": "2"},
                "output": {"directory": str(tmp_path / "o")}}
    sections[section][key] = value
    path = tmp_path / "numeric.ini"
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                            for name, body in sections.items()))
    return str(path)


class TestNumericValues:
    """Non-finite and out-of-range numbers are refused before any compute,
    with exit code 1 and an error naming the key."""

    @pytest.mark.parametrize("section,key,value,mode", [
        ("model", "t_end", "nan", "simulate"), ("model", "t_end", "inf", "simulate"),
        ("model", "dt", "nan", "simulate"), ("model", "dt", "inf", "simulate"),
        ("model", "nu", "nan", "simulate"), ("model", "kappa", "nan", "simulate"),
        ("model", "nu", "inf", "simulate"),
        ("model", "amplitude_theta", "nan", "simulate"),
        ("model", "amplitude_primary", "-inf", "simulate"),
        ("model", "decay", "nan", "simulate"),
        ("model", "cfl", "0", "simulate"), ("model", "cfl", "-1", "simulate"),
        ("model", "cfl", "nan", "simulate"),
        ("estimates", "trials", "0", "estimate"), ("estimates", "trials", "-3", "estimate"),
        ("diagnostics", "rho", "nan", "ledger"),
        ("diagnostics", "rho", "0.2", "ledger"), ("diagnostics", "rho", "1e6", "ledger"),
        ("model", "length", "nan", "simulate"), ("model", "length", "inf", "ledger"),
        ("model", "alpha", "1", "simulate"), ("model", "alpha", "nan", "estimate"),
        ("model", "eps0", "0", "simulate"), ("model", "eps0", "1.5", "ledger"),
        ("model", "cadence", "0", "simulate"), ("model", "seed", "-1", "simulate"),
        ("model", "seed", "-1", "ledger"), ("model", "seed", "-1", "estimate"),
    ])
    def test_refused_with_named_key(self, tmp_path, capsys, section, key, value, mode):
        path = numeric_ini(tmp_path, section, key, value)
        assert main(["--config", path, mode]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", RUNS)
    def test_omega_run_with_eps0_refused(self, tmp_path, capsys, mode):
        # the omega form has no eps0: below 1 it is refused by name, not ignored
        path, out = write_ini(tmp_path)
        text = Path(path).read_text()
        Path(path).write_text(text.replace("formulation = f", "formulation = omega\neps0 = 0.5"))
        assert_refused(capsys, ["--config", path, mode], out,
                       "formulation must be f or scaled when eps0 < 1", "got 'omega'")
        for form, eps0 in (("omega", "1"), ("scaled", "0.5"), ("f", "0.5")):
            Path(path).write_text(text.replace("formulation = f",
                                               f"formulation = {form}\neps0 = {eps0}"))
            load_config(path).validate(mode)

    @pytest.mark.parametrize("mode", ["simulate", "ledger", "estimate"])
    def test_negative_seed_flag_refused(self, tmp_path, capsys, mode):
        path, out = write_ini(tmp_path)
        assert_refused(capsys, ["--config", path, "--seed", "-1", mode], out, "seed")


def read_series(out):
    """Data rows of ``out``/series.csv as dicts of floats."""
    lines = Path(out, "series.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


class TestBesovRange:
    """Below alpha = 2/3 the Besov index 6/(3 alpha - 2) is undefined: runs
    go on and write the Besov quantities as undefined."""

    @pytest.mark.parametrize("mode", ["simulate", "ledger"])
    @pytest.mark.parametrize("alpha", [0.6, 2.0 / 3.0], ids=["0.6", "two_thirds"])
    def test_runs_write_besov_undefined(self, tmp_path, capsys, mode, alpha):
        path, out = write_ini(tmp_path)
        Path(path).write_text(Path(path).read_text().replace("alpha = 0.75", f"alpha = {alpha!r}"))
        assert main(["--config", path, mode]) in (EXIT_OK, EXIT_INVARIANT)
        assert "Traceback" not in capsys.readouterr().err
        rows = read_series(out)
        assert [row["t"] for row in rows] == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.12])
        assert all(np.isnan(row["f_besov"]) and np.isfinite(row["f_l6"]) for row in rows)
        criteria = json.loads(Path(out, "criteria.json").read_text())
        assert criteria["sup_besov"] is None and criteria["embedding_ratio_torus"] is None
        assert criteria["finite"] is True and criteria["sup_f_l6"] > 0

    def test_besov_near_two_thirds_is_positive(self, tmp_path):
        # r = 600: the direct L^r norm of each block underflows to 0
        path, out = write_ini(tmp_path)
        Path(path).write_text(Path(path).read_text().replace("alpha = 0.75", "alpha = 0.67"))
        assert main(["--config", path, "simulate"]) == EXIT_OK
        criteria = json.loads(Path(out, "criteria.json").read_text())
        assert 0 < criteria["sup_besov"] < np.inf and criteria["finite"] is True
        assert all(row["f_besov"] > 0 for row in read_series(out))


class TestSnapshotFormat:
    def test_round_trip_and_layout(self, tmp_path):
        g = make_grid(32, 2 * np.pi)
        f = random_scalar_field(g, 3, band=(0, 3))
        path = str(tmp_path / "s.fbl")
        write_snapshot(path, g, {"theta": f, "f": f})
        blob = Path(path).read_bytes()
        assert blob[:4] == b"FBL1"
        assert int.from_bytes(blob[4:8], "little") == 32
        grid2, fields = read_snapshot(path)
        assert grid2.length == pytest.approx(2 * np.pi)
        assert np.array_equal(fields["theta"], f.physical())

    @pytest.mark.parametrize("cut", [6, -8])
    def test_malformed_snapshot_in_replay(self, tmp_path, capsys, cut):
        # a 6-byte file (cut-off header) and a cut-off data block
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "simulate"]) == EXIT_OK
        snap = os.path.join(out, "snap_000001.fbl")
        blob = Path(snap).read_bytes()
        Path(snap).write_bytes(blob[:cut])
        with pytest.raises(SnapshotFormatError, match="snap_000001"):
            read_snapshot(snap)
        replay = BASE_INI.format(out=str(tmp_path / "replay")) + f"\n[ledger]\nsnapshots_dir = {out}\n"
        rpath = tmp_path / "replay.ini"
        rpath.write_text(replay)
        assert main(["--config", str(rpath), "ledger"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "snap_000001.fbl" in err

    @pytest.mark.parametrize("names,word", [(("f",), "no 'theta' field"),
                                            (("theta",), "no 'f' field"),
                                            ((), "no fields")])
    def test_missing_fields_in_replay(self, tmp_path, capsys, names, word):
        # a one-state n = 8 snapshot set whose file lacks theta, f or both
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        snap = str(snaps / "snap_000000.fbl")
        write_snapshot(snap, make_grid(8, 2 * np.pi), {name: np.zeros((8, 8)) for name in names})
        (snaps / "snapshots.csv").write_text("file,t,alpha,eps0\nsnap_000000.fbl,0.0,0.75,1.0\n")
        if not names:
            with pytest.raises(SnapshotFormatError, match="snap_000000.fbl: header lists no fields"):
                read_snapshot(snap)
        assert replay_ledger(tmp_path, snaps) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "snap_000000.fbl" in err and word in err

    @pytest.mark.parametrize("index,word", [
        ("file,t,alpha,eps0\nsnap_000000.fbl,0.0,0.75,1.0\nsnap_000009.fbl,0.01,0.75,1.0\n",
         "line 3 names"),
        ("name,t,alpha,eps0\nsnap_000000.fbl,0.0,0.75,1.0\n", "no 'file' column"),
        ("file,t,alpha,eps0\nsnap_000000.fbl,soon,0.75,1.0\n", "t = 'soon' is not a finite number"),
        ("file,t,alpha,eps0\nsnap_000000.fbl,0.0,0.75\n", "eps0 = None is not a finite number"),
        ("file,t\nsnap_000000.fbl,0.0\nsnap_000000.fbl,0.01\nsnap_000000.fbl,0.01\n",
         "t = 0.01 does not follow t = 0.01"),
    ], ids=["missing_file", "no_file_column", "t_not_a_number", "short_row", "t_repeated"])
    def test_bad_index_in_replay(self, tmp_path, capsys, index, word):
        snaps = one_snapshot_set(tmp_path, np.zeros((8, 8)), index)
        assert replay_ledger(tmp_path, snaps) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and str(snaps / "snapshots.csv") in err
        assert word in err

    def test_field_with_a_mean_in_replay(self, tmp_path, capsys):
        snaps = one_snapshot_set(tmp_path, np.ones((8, 8)), "file,t\nsnap_000000.fbl,0.0\n")
        assert replay_ledger(tmp_path, snaps) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "snap_000000.fbl" in err and "mean-free" in err

    @pytest.mark.parametrize("config_n,line,n", [(32, 2, 8), (8, 3, 16)])
    def test_mixed_grids_in_replay(self, tmp_path, capsys, config_n, line, n):
        # n = 8, 16, 8 snapshots of small random fields, replayed under an
        # n = 32 or an n = 8 config: the first snapshot off the config's
        # grid is named, before any ledger term is evaluated
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        rows = ["file,t,alpha,eps0"]
        for i, size in enumerate((8, 16, 8)):
            g = make_grid(size, 2 * np.pi)
            fields = {"theta": random_scalar_field(g, (5, i, 0), band=(0, 1)).physical(),
                      "f": random_scalar_field(g, (5, i, 1), band=(0, 1)).physical()}
            write_snapshot(str(snaps / f"snap_{i:06d}.fbl"), g, fields)
            rows.append(f"snap_{i:06d}.fbl,{0.01 * i},0.75,1.0")
        (snaps / "snapshots.csv").write_text("\n".join(rows) + "\n")
        replay = (BASE_INI.format(out=str(tmp_path / "replay")).replace("n = 32", f"n = {config_n}")
                  + f"\n[ledger]\nsnapshots_dir = {snaps}\n")
        (tmp_path / "replay.ini").write_text(replay)
        assert main(["--config", str(tmp_path / "replay.ini"), "ledger"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and f"line {line}: " in err
        assert f"snap_{line - 2:06d}.fbl holds an n = {n}, L = 6.28319 grid" in err
        assert f"config says n = {config_n}" in err
        assert not (tmp_path / "replay" / "ledger_l2.csv").exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fbl"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(str(path))


class TestSimulate:
    def test_zero_data_flat_series(self, tmp_path):
        ini = BASE_INI.format(out=str(tmp_path / "o")).replace("amplitude_theta = 0.4", "amplitude_theta = 0.0") \
                                                      .replace("amplitude_primary = 0.4", "amplitude_primary = 0.0")
        # zero amplitude random data is the zero state
        path = tmp_path / "zero.ini"
        path.write_text(ini)
        assert main(["--config", str(path), "simulate"]) == EXIT_OK
        rows = Path(tmp_path / "o" / "series.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t,theta_l2")
        for line in rows[1:]:
            vals = [float(x) for x in line.split(",")[1:]]
            assert all(v == 0.0 for v in vals)

    def test_series_columns_and_snapshots(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "simulate"]) == EXIT_OK
        header = Path(os.path.join(out, "series.csv")).read_text().splitlines()[0].strip().split(",")
        assert header == ["t", "theta_l2", "theta_linf", "f_l2", "f_l4", "f_l6",
                          "f_halfalpha_l2", "uf_linf", "grad_uf_linf", "f_besov"]
        assert os.path.exists(os.path.join(out, "snapshots.csv"))
        assert os.path.exists(os.path.join(out, "criteria.json"))

    def test_criteria_written_without_snapshots(self, tmp_path):
        path, out = write_ini(tmp_path, name="a.ini", out=str(tmp_path / "with"))
        bare = tmp_path / "b.ini"
        bare.write_text(BASE_INI.format(out=str(tmp_path / "bare"))
                        .replace("[output]\n", "[output]\nsnapshots = false\n"))
        assert main(["--config", path, "simulate"]) == EXIT_OK
        assert main(["--config", str(bare), "simulate"]) == EXIT_OK
        assert sorted(os.listdir(tmp_path / "bare")) == ["criteria.json", "series.csv"]
        for name in ("criteria.json", "series.csv"):
            assert (tmp_path / "bare" / name).read_bytes() == Path(out, name).read_bytes()

    def test_one_f_conversion_per_stored_omega_state(self, tmp_path, monkeypatch):
        # the criteria monitor and the snapshots share one conversion
        import fblab.model
        calls = []
        convert = fblab.model.transform_to_f

        def counted(*args, **kwargs):
            calls.append(args)
            return convert(*args, **kwargs)

        monkeypatch.setattr(fblab.model, "transform_to_f", counted)
        ini = BASE_INI.format(out=str(tmp_path / "o")).replace("formulation = f", "formulation = omega")
        path = tmp_path / "omega.ini"
        path.write_text(ini)
        assert main(["--config", str(path), "simulate"]) == EXIT_OK
        rows = Path(tmp_path / "o" / "snapshots.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 5 == len(calls)

    def test_omega_run_with_non_unit_dissipation(self, tmp_path):
        # only the hybrid formulations need nu = kappa = 1; the series and
        # criteria of a vorticity run still read the state in the f form
        ini = BASE_INI.format(out=str(tmp_path / "o")).replace("formulation = f", "formulation = omega\nnu = 0.5") \
                                                      .replace("t_end = 0.12", "t_end = 0.03")
        path = tmp_path / "omega.ini"
        path.write_text(ini)
        assert main(["--config", str(path), "simulate"]) == EXIT_OK
        rows = Path(tmp_path / "o" / "series.csv").read_text().strip().splitlines()
        assert len(rows) == 3 and rows[0].startswith("t,theta_l2")
        assert json.loads(Path(tmp_path / "o" / "criteria.json").read_text())

    def test_repeat_runs_byte_identical(self, tmp_path):
        path1, out1 = write_ini(tmp_path, name="a.ini", out=str(tmp_path / "o1"))
        path2, out2 = write_ini(tmp_path, name="b.ini", out=str(tmp_path / "o2"))
        assert main(["--config", path1, "simulate"]) == EXIT_OK
        assert main(["--config", path2, "simulate"]) == EXIT_OK
        s1 = Path(os.path.join(out1, "series.csv")).read_bytes()
        s2 = Path(os.path.join(out2, "series.csv")).read_bytes()
        assert s1 == s2
        snap1 = Path(os.path.join(out1, "snap_000001.fbl")).read_bytes()
        snap2 = Path(os.path.join(out2, "snap_000001.fbl")).read_bytes()
        assert snap1 == snap2

    def test_seed_override_changes_output(self, tmp_path):
        path1, out1 = write_ini(tmp_path, name="a.ini", out=str(tmp_path / "o1"))
        path2, out2 = write_ini(tmp_path, name="b.ini", out=str(tmp_path / "o2"))
        assert main(["--config", path1, "simulate"]) == EXIT_OK
        assert main(["--config", path2, "--seed", "99", "simulate"]) == EXIT_OK
        s1 = Path(os.path.join(out1, "series.csv")).read_bytes()
        s2 = Path(os.path.join(out2, "series.csv")).read_bytes()
        assert s1 != s2


class TestLedgerCli:
    def test_inline_and_replay_identical(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "ledger"]) == EXIT_OK
        replay_ini = BASE_INI.format(out=str(tmp_path / "replay")) + \
            f"\n[ledger]\nsnapshots_dir = {out}\n"
        rpath = tmp_path / "replay.ini"
        rpath.write_text(replay_ini)
        assert main(["--config", str(rpath), "ledger"]) == EXIT_OK
        for cid in ("l2", "l4", "l6"):
            a = Path(os.path.join(out, f"ledger_{cid}.csv")).read_bytes()
            b = (tmp_path / "replay" / f"ledger_{cid}.csv").read_bytes()
            assert a == b

    @pytest.mark.parametrize("configs,word", [("", "at least one"), ("l2,l2", "repeat")],
                             ids=["empty", "repeated"])
    def test_bad_configs_list_refused(self, tmp_path, capsys, configs, word):
        path, out = write_ini(tmp_path, extra=f"\n[diagnostics]\nconfigs = {configs}\n")
        assert_refused(capsys, ["--config", path, "ledger"], out, "configs", word)

    @pytest.mark.parametrize("inline", [False, True], ids=["replay", "inline"])
    def test_fewer_than_three_states_refused(self, tmp_path, capsys, inline):
        # centered rates need an interior state: a run that stores 2 states
        # (inline: t = 0 and t = 0.01) is refused before any compute, a
        # 2-row index (replay) when it is read; each is a validation error
        # naming the count, not a traceback
        path, out = write_ini(tmp_path)
        if inline:
            Path(path).write_text(Path(path).read_text().replace("t_end = 0.12", "t_end = 0.01")
                                  .replace("dt = 0.01", "dt = 0.005").replace("cadence = 3", "cadence = 2"))
            assert_refused(capsys, ["--config", path, "ledger"], out, "stores 2 states", "at least 3")
            return
        assert main(["--config", path, "simulate"]) == EXIT_OK
        index = Path(out, "snapshots.csv").read_text().splitlines()
        Path(out, "snapshots.csv").write_text("\n".join(index[:3]) + "\n")
        snaps, ledger_out = out, str(tmp_path / "replay")
        Path(path).write_text(BASE_INI.format(out=ledger_out)
                              + f"\n[ledger]\nsnapshots_dir = {snaps}\n")
        assert main(["--config", path, "ledger"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "Traceback" not in err, err
        assert f"snapshot index {os.path.join(snaps, 'snapshots.csv')} lists 2 stored states" in err
        assert len(Path(snaps, "snapshots.csv").read_text().splitlines()) == 3
        assert not os.path.exists(os.path.join(ledger_out, "ledger_verdicts.json"))

    @pytest.mark.parametrize("t_end,dt,cadence", [(0.01, 0.005, 2), (0.01, 0.005, 1),
                                                  (0.03, 0.01, 5), (0.05, 0.02, 2), (0.12, 0.01, 3)])
    def test_inline_state_count_is_the_integrators(self, t_end, dt, cadence):
        # the states validate counts for an inline ledger are the ones
        # integrate yields, and fewer than 3 are refused
        stored = 1 + math.ceil(step_count(t_end, dt) / cadence)
        state = initial_state(make_grid(16, 2 * np.pi), ModelParams(0.75), "f")
        assert stored == len(list(integrate(state, t_end, dt=dt, cadence=cadence)))
        cfg = RunConfig(n=16, formulation="f", t_end=t_end, dt=dt, cadence=cadence)
        if stored < 3:
            with pytest.raises(ConfigError, match=f"stores {stored} states"):
                cfg.validate("ledger")
        else:
            cfg.validate("ledger")

    def test_inline_without_snapshots_refused(self, tmp_path, capsys):
        # an inline ledger replays what it writes: snapshots = false is
        # refused before any compute; a replay does not read the key
        path, out = write_ini(tmp_path, extra="snapshots = false\n")
        assert_refused(capsys, ["--config", path, "ledger"], out,
                       "snapshots must be true unless [ledger] snapshots_dir is set", "got False")
        stored, _ = write_ini(tmp_path, name="stored.ini", out=str(tmp_path / "stored"))
        assert main(["--config", stored, "simulate"]) == EXIT_OK
        Path(path).write_text(Path(path).read_text()
                              + f"\n[ledger]\nsnapshots_dir = {tmp_path / 'stored'}\n")
        assert main(["--config", path, "ledger"]) == EXIT_OK
        assert not os.path.exists(os.path.join(out, "snapshots.csv"))

    def test_verdict_summary_written(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "ledger"]) == EXIT_OK
        summary = json.loads(Path(os.path.join(out, "ledger_verdicts.json")).read_text())
        assert summary["domain"] == "torus"
        for cid in ("l2", "l4", "l6"):
            assert summary["configs"][cid]["pass"] is True


class TestEstimateCli:
    def test_artifacts_and_stability(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "estimate"]) == EXIT_OK
        summary = json.loads(Path(os.path.join(out, "estimates_summary.json")).read_text())
        assert "never a universal verification" in summary["note"]
        assert set(summary["specs"]) == {"eq20", "g50"}
        for sid in ("eq20", "g50"):
            body = Path(os.path.join(out, f"est_{sid}.csv")).read_text().splitlines()
            assert body[0] == "spec_id,grid_n,trial,seed,ratio"
            assert len(body) == 1 + 3 * 2  # trials x grids
        assert os.path.exists(os.path.join(out, "lp_measurements.csv"))

    def test_registry_built_once(self, tmp_path, monkeypatch):
        import fblab.config
        import fblab.registry
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fblab.registry.build_registry(*args, **kwargs)

        for module in (fblab.config, cli):
            monkeypatch.setattr(module, "build_registry", counted, raising=False)
        path, _ = write_ini(tmp_path)
        assert main(["--config", path, "--grids", "64", "estimate"]) == EXIT_OK
        assert len(calls) == 1

    def test_grid_flag_override(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "--grids", "64", "estimate"]) == EXIT_OK
        body = Path(os.path.join(out, "est_eq20.csv")).read_text().splitlines()
        assert len(body) == 1 + 3

    def test_invalid_grid_flag(self, tmp_path):
        path, _ = write_ini(tmp_path)
        assert main(["--config", path, "--grids", "48", "estimate"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("grids,flag", [("", None), ("64,128", ",")],
                             ids=["empty_key", "empty_flag"])
    def test_empty_grids_refused(self, tmp_path, capsys, grids, flag):
        path, out = write_ini(tmp_path)
        Path(path).write_text(Path(path).read_text().replace("grids = 64,128", f"grids = {grids}"))
        argv = ["--config", path] + (["--grids", flag] if flag is not None else []) + ["estimate"]
        assert_refused(capsys, argv, out, "grids", "at least one")

    def test_repeated_grids_refused(self, tmp_path, capsys):
        path, out = write_ini(tmp_path)
        Path(path).write_text(Path(path).read_text().replace("grids = 64,128", "grids = 64,64"))
        assert_refused(capsys, ["--config", path, "estimate"], out, "grids", "repeat")

    @pytest.mark.parametrize("specs,word", [("", "at least one"), ("eq20,eq20", "repeat")],
                             ids=["empty", "repeated"])
    def test_bad_specs_list_refused(self, tmp_path, capsys, specs, word):
        path, out = write_ini(tmp_path)
        Path(path).write_text(Path(path).read_text().replace("specs = eq20,g50", f"specs = {specs}"))
        assert_refused(capsys, ["--config", path, "estimate"], out, "specs", word)

    def test_unrequested_spec_does_not_refuse_the_run(self, tmp_path):
        # fazel5 and eq200 fail their hypotheses at alpha = 0.6; eq20 does not
        path, out = write_ini(tmp_path)
        text = Path(path).read_text().replace("alpha = 0.75", "alpha = 0.6")
        Path(path).write_text(text.replace("specs = eq20,g50", "specs = eq20"))
        assert main(["--config", path, "--grids", "64", "estimate"]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "est_eq20.csv"))

    def test_requested_spec_violated_by_alpha_refused(self, tmp_path, capsys):
        path, out = write_ini(tmp_path)
        text = Path(path).read_text().replace("alpha = 0.75", "alpha = 0.6")
        Path(path).write_text(text.replace("specs = eq20,g50", "specs = fazel5"))
        assert_refused(capsys, ["--config", path, "estimate"], out,
                       "fazel5 requires s1 + s2 > 1 - alpha")


class TestSelftestCli:
    def test_exit_zero(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


# an inviscid n = 32 run with amplitudes 30 and its step-size guard
# loosened by cfl: the state grows by orders of magnitude a step
BOOM_INI = """
[model]
n = 32
alpha = 0.55
nu = 0.0
kappa = 0.0
formulation = omega
t_end = 40.0
dt = {dt}
cadence = 1
seed = 2
amplitude_theta = 30.0
amplitude_primary = 30.0
cfl = {cfl}

[output]
directory = {out}
"""


class TestNumericalFailure:
    @pytest.mark.parametrize("dt, cfl, rows, cause", [
        # the guard of the initial state is 2.99e4, so the first step is
        # taken; the second exceeds the guard of the grown state, 0.234
        pytest.param(2.0, 1e6, 2, "state outgrew the step-size guard,dt=2 exceeds the "
                     "advective/dissipative guard 0.234005,", id="guard_dt2"),
        pytest.param(0.5, 1e6, 3, "state outgrew the step-size guard,dt=0.5 exceeds the "
                     "advective/dissipative guard 2.71443e-08,", id="guard_dt05"),
        # the guard never binds: a stage state of the third step is no
        # longer mean-free (its temperature's zero mode reaches 3.8e183)
        pytest.param(0.5, 1e300, 3, "blowup at t=1.5,temperature must be mean-free "
                     "(zero mode 3.777e+183", id="blowup"),
    ])
    def test_blowup_yields_partial_csv_and_code_two(self, tmp_path, dt, cfl, rows, cause):
        # a failed run keeps the rows and snapshots of the states it
        # completed, then the DIAGNOSTIC row; main returns, never raises
        out = tmp_path / "boom"
        path = tmp_path / "boom.ini"
        path.write_text(BOOM_INI.format(dt=dt, cfl=cfl, out=out))
        assert main(["--config", str(path), "simulate"]) == EXIT_NUMERICAL
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.SERIES_HEADER)
        assert [float(line.split(",")[0]) for line in lines[1:-1]] == [i * dt for i in range(rows)]
        assert lines[-1].startswith(f"DIAGNOSTIC,{cause}")
        index = (out / "snapshots.csv").read_text().splitlines()
        written = sorted(name for name in os.listdir(out) if name.endswith(".fbl"))
        assert [line.split(",")[0] for line in index[1:]] == written == [
            cli._snapshot_name(i) for i in range(rows)]
        assert not (out / "criteria.json").exists()


class TestStreaming:
    def test_live_states_do_not_grow_with_outputs(self, tmp_path, monkeypatch):
        # every SimState is counted from its construction to its release:
        # the most alive at once must not depend on how many are stored
        import fblab.model
        live = {"now": 0, "peak": 0}
        init = fblab.model.SimState.__post_init__

        def released():
            live["now"] -= 1

        def counted(state):
            init(state)
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
            weakref.finalize(state, released)

        monkeypatch.setattr(fblab.model.SimState, "__post_init__", counted)
        peaks = []
        for t_end in ("0.04", "0.4"):  # 5 and 41 stored states
            ini = BASE_INI.format(out=str(tmp_path / t_end)).replace("t_end = 0.12", f"t_end = {t_end}") \
                                                            .replace("cadence = 3", "cadence = 1")
            path = tmp_path / f"{t_end}.ini"
            path.write_text(ini)
            live["peak"] = live["now"]
            assert main(["--config", str(path), "simulate"]) == EXIT_OK
            peaks.append(live["peak"])
            assert len(read_series(tmp_path / t_end)) == 1 + round(float(t_end) / 0.01)
        assert peaks[1] == peaks[0] <= 8, peaks

    def test_monitor_reads_the_integrator_table(self, tmp_path, monkeypatch):
        # of an f run's symbols, only Lambda^(alpha/2) and the Besov norm's
        # rings are the monitor's own
        builds = []
        symbol = Multiplier.symbol
        monkeypatch.setattr(Multiplier, "symbol",
                            lambda spec, grid: builds.append(spec) or symbol(spec, grid))
        path, _ = write_ini(tmp_path)
        assert main(["--config", path, "simulate"]) == EXIT_OK
        run_builds = Counter(builds)
        builds.clear()
        cfg = load_config(path)
        grid = make_grid(cfg.n, cfg.length)
        list(integrate(cli._build_initial(cfg, grid), cfg.t_end, dt=cfg.dt, cadence=cfg.cadence))
        own = [Multiplier.lambda_pow(cfg.alpha / 2), *map(Multiplier.ring, levels(grid))]
        assert run_builds - Counter(builds) == Counter(own)


class TestReplayGuard:
    def test_mismatched_parameters_rejected(self, tmp_path, capsys):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "ledger"]) == EXIT_OK
        bad = BASE_INI.format(out=str(tmp_path / "bad")).replace("alpha = 0.75", "alpha = 0.8") \
            + f"\n[ledger]\nsnapshots_dir = {out}\n"
        bpath = tmp_path / "bad.ini"
        bpath.write_text(bad)
        assert main(["--config", str(bpath), "ledger"]) == EXIT_VALIDATION
        assert "alpha" in capsys.readouterr().err


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# two warm n = 128 simulate calls in a fresh process; prints the minor page
# faults of the second
_FAULT_PROBE = textwrap.dedent("""
    import resource, sys
    from fblab.cli import main
    argv = ["--config", sys.argv[1], "--out", sys.argv[2], "simulate"]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


class TestAllocatorPolicy:
    @pytest.mark.skipif(not _on_glibc(), reason="the allocator policy is glibc's mallopt")
    def test_warm_simulate_keeps_freed_arrays(self, tmp_path):
        ini = tmp_path / "f128.ini"
        ini.write_text("[model]\nn = 128\nformulation = f\nt_end = 0.01\ndt = 0.005\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(fblab.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(ini), str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        faults = int(done.stdout.split()[-1])
        assert faults < 500, f"{faults} minor page faults in a warm simulate call"

    @pytest.mark.parametrize("cdll", ["raises", "no_mallopt"])
    def test_runs_without_mallopt(self, tmp_path, monkeypatch, cdll):
        calls = []

        def fake_cdll(name):
            calls.append(name)
            if cdll == "raises":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
        path, out = write_ini(tmp_path)
        Path(path).write_text(Path(path).read_text().replace("t_end = 0.12", "t_end = 0.02"))
        assert main(["--config", path, "simulate"]) == EXIT_OK
        assert calls == [None]
        assert len(Path(out, "series.csv").read_text().splitlines()) > 1
