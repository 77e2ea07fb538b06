"""End-to-end CLI tests: config validation, artifacts, determinism, replay."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from fblab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from fblab.config import ConfigError, load_config
from fblab.grid import make_grid
from fblab.ensembles import random_scalar_field
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

    def test_unknown_ledger_config(self, tmp_path):
        path, _ = write_ini(tmp_path)
        cfg = load_config(path)
        cfg.ledger_ids = ["l8"]
        with pytest.raises(ConfigError, match="l8"):
            cfg.validate()

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
    ])
    def test_refused_with_named_key(self, tmp_path, capsys, section, key, value, mode):
        path = numeric_ini(tmp_path, section, key, value)
        assert main(["--config", path, mode]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and key in err
        assert not (tmp_path / "o").exists()


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

    def test_grid_flag_override(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "--grids", "64", "estimate"]) == EXIT_OK
        body = Path(os.path.join(out, "est_eq20.csv")).read_text().splitlines()
        assert len(body) == 1 + 3

    def test_invalid_grid_flag(self, tmp_path):
        path, _ = write_ini(tmp_path)
        assert main(["--config", path, "--grids", "48", "estimate"]) == EXIT_VALIDATION


class TestSelftestCli:
    def test_exit_zero(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestNumericalFailure:
    def test_blowup_yields_partial_csv_and_code_two(self, tmp_path):
        # inviscid run with an aggressive dt and no guard margin: force a
        # blowup by running far beyond the advective limit
        ini = """
[model]
n = 32
alpha = 0.55
nu = 0.0
kappa = 0.0
formulation = omega
t_end = 40.0
dt = 2.0
cadence = 1
seed = 2
amplitude_theta = 30.0
amplitude_primary = 30.0
cfl = 1000000.0

[output]
directory = {out}
"""
        out = str(tmp_path / "boom")
        path = tmp_path / "boom.ini"
        path.write_text(ini.format(out=out))
        code = main(["--config", str(path), "simulate"])
        assert code == EXIT_NUMERICAL
        text = Path(os.path.join(out, "series.csv")).read_text()
        assert "DIAGNOSTIC" in text
        assert text.startswith("t,theta_l2")


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
