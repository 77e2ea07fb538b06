"""End-to-end CLI tests: config validation, artifacts, determinism, replay."""

import json
import os

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


class TestSnapshotFormat:
    def test_round_trip_and_layout(self, tmp_path):
        g = make_grid(32, 2 * np.pi)
        f = random_scalar_field(g, 3, band=(0, 3))
        path = str(tmp_path / "s.fbl")
        write_snapshot(path, g, {"theta": f, "f": f})
        blob = open(path, "rb").read()
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
        blob = open(snap, "rb").read()
        open(snap, "wb").write(blob[:cut])
        with pytest.raises(SnapshotFormatError, match="snap_000001"):
            read_snapshot(snap)
        replay = BASE_INI.format(out=str(tmp_path / "replay")) + f"\n[ledger]\nsnapshots_dir = {out}\n"
        rpath = tmp_path / "replay.ini"
        rpath.write_text(replay)
        assert main(["--config", str(rpath), "ledger"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "snap_000001.fbl" in err

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
        rows = open(tmp_path / "o" / "series.csv").read().strip().splitlines()
        assert rows[0].startswith("t,theta_l2")
        for line in rows[1:]:
            vals = [float(x) for x in line.split(",")[1:]]
            assert all(v == 0.0 for v in vals)

    def test_series_columns_and_snapshots(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "simulate"]) == EXIT_OK
        header = open(os.path.join(out, "series.csv")).readline().strip().split(",")
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
        rows = open(tmp_path / "o" / "series.csv").read().strip().splitlines()
        assert len(rows) == 3 and rows[0].startswith("t,theta_l2")
        assert json.load(open(tmp_path / "o" / "criteria.json"))

    def test_repeat_runs_byte_identical(self, tmp_path):
        path1, out1 = write_ini(tmp_path, name="a.ini", out=str(tmp_path / "o1"))
        path2, out2 = write_ini(tmp_path, name="b.ini", out=str(tmp_path / "o2"))
        assert main(["--config", path1, "simulate"]) == EXIT_OK
        assert main(["--config", path2, "simulate"]) == EXIT_OK
        s1 = open(os.path.join(out1, "series.csv"), "rb").read()
        s2 = open(os.path.join(out2, "series.csv"), "rb").read()
        assert s1 == s2
        snap1 = open(os.path.join(out1, "snap_000001.fbl"), "rb").read()
        snap2 = open(os.path.join(out2, "snap_000001.fbl"), "rb").read()
        assert snap1 == snap2

    def test_seed_override_changes_output(self, tmp_path):
        path1, out1 = write_ini(tmp_path, name="a.ini", out=str(tmp_path / "o1"))
        path2, out2 = write_ini(tmp_path, name="b.ini", out=str(tmp_path / "o2"))
        assert main(["--config", path1, "simulate"]) == EXIT_OK
        assert main(["--config", path2, "--seed", "99", "simulate"]) == EXIT_OK
        s1 = open(os.path.join(out1, "series.csv"), "rb").read()
        s2 = open(os.path.join(out2, "series.csv"), "rb").read()
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
            a = open(os.path.join(out, f"ledger_{cid}.csv"), "rb").read()
            b = open(os.path.join(str(tmp_path / "replay"), f"ledger_{cid}.csv"), "rb").read()
            assert a == b

    def test_verdict_summary_written(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "ledger"]) == EXIT_OK
        summary = json.load(open(os.path.join(out, "ledger_verdicts.json")))
        assert summary["domain"] == "torus"
        for cid in ("l2", "l4", "l6"):
            assert summary["configs"][cid]["pass"] is True


class TestEstimateCli:
    def test_artifacts_and_stability(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "estimate"]) == EXIT_OK
        summary = json.load(open(os.path.join(out, "estimates_summary.json")))
        assert "never a universal verification" in summary["note"]
        assert set(summary["specs"]) == {"eq20", "g50"}
        for sid in ("eq20", "g50"):
            body = open(os.path.join(out, f"est_{sid}.csv")).read().splitlines()
            assert body[0] == "spec_id,grid_n,trial,seed,ratio"
            assert len(body) == 1 + 3 * 2  # trials x grids
        assert os.path.exists(os.path.join(out, "lp_measurements.csv"))

    def test_grid_flag_override(self, tmp_path):
        path, out = write_ini(tmp_path)
        assert main(["--config", path, "--grids", "64", "estimate"]) == EXIT_OK
        body = open(os.path.join(out, "est_eq20.csv")).read().splitlines()
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
        text = open(os.path.join(out, "series.csv")).read()
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
