"""Fuzzed inputs: random and mutated snapshot bytes, snapshot indexes
and INI text.

Every input either parses or raises the named error of its reader
(:class:`SnapshotFormatError` naming the file, :class:`ConfigError`),
never another exception.  Generated snapshot headers keep n <= 64, and a
mutated n is refused by the length check before any grid is built.
"""

import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fblab.cli import _load_trajectory
from fblab.config import ConfigError, RunConfig, load_config
from fblab.grid import make_grid
from fblab.model import ModelParams
from fblab.snapshot import MAGIC, SnapshotFormatError, read_snapshot, write_snapshot

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def parse_snapshot(path, blob):
    """Read ``blob`` as a snapshot: None if refused, else (grid, fields)."""
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        grid, fields = read_snapshot(path)
    except SnapshotFormatError as exc:
        assert path in str(exc)
        return None
    assert fields
    for values in fields.values():
        assert values.shape == (grid.n, grid.n) and values.dtype == np.float64
    return grid, fields


@st.composite
def snapshots(draw):
    """A snapshot file with n <= 64, and the header and data it encodes."""
    n = draw(st.sampled_from([0, 1, 4, 7, 8, 16, 32, 64]))
    length = draw(st.sampled_from([2 * np.pi, 1.0, 0.0, -1.0, np.inf, np.nan]))
    names = draw(st.lists(st.sampled_from(["theta", "f", "omega", "é", ""]), max_size=3))
    blocks = draw(st.integers(0, len(names) + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = rng.standard_normal((blocks, n, n))
    head = [MAGIC, struct.pack("<I", n), struct.pack("<d", length), struct.pack("<H", len(names))]
    for name in names:
        raw = name.encode("utf-8")
        head += [struct.pack("<H", len(raw)), raw]
    return b"".join(head) + data.astype("<f8").tobytes(), (n, length, names, data)


@st.composite
def mutations(draw, blob):
    """``blob`` with some bytes overwritten, then cut or extended."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(0, 4))):
        if out:
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(out) + 8))
    return bytes(out[:cut]) + draw(st.binary(max_size=max(0, cut - len(out))))


class TestSnapshotFuzz:
    @FUZZ
    @given(blob=st.binary(max_size=256), magic=st.booleans())
    def test_random_bytes(self, tmp_path, blob, magic):
        parse_snapshot(str(tmp_path / "s.fbl"), (MAGIC if magic else b"") + blob)

    @FUZZ
    @given(snap=snapshots())
    def test_generated_headers(self, tmp_path, snap):
        blob, (n, length, names, data) = snap
        got = parse_snapshot(str(tmp_path / "s.fbl"), blob)
        valid = (n >= 8 and 0 < length < np.inf and names and len(data) == len(names))
        assert (got is not None) == bool(valid)
        if got is not None:
            grid, fields = got
            assert grid.n == n and set(fields) == set(names)
            # a repeated name keeps the block written last
            for i, name in enumerate(names):
                if name not in names[i + 1:]:
                    assert np.array_equal(fields[name], data[i])

    @FUZZ
    @given(data=st.data())
    def test_mutated_snapshots(self, tmp_path, data):
        blob, _ = data.draw(snapshots())
        parse_snapshot(str(tmp_path / "s.fbl"), data.draw(mutations(blob)))


VALID_INDEX = (b"file,t,alpha,eps0\n"
               b"snap_000000.fbl,0.0,0.75,1.0\n"
               b"snap_000001.fbl,0.01,0.75,1.0\n"
               b"snap_000002.fbl,0.02,0.75,1.0\n")

_INDEX_TOKENS = st.sampled_from([
    "file", "t", "alpha", "eps0", ",", ",", "\n", "\n", "\r\n", '"', " ", "\x00", "/", "..",
    "snap_000000.fbl", "snap_000001.fbl", "snap_000003.fbl", "snap_000009.fbl", "snapshots.csv",
    "0.0", "0.01", "0.75", "1.0", "-1", "nan", "inf", "1e400", "x", "é",
])


def write_zero_snapshot(path, n):
    write_snapshot(str(path), make_grid(n, 2 * np.pi),
                   {"theta": np.zeros((n, n)), "f": np.zeros((n, n))})


def load_index(snap_dir, blob, config_n=8):
    """Replay ``snap_dir`` under the index ``blob`` and an n = ``config_n``
    config: None if refused, else the states.  snap_000000..2 are n = 8
    files, snap_000003 an n = 16 one."""
    for i, n in enumerate((8, 8, 8, 16)):
        path = snap_dir / f"snap_{i:06d}.fbl"
        if not path.exists():
            write_zero_snapshot(path, n)
    (snap_dir / "snapshots.csv").write_bytes(blob)
    grid = make_grid(config_n, 2 * np.pi)
    try:
        states = _load_trajectory(str(snap_dir), ModelParams(alpha=0.75), grid)
    except (ConfigError, SnapshotFormatError) as exc:
        assert str(snap_dir) in str(exc)
        return None
    assert states and all(a.time < b.time for a, b in zip(states, states[1:]))
    assert all(s.theta.grid == grid and s.primary.grid == grid for s in states)
    return states


class TestSnapshotIndexFuzz:
    def test_valid_index_loads(self, tmp_path):
        assert [s.time for s in load_index(tmp_path, VALID_INDEX)] == [0.0, 0.01, 0.02]

    @FUZZ
    @given(text=st.lists(_INDEX_TOKENS, max_size=40).map("".join))
    def test_token_soup(self, tmp_path, text):
        load_index(tmp_path, text.encode("utf-8"))

    @FUZZ
    @given(text=st.text(max_size=200), header=st.booleans())
    def test_random_text(self, tmp_path, text, header):
        load_index(tmp_path, (b"file,t,alpha,eps0\n" if header else b"") + text.encode("utf-8"))

    @FUZZ
    @given(data=st.data())
    def test_mutated_index(self, tmp_path, data):
        load_index(tmp_path, data.draw(mutations(VALID_INDEX)))

    @FUZZ
    @given(sizes=st.lists(st.sampled_from([8, 16, 32]), min_size=1, max_size=4),
           config_n=st.sampled_from([8, 16]))
    def test_mixed_grids(self, tmp_path, sizes, config_n):
        # a valid index over snapshots of the drawn sizes loads exactly
        # when every size is the config's, else names the first other one
        snaps = tmp_path / "mixed"
        snaps.mkdir(exist_ok=True)
        rows = []
        for i, n in enumerate(sizes):
            write_zero_snapshot(snaps / f"m_{i}.fbl", n)
            rows.append(f"m_{i}.fbl,{0.01 * i},0.75,1.0\n")
        states = load_index(snaps, ("file,t,alpha,eps0\n" + "".join(rows)).encode(), config_n)
        assert (states is not None) == all(n == config_n for n in sizes)
        if states is None:
            first = next(i for i, n in enumerate(sizes) if n != config_n)
            with pytest.raises(ConfigError, match=f"line {first + 2}: .*m_{first}.fbl holds an "
                                                  f"n = {sizes[first]}, L = 6.28319 grid, "
                                                  f"config says n = {config_n}"):
                _load_trajectory(str(snaps), ModelParams(alpha=0.75), make_grid(config_n, 2 * np.pi))


_INI_TOKENS = st.sampled_from([
    "[model]", "[estimates]", "[output]", "[diagnostics]", "[ledger]", "[DEFAULT]", "[",
    "n", "alpha", "dt", "seed", "cadence", "grids", "specs", "snapshots", "configs",
    "t_end", "cfl", "rho", "amplitude_theta", "amplitude_primary", "decay", "trials", "nu", "kappa",
    "=", ":", " ", "  ", "\n", "\n", "\t", "%", "%(x)s", "%%", "#", ";",
    "0.75", "64,128", "64,,x", "true", "maybe", "x", "-1", "0", "1e400", "nan", "inf", "-inf", "é",
])


def parse_config(path, blob):
    """Load and validate ``blob``: a config that loads either validates
    or raises :class:`ConfigError`."""
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        assert os.path.basename(path) in str(exc)
        return
    assert isinstance(cfg, RunConfig)
    try:
        cfg.validate()
    except ConfigError:
        pass


_NUMERIC_KEYS = [("model", key) for key in ("t_end", "dt", "cfl", "nu", "kappa", "amplitude_theta",
                                            "amplitude_primary", "decay", "alpha", "eps0",
                                            "length", "n", "cadence", "seed")]
_NUMERIC_KEYS += [("diagnostics", "rho"), ("estimates", "trials")]


class TestConfigFuzz:
    @FUZZ
    @given(where=st.sampled_from(_NUMERIC_KEYS),
           value=st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400", "0.5", "3"]))
    @example(where=("model", "length"), value="nan")
    def test_numeric_value(self, tmp_path, where, value):
        # one numeric key set: the config validates, or the error names the key
        section, key = where
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        try:
            load_config(str(path)).validate()
        except ConfigError as exc:
            assert key in str(exc) or "c.ini" in str(exc)

    @FUZZ
    @given(text=st.lists(_INI_TOKENS, max_size=40).map("".join))
    def test_token_soup(self, tmp_path, text):
        parse_config(str(tmp_path / "c.ini"), text.encode("utf-8"))

    @FUZZ
    @given(text=st.text(max_size=200))
    def test_random_text(self, tmp_path, text):
        parse_config(str(tmp_path / "c.ini"), ("[model]\n" + text).encode("utf-8"))

    @FUZZ
    @given(blob=st.binary(max_size=200))
    def test_random_bytes(self, tmp_path, blob):
        parse_config(str(tmp_path / "c.ini"), blob)
