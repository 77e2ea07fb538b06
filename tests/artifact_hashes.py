#!/usr/bin/env python3
"""sha256 of every artifact the benchmark's configs write, for comparing two trees.

    python3 tests/artifact_hashes.py TREE OUT

Runs every workload of TREE's ``perfbench/run.py`` at its two seeds
(``DEFAULT_SEED`` and ``CONFIRM_SEED``) through TREE's ``fblab.cli.main``,
writing under OUT, which must not exist yet.  The configs come from that
file's ``WORKLOADS`` and ``write_ini``, so they are the benchmark's; a
ledger workload first simulates the snapshot set it replays, as the
benchmark's set-up does.  Prints one ``<sha256>  <workload>-seed<seed>/<file>``
line per file, sorted, snapshot sets included, so the output of two trees
diffs cleanly.  Not a pytest module: the name does not match ``test_*.py``.
"""

import hashlib
import importlib.util
import os
import sys


def load_bench(tree: str):
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(tree, "perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def write_artifacts(bench, main, out: str):
    for name, spec in bench.WORKLOADS.items():
        for seed in (bench.DEFAULT_SEED, bench.CONFIRM_SEED):
            run_dir = os.path.join(out, f"{name}-seed{seed}")
            os.makedirs(run_dir)
            snap_dir = None
            if spec["mode"] == "ledger":
                snap_dir = os.path.join(run_dir, "snapshots")
                ini = os.path.join(out, f"{name}-seed{seed}-snapshots.ini")
                bench.write_ini(ini, {"model": spec["model"]}, seed)
                if main(["--config", ini, "--out", snap_dir, "simulate"]) != 0:
                    raise SystemExit(f"{name} seed {seed}: the snapshot simulate failed")
            ini = os.path.join(out, f"{name}-seed{seed}.ini")
            bench.write_ini(ini, spec, seed, snap_dir)
            if main(["--config", ini, "--out", run_dir, spec["mode"]]) != 0:
                raise SystemExit(f"{name} seed {seed}: {spec['mode']} failed")


def hashes(out: str):
    """(sha256, path relative to ``out``) of every file under a run directory."""
    rows = []
    for root, _, files in os.walk(out):
        for fname in files:
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, out)
            if os.sep not in rel:
                continue  # the INI files written next to the run directories
            with open(path, "rb") as fh:
                rows.append((hashlib.sha256(fh.read()).hexdigest(), rel))
    return sorted(rows, key=lambda row: row[1])


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, out = (os.path.abspath(arg) for arg in sys.argv[1:])
    if os.path.exists(out):
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    bench = load_bench(tree)
    bench.cap_threads()
    sys.path.insert(0, os.path.join(tree, "src"))
    from fblab.cli import main as cli_main

    write_artifacts(bench, cli_main, out)
    for digest, rel in hashes(out):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
