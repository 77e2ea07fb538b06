#!/usr/bin/env python3
"""fblab benchmark: time to solution of the three CLI modes, end to end and
layer by layer.

    python3 perfbench/run.py --workload simulate_f128 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one process each

Each run is one fresh process and a closed loop with one client: it calls
`fblab.cli.main` for the workload's mode, waits for it, checks the
artifacts, and calls again until `--seconds` have passed.  Inputs come
only from `--seed` (the config seed of the generated INI file).  The
package is imported from the checkout's `src/`, never from an installed
copy.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` untraced and traced calls alternate; the traced ones wrap
the public functions of each `src/fblab/` module from outside (see
tracing.py) and the last line carries the per-layer metrics.  Spans are
written to `.perfbench_work/` at exit.

Per-layer counts and times are per op: one IF-RK4 step (simulate_*), one
replayed state across all its ledger configs (ledger_f128) or one
estimate trial (estimate_all).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE_DIR = os.path.join(HERE, "reference")

DEFAULT_SEED = 0   # artifacts are compared with reference/ at this seed
CONFIRM_SEED = 7   # a second seed, for confirming a claim on unseen inputs
ALPHA = 0.75
L2_FALLBACK = 4 << 20  # per-core L2 of the reference machine, if sysfs has none

_F128 = {"n": 128, "formulation": "f", "t_end": 0.04, "dt": 0.005, "cadence": 4}

# Why each workload (see README.md): the two simulate workloads share the
# integrator and product path, only the f form has commutators; the ledger
# never steps the integrator; the estimates run thousands of small calls.
WORKLOADS = {
    "simulate_f128": {"mode": "simulate", "model": _F128, "setups": 5},
    "simulate_omega256": {"mode": "simulate", "setups": 5,
                          "model": {"n": 256, "formulation": "omega", "t_end": 0.02,
                                    "dt": 0.005, "cadence": 4}},
    "ledger_f128": {"mode": "ledger", "model": _F128, "setups": 3,
                    "diagnostics": {"configs": "l2,l4,l6"}},
    "estimate_all": {"mode": "estimate", "setups": 5,
                     "estimates": {"specs": "all", "trials": 4, "grids": "64,128"}},
}

# Spans predicted to fire (> 0) and to stay idle (== 0) on each workload.
_SIM_FIRE = ("fields.multiply", "fields.fft", "multipliers.symbol", "multipliers.apply_multiplier",
             "operators.advect", "model.step", "model.cfl_limit", "diagnostics.criteria_monitor",
             "dyadic.besov_norm", "norms.lp_norm", "snapshot.write", "reporting.write")
_SIM_IDLE = ("diagnostics.energy_terms", "norms.integral_product", "registry.draw", "registry.lhs",
             "registry.rhs", "snapshot.read", "commutators.smoothing_comparison")
EXPECT = {
    "simulate_f128": (_SIM_FIRE + ("operators.commutator_apply",), _SIM_IDLE),
    "simulate_omega256": (_SIM_FIRE, _SIM_IDLE + ("operators.commutator_apply",)),
    "ledger_f128": (("diagnostics.energy_terms", "norms.integral_product", "norms.lp_norm",
                     "operators.commutator_apply", "operators.advect", "fields.multiply",
                     "fields.fft", "multipliers.symbol", "snapshot.read", "reporting.write"),
                    ("model.step", "model.cfl_limit", "registry.draw", "snapshot.write",
                     "diagnostics.criteria_monitor", "commutators.smoothing_comparison")),
    "estimate_all": (("registry.draw", "registry.lhs", "registry.rhs", "ensembles.draw",
                      "dyadic.maximal_function", "commutators.smoothing_comparison",
                      "operators.commutator_apply", "fields.fft", "reporting.write"),
                     ("model.step", "model.cfl_limit", "diagnostics.energy_terms",
                      "snapshot.write", "snapshot.read", "diagnostics.criteria_monitor")),
}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads():
    """Run BLAS/OpenMP pools on one thread; must run before numpy loads.

    fblab's calls are single-threaded: a second OpenBLAS thread only spins
    between the few small BLAS calls it joins, so it doubles the CPU time
    without shortening a call.  While it spins, anything else on the
    machine that takes the other core stalls the main thread, and a call
    then takes up to twice as long.  One thread measures the program, not
    the scheduler.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cache_sizes():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, entry)
        level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text and text[-1] in units else int(text or 0)


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fblab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args, numpy_version: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": _src_digest(),
        "python": sys.version.split()[0], "numpy": numpy_version,
        "nproc": _nproc(), "cpu_model": model, "caches": _cache_sizes(),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "default_seed": DEFAULT_SEED, "confirm_seed": CONFIRM_SEED,
    }


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                 "import fblab.cli; print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user's run pays it."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def write_ini(path: str, spec: dict, seed: int, snapshots_dir: str | None = None):
    sections = {"model": {"alpha": ALPHA, "seed": seed, **spec.get("model", {})}}
    for key in ("diagnostics", "estimates"):
        if key in spec:
            sections[key] = spec[key]
    if snapshots_dir:
        sections["ledger"] = {"snapshots_dir": snapshots_dir}
    with open(path, "w") as fh:
        for name, entries in sections.items():
            fh.write(f"[{name}]\n")
            fh.writelines(f"{k} = {v}\n" for k, v in entries.items())


def _quantile(values, q):
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Bench:
    def __init__(self, args, cli, config, checks):
        self.args = args
        self.cli = cli
        self.config = config
        self.checks = checks
        self.spec = WORKLOADS[args.workload]
        self.mode = self.spec["mode"]
        self.run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.first_hashes = None
        self.reference_bad = []
        ref_path = os.path.join(REFERENCE_DIR, f"{args.workload}.json")
        self.reference = None
        if args.seed == DEFAULT_SEED and os.path.exists(ref_path) and not args.update_reference:
            with open(ref_path) as fh:
                self.reference = json.load(fh)

    # -- set-up ------------------------------------------------------------

    def setup_once(self, i: int) -> float:
        """Config write/parse and, for the ledger, the snapshot set it replays."""
        d = os.path.join(self.run_dir, f"setup{i}")
        os.makedirs(d)
        t0 = time.perf_counter()
        snap_dir = None
        if self.mode == "ledger":
            snap_dir = os.path.join(d, "snapshots")
            snap_ini = os.path.join(d, "snapshots.ini")
            write_ini(snap_ini, {"model": self.spec["model"]}, self.args.seed)
            rc = self.cli.main(["--config", snap_ini, "--out", snap_dir, "simulate"])
        ini = os.path.join(d, "run.ini")
        write_ini(ini, self.spec, self.args.seed, snap_dir)
        cfg = self.config.load_config(ini)
        cfg.validate(mode=self.mode)
        elapsed = time.perf_counter() - t0
        if snap_dir is not None:
            if rc != 0:
                self.problems.append(f"set-up simulate exited {rc}")
            else:
                arts = self.checks.load_artifacts(snap_dir)
                self.problems += self.checks.invariant_failures("simulate", arts)
                hashes = self.checks.artifact_hashes(snap_dir)
                if i and hashes != self.setup_hashes:
                    self.problems.append("set-up snapshot sets differ between set-ups")
                self.setup_hashes = hashes
        self.ini, self.cfg, self.snap_dir = ini, cfg, snap_dir
        return elapsed

    def ops_per_call(self) -> int:
        cfg = self.cfg
        if self.mode == "simulate":
            return max(1, math.ceil(cfg.t_end / cfg.dt - 1e-12))
        if self.mode == "ledger":
            with open(os.path.join(self.snap_dir, "snapshots.csv")) as fh:
                return sum(1 for _ in fh) - 1
        return len(cfg.resolve_estimate_ids()) * len(cfg.grids) * cfg.trials

    # -- one closed-loop call ------------------------------------------------

    def call(self, tracer=None, installation=None) -> float:
        out = os.path.join(self.run_dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["--config", self.ini, "--out", out, self.mode]
        rc = None
        if installation is not None:
            installation.install()
            tracer.begin_call()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                rc = tracer.call("cli.main", self.cli.main, (argv,), {})
            else:
                rc = self.cli.main(argv)
        except Exception:  # a failed op is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
        finally:
            wall = time.perf_counter() - t0
            if installation is not None:
                installation.uninstall()
        self.attempted += self.ops
        bad = self.check_call(rc, out)
        if bad:
            self.failed += self.ops
            self.problems += bad
        return wall

    def check_call(self, rc, out):
        if rc != 0:
            return [f"fblab {self.mode} exited {rc}"]
        arts = self.checks.load_artifacts(out)
        bad = self.checks.invariant_failures(self.mode, arts)
        hashes = self.checks.artifact_hashes(out)
        if self.first_hashes is None:
            self.first_hashes = hashes
            if self.args.update_reference:
                os.makedirs(REFERENCE_DIR, exist_ok=True)
                with open(os.path.join(REFERENCE_DIR, f"{self.args.workload}.json"), "w") as fh:
                    json.dump(arts, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            elif self.reference is not None:
                self.reference_bad = self.checks.reference_failures(self.reference, arts)
        elif hashes != self.first_hashes:
            bad.append("artifacts are not byte-identical to the first call's")
        # later calls are compared byte for byte with the first, so its
        # reference verdict stands for them too
        return bad + self.reference_bad

    # -- the run ----------------------------------------------------------------

    def run(self):
        os.makedirs(self.run_dir)
        imports = [import_seconds() for _ in range(self.spec["setups"])]
        setups = [self.setup_once(i) for i in range(self.spec["setups"])]
        self.ops = self.ops_per_call()
        tracer = installation = None
        if self.args.trace:
            import tracing

            tracer = tracing.Tracer()
            installation = tracing.Installation(tracer)
        self.call()  # warm-up: lazy caches fill; checked and counted, not timed
        plain, traced = [], []
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while time.perf_counter() < deadline or i < (2 if tracer else 1):
            if tracer is not None and i % 2:
                traced.append(self.call(tracer, installation))
            else:
                plain.append(self.call())
            i += 1
        self.imports, self.setups, self.plain, self.traced = imports, setups, plain, traced
        self.tracer = tracer

    def end_to_end(self) -> dict:
        wall = statistics.median(self.plain)
        return {
            "wall_s": (wall, "s"),
            "ops_per_s": (self.ops / wall, "1/s"),
            "setup_s": (statistics.median(self.imports) + statistics.median(self.setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ops_ok_frac": (1.0 - self.failed / self.attempted, "ratio"),
        }

    def per_layer(self, l2_bytes: int) -> dict:
        import tracing

        tr = self.tracer
        ops = self.ops * len(self.traced)
        agg = tr.summarize()
        for name in tracing.SPAN_NAMES:
            agg.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        c = tr.counts
        steps = agg["model.step"]["calls"]
        in_step = tr.counts_within("model.step")
        in_terms = tr.counts_within("diagnostics.energy_terms")
        step_ms = [1e3 * d for d in tr.durations("model.step")]
        fft_flops = tr.fft_flops_per(ops)
        states = ops if self.mode == "ledger" else 0
        trials = ops if self.mode == "estimate" else 0

        def per_op(x):
            return x / ops

        def per(x, n):
            return x / n if n else 0.0

        def calls(name):
            return per_op(agg[name]["calls"])

        def self_s(name):
            return per_op(agg[name]["self"])

        def total_s(name):
            return per_op(agg[name]["total"])

        m = {
            "fields.multiply.calls": (calls("fields.multiply"), "count/op"),
            "fields.multiply.self_s": (self_s("fields.multiply"), "s/op"),
            "fields.fft.fwd_calls": (per_op(c["fft.fwd"]), "count/op"),
            "fields.fft.inv_calls": (per_op(c["fft.inv"]), "count/op"),
            "fields.fft.s": (total_s("fields.fft"), "s/op"),
            "fields.physical.hit_ratio": (per(c["physical.hits"], c["physical.calls"]), "ratio"),
            "fields.fft.bytes_computed": (per_op(c["fft.bytes"]), "B/op"),
            "fields.fft.flops_computed": (fft_flops, "flop/op"),
            "fields.fft.flops_per_byte_computed": (per(fft_flops, per_op(c["fft.bytes"])), "flop/B"),
            "fields.fft.working_set_mb_computed": (tr.max_fft_bytes / 2**20, "MB"),
            "fields.fft.working_set_over_l2": (tr.max_fft_bytes / l2_bytes, "ratio"),
            "multipliers.symbol.calls": (calls("multipliers.symbol"), "count/op"),
            "multipliers.symbol.self_s": (self_s("multipliers.symbol"), "s/op"),
            "multipliers.apply_multiplier.self_s": (self_s("multipliers.apply_multiplier"), "s/op"),
            "operators.advect.calls": (calls("operators.advect"), "count/op"),
            "operators.advect.self_s": (self_s("operators.advect"), "s/op"),
            "operators.commutator_apply.calls": (calls("operators.commutator_apply"), "count/op"),
            "operators.commutator_apply.self_s": (self_s("operators.commutator_apply"), "s/op"),
            "model.step.calls": (calls("model.step"), "count/op"),
            "model.step.self_s": (self_s("model.step"), "s/op"),
            "model.step.ms_p50": (_quantile(step_ms, 0.5), "ms"),
            "model.step.ms_p90": (_quantile(step_ms, 0.9), "ms"),
            "model.cfl_limit.self_s": (self_s("model.cfl_limit"), "s/op"),
            "model.step.products": (per(in_step["fields.multiply"], steps), "count/step"),
            "model.step.ffts": (per(in_step["fields.fft"], steps), "count/step"),
            "model.step.symbols": (per(in_step["multipliers.symbol"], steps), "count/step"),
            "diagnostics.energy_terms.calls": (calls("diagnostics.energy_terms"), "count/op"),
            "diagnostics.energy_terms.self_s": (self_s("diagnostics.energy_terms"), "s/op"),
            "diagnostics.state.products": (per(in_terms["fields.multiply"], states), "count/state"),
            "diagnostics.state.advects": (per(in_terms["operators.advect"], states), "count/state"),
            "diagnostics.state.ffts": (per(in_terms["fields.fft"], states), "count/state"),
            "diagnostics.state.symbols": (per(in_terms["multipliers.symbol"], states), "count/state"),
            "norms.integral_product.self_s": (self_s("norms.integral_product"), "s/op"),
            "norms.lp_norm.self_s": (self_s("norms.lp_norm"), "s/op"),
            "diagnostics.criteria_monitor.s": (total_s("diagnostics.criteria_monitor"), "s/op"),
            "dyadic.besov_norm.self_s": (self_s("dyadic.besov_norm"), "s/op"),
            "registry.draw.self_s": (self_s("registry.draw"), "s/op"),
            "registry.lhs.self_s": (self_s("registry.lhs"), "s/op"),
            "registry.rhs.self_s": (self_s("registry.rhs"), "s/op"),
            "registry.draw.useful_ratio": (per(trials, c["draw.attempts"]), "ratio"),
            "ensembles.draw.self_s": (self_s("ensembles.draw"), "s/op"),
            "dyadic.maximal_function.self_s": (self_s("dyadic.maximal_function"), "s/op"),
            "commutators.smoothing_comparison.s": (total_s("commutators.smoothing_comparison"), "s/op"),
            "snapshot.write.s": (total_s("snapshot.write"), "s/op"),
            "snapshot.read.s": (total_s("snapshot.read"), "s/op"),
            "snapshot.bytes": (per_op(c["snapshot.bytes"]), "B/op"),
            "reporting.write.s": (total_s("reporting.write"), "s/op"),
            "trace.overhead_frac":
                (statistics.median(self.traced) / statistics.median(self.plain) - 1.0, "ratio"),
        }
        fire, idle = EXPECT[self.args.workload]
        for name in fire:
            if agg[name]["calls"] == 0:
                self.problems.append(f"trace: {name} never fired")
        for name in idle:
            if agg[name]["calls"]:
                self.problems.append(f"trace: {name} fired {agg[name]['calls']} times")
        return m

    def write_trace(self, env: dict):
        path = os.path.join(WORK, f"trace-{self.args.workload}-seed{self.args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"env": env, "span_fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.tracer.spans}, fh, separators=(",", ":"))
        return path


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help=f"rewrite reference/<workload>.json (seed {DEFAULT_SEED} only)")
    args = parser.parse_args()
    if args.update_reference and args.seed != DEFAULT_SEED:
        parser.error(f"the reference is kept for seed {DEFAULT_SEED}")
    if not os.path.isfile(os.path.join(SRC, "fblab", "__init__.py")):
        print(f"no fblab source tree under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    cap_threads()
    sys.path.insert(0, SRC)
    import fblab.cli as cli
    from fblab import config
    import numpy

    import checks

    pkg_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if pkg_dir != os.path.join(SRC, "fblab"):
        print(f"imported fblab from {pkg_dir}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args, numpy.__version__)
    l2_text = env["caches"].get("L2", "")
    l2_bytes = _size_bytes(l2_text) if l2_text else L2_FALLBACK
    env["l2_bytes_used"] = l2_bytes
    print("env " + json.dumps(env, sort_keys=True))

    bench = Bench(args, cli, config, checks)
    try:
        bench.run()
        if args.trace:
            metrics = bench.per_layer(l2_bytes)
            print(f"spans written to {os.path.relpath(bench.write_trace(env), ROOT)}")
        else:
            metrics = bench.end_to_end()
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)

    for p in bench.problems[:50]:
        print(f"check failed: {p}", file=sys.stderr)
    samples = bench.traced if args.trace else bench.plain
    print(f"{len(samples)} timed calls of {bench.ops} ops; wall per call min/median/max "
          f"{min(samples):.4f}/{statistics.median(samples):.4f}/{max(samples):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
