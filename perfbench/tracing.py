"""Spans and exact op counts for fblab, taken from outside the package.

`install` replaces each traced function at every module attribute that
refers to it, because fblab modules import helpers such as `advect`,
`multiply` and `commutator_apply` by name: wrapping only the defining
module would miss the calls `model`, `diagnostics`, `registry` and
`commutators` make through their own bindings.  Class methods are wrapped
on the class.  Every `numpy.fft` transform entry point (and `scipy.fft`,
if the program has loaded it) is wrapped too, so a later change of
transform is still counted.  `uninstall` restores the originals.

A span is `[name, start, end, parent, op]`; spans are kept in memory and
written out by the caller at exit.  A span's self time is its duration
minus the durations of its direct children (calls are single-threaded,
so children nest inside their parent).
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter
from typing import Dict, List

# (defining module, function, span name)
FUNCTIONS = (
    ("fblab.fields", "multiply", "fields.multiply"),
    ("fblab.multipliers", "apply_multiplier", "multipliers.apply_multiplier"),
    ("fblab.operators", "advect", "operators.advect"),
    ("fblab.operators", "commutator_apply", "operators.commutator_apply"),
    ("fblab.model", "step", "model.step"),
    ("fblab.model", "cfl_limit", "model.cfl_limit"),
    ("fblab.diagnostics", "energy_terms", "diagnostics.energy_terms"),
    ("fblab.diagnostics", "criteria_monitor", "diagnostics.criteria_monitor"),
    ("fblab.norms", "integral_product", "norms.integral_product"),
    ("fblab.norms", "lp_norm", "norms.lp_norm"),
    ("fblab.dyadic", "besov_norm", "dyadic.besov_norm"),
    ("fblab.dyadic", "maximal_function", "dyadic.maximal_function"),
    ("fblab.ensembles", "random_scalar_field", "ensembles.draw"),
    ("fblab.ensembles", "random_divfree_field", "ensembles.draw"),
    ("fblab.commutators", "smoothing_comparison", "commutators.smoothing_comparison"),
    ("fblab.snapshot", "write_snapshot", "snapshot.write"),
    ("fblab.snapshot", "read_snapshot", "snapshot.read"),
    ("fblab.reporting", "write_csv", "reporting.write"),
    ("fblab.reporting", "write_json", "reporting.write"),
)

# (defining module, class, method, span name)
METHODS = (
    ("fblab.multipliers", "Multiplier", "symbol", "multipliers.symbol"),
    ("fblab.registry", "InequalitySpec", "draw", "registry.draw"),
    ("fblab.registry", "InequalitySpec", "lhs", "registry.lhs"),
    ("fblab.registry", "InequalitySpec", "rhs", "registry.rhs"),
)

FFT_FORWARD = ("fft2", "rfft2", "fftn", "rfftn", "fft", "rfft")
FFT_INVERSE = ("ifft2", "irfft2", "ifftn", "irfftn", "ifft", "irfft")
FFT_MODULES = ("numpy.fft", "scipy.fft")

# every name a span can carry, so metrics exist even when a layer is idle
SPAN_NAMES = tuple(sorted({n for *_, n in FUNCTIONS} | {n for *_, n in METHODS}
                          | {"fields.fft", "cli.main"}))


class Tracer:
    """In-memory span recorder plus the counters spans cannot carry."""

    def __init__(self):
        self.spans: List[list] = []
        self.child: List[float] = []
        self.stack: List[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.fft_flops: Counter = Counter()  # flops of one transform -> transforms
        self.max_fft_bytes = 0
        self._next_op = 0
        self._state_ops: Dict[float, int] = {}

    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self.child.append(0.0)
        self.stack.append(sid)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            if parent >= 0:
                self.child[parent] += span[2] - span[1]

    def new_op(self):
        self.op = self._next_op
        self._next_op += 1

    def state_op(self, state):
        """Ledger ops are states: one op id per stored time within a call."""
        if state.time not in self._state_ops:
            self._state_ops[state.time] = self._next_op
            self._next_op += 1
        self.op = self._state_ops[state.time]

    def begin_call(self):
        """Spans outside any op (config, artifact writing) carry op -1."""
        self._state_ops = {}
        self.op = -1

    # -- summaries --------------------------------------------------------

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            dur = end - start
            agg = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["total"] += dur
            agg["self"] += dur - self.child[sid]
        return out

    def counts_within(self, scope: str) -> Counter:
        """Number of spans of each name that have a `scope` span as ancestor."""
        inside: Dict[int, bool] = {}
        out: Counter = Counter()
        for sid, span in enumerate(self.spans):
            parent = span[3]
            inside[sid] = parent >= 0 and (inside[parent] or self.spans[parent][0] == scope)
            if inside[sid]:
                out[span[0]] += 1
        return out

    def fft_flops_per(self, ops: int) -> float:
        """Computed FFT flops per op; summed per distinct transform so the
        figure does not depend on how many calls were traced."""
        return math.fsum(f * (n / ops) for f, n in sorted(self.fft_flops.items()))

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def _fft_figures(name, args, kwargs, out):
    """(bytes, flops) computed from array shapes: input plus output bytes,
    and 5 N log2 L flops per complex transform (half for real ones), N
    being the points on the larger side and L the transformed length."""
    import numpy as np

    src = np.asarray(args[0]) if args else np.asarray(kwargs["a"])
    big = src if src.size >= out.size else out
    if name.endswith("fftn"):
        axes = kwargs.get("axes") or tuple(range(big.ndim))
    elif name.endswith("fft2"):
        axes = kwargs.get("axes", (-2, -1))
    else:
        axes = (kwargs.get("axis", -1),)
    length = math.prod(big.shape[a] for a in axes)
    flops = 5.0 * big.size * math.log2(length) if length > 1 else 0.0
    if name.startswith(("rfft", "irfft")):
        flops *= 0.5
    return src.nbytes + out.nbytes, flops


class Installation:
    """Wrappers installed for one tracer; `uninstall` puts everything back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: List[tuple] = []

    def _set(self, owner, attr, value):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        tr = self.tracer
        fblab_modules = [m for n, m in sorted(sys.modules.items())
                         if m is not None and (n == "fblab" or n.startswith("fblab."))]
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._function_wrapper(span, original)
            for mod in fblab_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for modname, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            self._set(cls, attr, self._function_wrapper(span, getattr(cls, attr)))

        fields = sys.modules["fblab.fields"].SpectralField
        physical = fields.physical

        def traced_physical(field):
            tr.counts["physical.calls"] += 1
            if field._physical is not None:
                tr.counts["physical.hits"] += 1
            return physical(field)

        self._set(fields, "physical", traced_physical)

        for modname in FFT_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for name in FFT_FORWARD + FFT_INVERSE:
                if hasattr(mod, name):
                    self._set(mod, name, self._fft_wrapper(name, getattr(mod, name)))
        return self

    def _function_wrapper(self, span, original):
        tr = self.tracer

        if span == "model.step":
            def wrapper(*args, **kwargs):
                tr.new_op()
                return tr.call(span, original, args, kwargs)
        elif span == "diagnostics.energy_terms":
            def wrapper(*args, **kwargs):
                tr.state_op(args[0])
                return tr.call(span, original, args, kwargs)
        elif span == "registry.draw":
            def wrapper(*args, **kwargs):
                if args[2][2] == 0:  # seed is (base, trial, attempt)
                    tr.new_op()
                tr.counts["draw.attempts"] += 1
                return tr.call(span, original, args, kwargs)
        elif span in ("snapshot.write", "snapshot.read"):
            def wrapper(*args, **kwargs):
                out = tr.call(span, original, args, kwargs)
                tr.counts["snapshot.bytes"] += os.path.getsize(args[0])
                return out
        else:
            def wrapper(*args, **kwargs):
                return tr.call(span, original, args, kwargs)
        wrapper.__wrapped__ = original
        return wrapper

    def _fft_wrapper(self, name, original):
        tr = self.tracer
        direction = "fft.fwd" if name in FFT_FORWARD else "fft.inv"

        def wrapper(*args, **kwargs):
            out = tr.call("fields.fft", original, args, kwargs)
            nbytes, flops = _fft_figures(name, args, kwargs, out)
            tr.counts[direction] += 1
            tr.counts["fft.bytes"] += nbytes
            tr.fft_flops[flops] += 1
            tr.max_fft_bytes = max(tr.max_fft_bytes, nbytes)
            return out

        wrapper.__wrapped__ = original
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
