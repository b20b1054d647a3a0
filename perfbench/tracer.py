"""Per-layer spans recorded from outside the package.

``Tracer.install()`` wraps the package's public functions (and the objective
methods, and ``scipy.optimize.minimize`` as the L-BFGS layer) and rebinds
each wrapped name in every ``entseq`` module that holds it, since modules that
did ``from ... import name`` keep their own reference.  ``Tracer.uninstall()``
puts the originals back.

Spans are aggregated in memory per name: call count, total time and the time
covered by child spans (self time = total - child).  Each thread keeps its own
span stack; the aggregates are updated under a lock so counts repeat exactly
when contour points run in a thread pool.
"""

import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np
import scipy.optimize

# (module, attribute, span name) of every wrapped function
FUNCTIONS = (
    ("entseq.noise_model", "make_ensemble", "noise_model.make_ensemble"),
    ("entseq.noise_model", "spectral_weight_exponent", "noise_model.spectral_weight_exponent"),
    ("entseq.sequence_engine", "target_gate", "sequence_engine.target_gate"),
    ("entseq.sequence_engine", "ensemble_slices", "sequence_engine.ensemble_slices"),
    ("entseq.sequence_engine", "evaluate_solution", "sequence_engine.evaluate_solution"),
    ("entseq.gate_algebra", "local_rotation", "gate_algebra.local_rotation"),
    ("entseq.gate_algebra", "expm_hermitian", "gate_algebra.expm_hermitian"),
    ("entseq.weyl_geometry", "pe_functional_many", "weyl_geometry.pe_functional_many"),
    ("entseq.weyl_geometry", "makhlin_invariants_many", "weyl_geometry.makhlin_invariants_many"),
    ("entseq.weyl_geometry", "w1_indicator_s", "weyl_geometry.w1_indicator_s"),
    ("entseq.weyl_geometry", "pe_fidelity_many", "weyl_geometry.pe_fidelity_many"),
    ("entseq.optimizer", "cascade_optimize", "optimizer.search"),
    ("entseq.cli", "cmd_optimize", "cli.optimize"),
    ("entseq.cli", "cmd_contour", "cli.contour"),
)
# epsilon_pe and metrics are not reported; their spans keep the search's self
# time to the search's own work
METHODS = (
    ("value", "optimizer.value"),
    ("value_and_grad", "optimizer.value_and_grad"),
    ("epsilon_pe", "optimizer.epsilon_pe"),
    ("metrics", "optimizer.metrics"),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(int)      # extra counters, e.g. gates, nit
        self.marks = {}                     # perf_counter stamps
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._seen = weakref.WeakKeyDictionary()   # objective -> evaluated points
        self._restore = []

    # -- span recording -------------------------------------------------
    def _wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            stack = self._tls.__dict__.setdefault("stack", [])
            covered = [0.0]
            stack.append(covered)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            with self._lock:
                self.calls[name] += 1
                self.total[name] += dt
                self.child[name] += covered[0]
                if hook is not None:
                    hook(args, kwargs, out, dt)
            return out

        return traced

    # -- hooks (run under the lock) -------------------------------------
    def _count_gates(self, args, kwargs, out, dt):
        self.counts["weyl_geometry.pe_functional_many.gates"] += int(np.prod(args[0].shape[:-2]))

    @staticmethod
    def _point(args, kwargs):
        d_weight = args[2] if len(args) > 2 else kwargs.get("d_weight", 1.0)
        return float(d_weight), np.asarray(args[1], dtype=float).tobytes()

    def _value_and_grad(self, args, kwargs, out, dt):
        obj = args[0]
        self._seen.setdefault(obj, set()).add(self._point(args, kwargs))
        self.counts[f"vag.calls.N{obj.N}"] += 1
        self.total[f"vag.N{obj.N}"] += dt

    def _value(self, args, kwargs, out, dt):
        obj = args[0]
        if self._point(args, kwargs) in self._seen.get(obj, ()):
            self.counts["optimizer.value.recomputed"] += 1
        self.counts[f"value.calls.N{obj.N}"] += 1
        self.total[f"value.N{obj.N}"] += dt

    def _minimize(self, args, kwargs, out, dt):
        N = np.asarray(args[1]).size // 6
        self.counts["optimizer.lbfgs.descents"] += 1
        self.counts[f"optimizer.search.descents.N{N}"] += 1
        self.counts["optimizer.lbfgs.nit"] += int(out.nit)
        self.counts["optimizer.lbfgs.nfev"] += int(out.nfev)

    def _mark(self, key):
        def hook(args, kwargs, out, dt):
            self.marks[key] = time.perf_counter()
        return hook

    # -- installation ---------------------------------------------------
    def _rebind(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname != "entseq" and not modname.startswith("entseq."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def install(self):
        from entseq import optimizer

        hooks = {
            "weyl_geometry.pe_functional_many": self._count_gates,
            "optimizer.search": self._mark("search_end"),
            "cli.optimize": self._mark("optimize_end"),
        }
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._wrap(name, original, hooks.get(name)))
        method_hooks = {"optimizer.value": self._value,
                        "optimizer.value_and_grad": self._value_and_grad}
        cls = optimizer.SequenceObjective
        for attr, name in METHODS:
            original = vars(cls)[attr]
            setattr(cls, attr, self._wrap(name, original, method_hooks.get(name)))
            self._restore.append((cls, attr, original))
        original = scipy.optimize.minimize
        scipy.optimize.minimize = self._wrap("optimizer.lbfgs", original, self._minimize)
        self._restore.append((scipy.optimize, "minimize", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- report ---------------------------------------------------------
    def point_time(self):
        """Cumulative time of the spans one contour point makes."""
        with self._lock:
            return (self.total["noise_model.make_ensemble"]
                    + self.total["sequence_engine.evaluate_solution"])

    def self_time(self, name):
        return self.total[name] - self.child[name]
