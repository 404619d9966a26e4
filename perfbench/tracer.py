"""Span tracing of the library's public functions, from outside the library.

``Tracer.install`` replaces each target function with a wrapper at every
module attribute of the package that binds it (``verify`` imports
``effects`` into its own namespace, ``ks_solver`` imports
``sharp_eigenvectors``, the package ``__init__`` re-exports most names),
and each entry of ``verify.ALL_CHECKS``.  Wrappers record spans in memory
as (name, start_ns, end_ns, parent_index); self time is a span's duration
minus the durations of its direct children.  ``uninstall`` puts every
original back, and ``restored`` checks that it did.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "unsharp_spin"

# module -> public functions traced as layer spans "<module>.<function>"
TARGETS = {
    "spin_core": ("sharp_eigenvectors",),
    "ks_solver": (
        "ks_pipeline",
        "eigenray_set",
        "canonicalize_and_dedupe",
        "build_graph",
        "solve_coloring",
    ),
    "unsharp_povm": ("effects", "alphas_axial", "alphas_for_model", "simulate_outcomes"),
    "misalignment": ("sphere_integral_matrix", "sphere_grid", "gauss_legendre_nodes"),
    "crosscheck": ("check_coloring", "dpll_solve", "brute_force_colorings"),
    "formats": ("load_direction_file", "dumps_report"),
    "verify": ("run_verification",),
}


def _vectors_in(args, kwargs):
    return len(args[0] if args else kwargs["vectors"])


# span -> counts taken from a call's arguments and result, summed per run
COUNTERS = {
    "ks_solver.canonicalize_and_dedupe": lambda a, k, r: {
        "vectors_in": _vectors_in(a, k),
        "rays_out": len(r),
    },
    "ks_solver.build_graph": lambda a, k, r: {
        "pairs": len(r.ortho_pairs),
        "tripods": len(r.tripods),
    },
    "ks_solver.solve_coloring": lambda a, k, r: {
        "nodes": r.nodes_explored,
        "max_depth": r.max_depth,
    },
    "formats.dumps_report": lambda a, k, r: {"bytes": len(r.encode())},
}


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


def check_span_names() -> list[str]:
    from unsharp_spin import verify

    return [f"verify.{name}" for name, _ in verify.ALL_CHECKS]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []  # (module or list, attribute or index, original)
        self._restored: list = []
        self._wrappers: dict[int, object] = {}  # the last install's, kept alive

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans[index] = [name, time.perf_counter_ns(), 0, parent]
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    # -- installing -----------------------------------------------------------

    def _modules(self):
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> int:
        """Wrap every binding of every target; returns how many were wrapped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from unsharp_spin import verify

        originals = {}
        for module, fns in TARGETS.items():
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for fn in fns:
                originals[id(getattr(mod, fn))] = (f"{module}.{fn}", getattr(mod, fn))
        for name, check in verify.ALL_CHECKS:
            originals[id(check)] = (f"verify.{name}", check)

        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        self._wrappers = {id(w): w for w in wrappers.values()}
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        checks = verify.ALL_CHECKS
        for i, entry in enumerate(list(checks)):
            self._patches.append((checks, i, entry))
            checks[i] = (entry[0], wrappers[id(entry[1])])
        return len(self._patches)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restored, self._patches = self._patches, []

    def restored(self) -> bool:
        """True when every binding the last ``install`` wrapped holds its
        original again and no wrapper is left anywhere in the package."""
        from unsharp_spin import verify

        for owner, key, original in self._restored:
            current = owner[key] if isinstance(owner, list) else getattr(owner, key)
            if current is not original:
                return False
        leftovers = [v for m in self._modules() for v in vars(m).values() if id(v) in self._wrappers]
        leftovers += [fn for _, fn in verify.ALL_CHECKS if id(fn) in self._wrappers]
        return not leftovers

    # -- summarizing ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ns (inclusive) and self_ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for (name, start, end, _), children in zip(self.spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - children
        return dict(out)
