"""Outside-in layer trace: spans around the calls into apline's modules.

The tracer wraps, from outside the library,

* every public function of each layer module (``algebra``, ``grassmann``,
  ``crossratio``, ``hermitian``, ``obstate``, ``classical``, ``properties``,
  ``cli``), under every module attribute and module-level dict entry bound to
  the same function object, because the modules import each other's names
  directly;
* ``SubspacePoint.__init__``, reported as ``grassmann.SubspacePoint``;
* the ``numpy.linalg`` factorization entry points and ``scipy.linalg.expm``,
  the layer ``linalg``.

Each call records a span (function id, parent span, op id, start, end) in
flat in-memory arrays.  ``end_pass`` folds the arrays into per-function call
counts and self times (span time minus the time of its child spans; spans of
one thread never overlap, so the children's durations are the covered part)
and keeps the first pass's raw spans for ``write_spans``.  Nothing is written
while ops run.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

LAYERS = ("algebra", "grassmann", "crossratio", "hermitian", "obstate",
          "classical", "properties", "cli")

SPAN_ROWS = 200_000  # spans written out per run; the rest are only counted

# (attribute, metric name); eigvalsh is the eigenvalue-only path of eigh.
LINALG = (("svd", "svd"), ("qr", "qr"), ("inv", "inv"), ("solve", "solve"),
          ("det", "det"), ("eigh", "eigh"), ("eigvalsh", "eigh"), ("cond", "cond"))


class Tracer:
    """Wraps the traced entry points and folds their spans into per-op figures."""

    def __init__(self):
        self.names = []          # function id -> metric name
        self.layers = []         # function id -> layer
        self.current_op = -1
        self._fid = array("i")
        self._parent = array("q")
        self._op = array("q")
        self._t0 = array("q")
        self._t1 = array("q")
        self._stack = [-1]
        self._patches = []       # (owner, key, original, wrapper)
        self.first_pass = None   # raw spans of the first pass
        self.first_counts = None
        self.self_ns = None
        self.passes = 0
        self.mismatched_passes = 0

    # --- wrapping -------------------------------------------------------------------

    def _register(self, name, layer):
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name, layer):
        fid = self._register(name, layer)
        fids, parents, ops = self._fid, self._parent, self._op
        t0s, t1s, stack, clock = self._t0, self._t1, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            t1s.append(0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()

        return traced

    def _plan_patch(self, owner, key, wrapper):
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._patches.append((owner, key, original, wrapper))

    def _plan(self):
        """Build one wrapper per traced entry point and note where it goes."""
        import sys

        import numpy.linalg
        import scipy.linalg

        import apline
        import apline.cli  # noqa: F401 - cli is a layer too

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "apline" or name.startswith("apline.")]
        for layer in LAYERS:
            mod = sys.modules[f"apline.{layer}"]
            for name, fn in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{name}", layer)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._plan_patch(owner, key, wrapper)
                        elif isinstance(value, dict):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is fn:
                                    self._plan_patch(value, dkey, wrapper)
        cls = apline.grassmann.SubspacePoint
        self._plan_patch(cls, "__init__",
                         self._wrap(cls.__init__, "grassmann.SubspacePoint", "grassmann"))
        for attr, metric in LINALG:
            self._plan_patch(numpy.linalg, attr, self._wrap(
                getattr(numpy.linalg, attr), f"linalg.{metric}", "linalg"))
        self._plan_patch(scipy.linalg, "expm",
                         self._wrap(scipy.linalg.expm, "scipy.expm", "linalg"))

    def install(self):
        """Put every wrapper in place; ``uninstall`` restores the originals."""
        if not self._patches:
            self._plan()
        self._apply(3)

    def uninstall(self):
        self._apply(2)

    def _apply(self, which):
        for patch in reversed(self._patches) if which == 2 else self._patches:
            owner, key, value = patch[0], patch[1], patch[which]
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # --- aggregation ----------------------------------------------------------------

    def end_pass(self):
        """Fold this pass's spans into the totals and clear the span arrays."""
        if self._stack != [-1]:
            raise RuntimeError("a pass ended inside an open span")
        fid = np.array(self._fid, dtype=np.intp)
        parent = np.array(self._parent, dtype=np.int64)
        t0 = np.array(self._t0, dtype=np.int64)
        t1 = np.array(self._t1, dtype=np.int64)
        dur = (t1 - t0).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        size = len(self.names)
        counts = np.bincount(fid, minlength=size)
        self_ns = np.bincount(fid, weights=dur - child, minlength=size)
        if self.passes == 0:
            self.first_counts = counts
            self.self_ns = self_ns
            self.first_pass = (fid, parent, np.array(self._op, dtype=np.int64), t0, t1)
        else:
            self.self_ns += self_ns
            self.mismatched_passes += int(not np.array_equal(counts, self.first_counts))
        self.passes += 1
        for arr in (self._fid, self._parent, self._op, self._t0, self._t1):
            del arr[:]

    def per_op(self, ops_per_pass):
        """{name: (first-pass calls per op, mean self microseconds per op)}.

        Call counts come from the first pass alone, so they repeat exactly
        for a seed whatever the number of passes; self times average over
        every pass.
        """
        out = {}
        total_ops = ops_per_pass * self.passes
        for fid, name in enumerate(self.names):
            calls, us = out.get(name, (0.0, 0.0))
            out[name] = (calls + self.first_counts[fid] / ops_per_pass,
                         us + self.self_ns[fid] / 1e3 / total_ops)
        for layer in set(self.layers):
            ids = [i for i, lay in enumerate(self.layers) if lay == layer]
            out[layer] = (float(self.first_counts[ids].sum()) / ops_per_pass,
                          float(self.self_ns[ids].sum()) / 1e3 / total_ops)
        return out

    def write_spans(self, path):
        """Write the first pass's spans as TSV (at most SPAN_ROWS rows)."""
        fid, parent, op, t0, t1 = self.first_pass
        base = int(t0.min()) if len(t0) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(min(len(fid), SPAN_ROWS)):
                fh.write(f"{i}\t{parent[i]}\t{op[i]}\t{self.names[fid[i]]}\t"
                         f"{t0[i] - base}\t{t1[i] - base}\n")
            if len(fid) > SPAN_ROWS:
                fh.write(f"# truncated: {len(fid) - SPAN_ROWS} more spans\n")
        return len(fid)
