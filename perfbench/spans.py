"""Timing wrappers around cuspflow's public functions, for the traced run.

The wrappers live here, not in the package: installing them patches module
and class attributes, and uninstalling restores the originals.  A function
that another module bound at import (``escape`` does ``from .flow import
flow_cusp_exact``; ``hadamard`` binds scipy's ``quad``) is replaced at every
binding site found in the loaded ``cuspflow`` modules.  The CLI runners
import lazily, so patching module attributes reaches them too.

Every call becomes a span ``(name, start, end, parent, raised, items)`` kept
in memory; :meth:`Tracer.write` dumps them when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute path, positional index of an item count)
TARGETS = (
    ("hadamard.pairing", "cuspflow.hadamard", "pairing", None),
    ("hadamard.quad", "cuspflow.hadamard", "quad", None),
    ("hadamard.pole_residue", "cuspflow.hadamard", "pole_residue", None),
    ("hadamard.pair_distribution", "cuspflow.hadamard", "pair_distribution", None),
    ("jets.RadialSeries.power", "cuspflow._jets", "RadialSeries.power", None),
    ("indicial.indicial_roots", "cuspflow.indicial", "indicial_roots", None),
    ("indicial.numeric_roots_jet", "cuspflow.indicial", "numeric_roots_jet", None),
    ("indicial.eigendistribution", "cuspflow.indicial", "eigendistribution", None),
    ("bcontinuation.resolvent_line", "cuspflow.bcontinuation", "resolvent_line", None),
    ("bcontinuation._solve_mode_profiles", "cuspflow.bcontinuation", "_solve_mode_profiles", None),
    ("bcontinuation._fhat", "cuspflow.bcontinuation", "_fhat", None),
    ("bcontinuation.residue_apply", "cuspflow.bcontinuation", "residue_apply", None),
    ("escape.verify", "cuspflow.escape", "verify", None),
    ("escape.assemble_G", "cuspflow.escape", "assemble_G", None),
    ("escape.build_weight", "cuspflow.escape", "build_weight", None),
    ("escape.build_f", "cuspflow.escape", "build_f", None),
    ("escape.EscapeData.G", "cuspflow.escape", "EscapeData.G", None),
    ("escape.EscapeData.reduced_G", "cuspflow.escape", "EscapeData.reduced_G", None),
    ("escape.WeightField.__call__", "cuspflow.escape", "WeightField.__call__", None),
    ("escape.WeightField.derivative", "cuspflow.escape", "WeightField.derivative", None),
    ("flow.sample_liouville", "cuspflow.flow", "sample_liouville", 0),
    ("flow.estimate_area", "cuspflow.flow", "estimate_area", None),
    ("flow.correlate", "cuspflow.flow", "correlate", None),
    ("flow.flow_cusp_exact", "cuspflow.flow", "flow_cusp_exact", None),
)

#: name of the span that wraps one whole CLI operation
OP_SPAN = "cli"


class Tracer:
    """Collects nested spans from the wrapped functions while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, raised, items]
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    # -- recording ----------------------------------------------------------
    def _open(self, name, items=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, False, items])
        self._stack.append(len(self.spans) - 1)

    def _close(self, raised):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = raised

    def call(self, name, fn, *args, items=None, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._open(name, items)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(True)
            raise
        self._close(False)
        return out

    def _wrap(self, name, fn, item_arg):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = None
            if item_arg is not None and len(args) > item_arg:
                items = int(args[item_arg])
            return tracer.call(name, fn, *args, items=items, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------
    def install(self):
        """Wrap every target at every binding site in loaded cuspflow modules.

        Targets in modules the run has not loaded are skipped: nothing can
        call them.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "cuspflow" or key.startswith("cuspflow."))]
        for name, mod_name, path, item_arg in TARGETS:
            owner = sys.modules.get(mod_name)
            if owner is None:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, item_arg)
            self._patch(owner, attr, original, wrapper)
            if outer:
                continue  # a method: the class is its only binding site
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------
    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, errors, items.

        Inclusive time counts only spans with no ancestor of the same name, so
        recursion is not counted twice.  Self time is a span's duration minus
        the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, raised, items) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "errors": 0, "items": 0})
            dur = end - start
            rec["calls"] += 1
            rec["self_s"] += dur - child_time[idx]
            rec["errors"] += int(raised)
            rec["items"] += items or 0
            anc = parent
            while anc is not None and self.spans[anc][0] != name:
                anc = self.spans[anc][3]
            if anc is None:
                rec["s"] += dur
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "raised", "items")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
