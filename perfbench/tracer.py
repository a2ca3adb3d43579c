"""Spans around polarium's public functions, installed from outside the program.

Each wrapper replaces a function at the name its caller looks up, records one
span (name, start, end, parent) per call in flat in-memory arrays, and can add
to named counters from the call's result.  `uninstall` restores every original
object, so an untraced call runs the unmodified program.
"""

from __future__ import annotations

import collections
import functools
import json
import time
import weakref
from array import array

import numpy as np


class Tracer:
    COUNTERS = ("catalog.build.points", "hyperplanes.arising.count",
                "hyperbolic.lines.count", "space.generators.count",
                *(f"props.{p}.checked" for p in ("A", "B_prime", "B_triads", "C", "D",
                                                  "regular_pairs", "symplectic")))

    def __init__(self):
        self.names = []                 # span-name table
        self._name_ids = {}
        self.name_id = array("q")       # one entry per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")        # index of the enclosing span, -1 at the root
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []
        self._seen_spaces = weakref.WeakSet()

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name, fn, on_result):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, clock = self._stack, time.perf_counter
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, on_result))
        self._patches.append((owner, attr, original))

    def _add(self, key, amount):
        self.counts[key] += amount

    # -- polarium's layers -------------------------------------------------------

    def install(self):
        """Wrap every traced layer.  Names are `<module>.<function>`."""
        from polarium import cli, embed, hyperbolic, hyperplanes, props
        from polarium.space import PolarSpace

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "build_space", "catalog.build",
                   lambda a, r: self._add("catalog.build.points", r.n_points))
        self.patch(cli, "full_report", "props.full_report")
        self.patch(cli, "validate_witness", "props.validate")
        for fn, prop in (("check_A", "A"), ("check_regular_pairs", "regular_pairs"),
                         ("check_centric_triads", "B_triads"), ("check_B_prime", "B_prime"),
                         ("check_C", "C"), ("check_D", "D"), ("is_symplectic", "symplectic")):
            key = f"props.{prop}.checked"
            self.patch(props, fn, f"props.{prop}",
                       lambda a, r, key=key: self._add(key, r.checked))
        self.patch(hyperplanes, "arising_hyperplanes", "hyperplanes.arising",
                   lambda a, r: self._add("hyperplanes.arising.count", len(r)))
        self.patch(hyperbolic, "all_hyperbolic_lines", "hyperbolic.all_lines",
                   lambda a, r: self._add("hyperbolic.lines.count", len(r)))
        self.patch(embed, "natural_embedding", "embed.natural")
        self.patch(embed, "minimal_embedding", "embed.minimal")
        self.patch(PolarSpace, "generators", "space.generators", self._count_generators)
        self.patch(PolarSpace, "induced_subspace", "space.induced_subspace")
        self.patch(PolarSpace, "max_singular_rank", "space.max_singular_rank")

    def _count_generators(self, args, result):
        # generators() caches per space: count each space's enumeration once
        space = args[0]
        if space not in self._seen_spaces:
            self._seen_spaces.add(space)
            self._add("space.generators.count", len(result))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------------

    def mark(self) -> int:
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict:
        """Self seconds and call count per span name over spans [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children.  The range must start with no span open.
        """
        # slicing copies, so the arrays stay free to grow afterwards
        ids = np.frombuffer(self.name_id[lo:hi], dtype=np.int64)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        par = np.frombuffer(self.parent[lo:hi], dtype=np.int64) - lo
        inside = par >= 0
        child = np.bincount(par[inside], weights=dur[inside], minlength=len(dur))
        k = len(self.names)
        self_s = np.bincount(ids, weights=dur - child, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return {name: (float(self_s[i]), int(calls[i])) for i, name in enumerate(self.names)}

    def write(self, path: str):
        """Write every span as a [name, start, end, parent] row."""
        rows = [[self.names[n], s, e, p] for n, s, e, p in
                zip(self.name_id, self.start, self.end, self.parent)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, fh)
