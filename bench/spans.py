"""Spans around calls into skewlat's layers, recorded from outside the program.

Each span has a name, a start, an end and a parent. A wrapper is installed
on every module attribute through which callers reach a layer's public
function: a caller that did ``from .core import validate`` looks the name up
in its own module, so that module's attribute is wrapped too. Predicates
are timed by wrapping the closures that ``search.resolve_predicate``
returns.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> the (module, attribute) pairs through which callers reach it
TARGETS = {
    "search.enumerate": (("search", "enumerate_skew_lattices"),),
    "search.is_canonical": (("search", "is_canonical"),),
    "core.axiom_violations": (("core", "axiom_violations"), ("search", "axiom_violations")),
    "core.validate": (
        ("core", "validate"),
        ("search", "validate"),
        ("green", "validate"),
        ("constructions", "validate"),
    ),
    "core.from_text": (("core", "from_text"),),
    "terms.holds": (("terms", "holds"),),
    "terms.library": (("terms", "library"),),
    "varieties.classify": (("varieties", "classify"),),
    "varieties.nc5_free": (("varieties", "nc5_free"),),
    "green.green_relations": (("green", "green_relations"),),
    "green.factors": (("green", "factors"),),
    "ybe.build_map": (("ybe", "build_map"),),
    "ybe.braid_check": (("ybe", "braid_check"),),
    "ybe.power_class": (("ybe", "power_class"),),
    "cli.validate": (("cli", "_cmd_validate"),),
    "cli.structure": (("cli", "_cmd_structure"),),
    "cli.props": (("cli", "_cmd_props"),),
    "cli.ybe": (("cli", "_cmd_ybe"),),
}


class Tracer:
    """Records spans in memory and sums calls, time and self time by name.

    Only the spans of the first round are kept whole (one round bounds
    their number); later rounds are summed only.
    """

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end), first round only
        self.keep_spans = True
        self._stack = []  # open spans: [id, child seconds]
        self._next_id = 0
        self._patches = []
        self.missing = []
        self.reset()

    def reset(self):
        """Start a new round's sums."""
        self.calls = {}
        self.total = {}
        self.self_s = {}
        self.trues = {}  # calls that returned True, for yield ratios

    def wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                if result is True:
                    self.trues[name] = self.trues.get(name, 0) + 1
                if self.keep_spans:
                    self.spans.append((span_id, parent, name, start, end))

        return traced

    def install(self, package):
        """Wrap every target that exists in the imported package."""
        for name, places in TARGETS.items():
            for module_name, attr in places:
                module = getattr(package, module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
        search = package.search
        resolve = search.resolve_predicate
        self._patches.append((search, "resolve_predicate", resolve))

        @functools.wraps(resolve)
        def resolve_traced(name):
            return self.wrap("search.predicate", resolve(name))

        search.resolve_predicate = resolve_traced
        if self.missing:
            print(f"bench: not found, left untraced: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """This round's sums: name -> (calls, total s, self s, True results)."""
        return {
            name: (self.calls[name], self.total[name], self.self_s[name], self.trues.get(name, 0))
            for name in self.calls
        }

    def write(self, path, rounds):
        """Write the first round's spans and every round's per-layer metrics as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"id": i, "parent": p, "name": n, "start": s, "end": e}
                        for i, p, n, s, e in self.spans
                    ],
                    "rounds": rounds,
                },
                fh,
            )
