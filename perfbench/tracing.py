"""In-process spans around the public entry points of each knncert layer.

The tracer wraps functions from outside the package: it replaces each target
in every ``knncert`` module namespace that binds it (``cli`` imports
``order_by_distance`` and ``predict`` by name, ``counting``, ``certify_dp``
and ``minrepair`` import ``build_tree``, and so on) and restores them on
``uninstall``. ``build_tree`` recurses through its own module's global, so
it is wrapped only where other modules bind it and a span is one top-level
call. ``conflicts`` runs about n^2 times per count and gets a counter only.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

SPANNED = (
    "ingest.load_schema",
    "ingest.load_dataset",
    "dataset.order_by_distance",
    "dataset.greedy_repair",
    "dataset.predict",
    "fdschema.decide_lhs_chain",
    "fastscan.as_keyed",
    "fastscan.prune",
    "fastscan.fastscan",
    "fastscan.certify_pk",
    "certify_dp.certify",
    "decompose.build_tree",
    "counting.count_label",
    "counting.count_repairs",
    "minrepair.min_rep",
    "minrepair.forbidden_repair",
    "cli.main",
)
COUNTED = ("dataset.conflicts",)
EXTERNAL_ONLY = {"decompose.build_tree"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    call_id: int
    request: Optional[str]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.survivor_ratio = 0.0  # sum over prune calls of survivors / n
        self.request: Optional[str] = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(call_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(name, start, end, parent, call_id, self.request))
                self.counts[name] += 1
            if name == "fastscan.prune":
                self.survivor_ratio += len(result) / args[0].dataset.size
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "knncert" or n.startswith("knncert.")]
        for name in SPANNED + COUNTED:
            mod_name, fn_name = name.split(".")
            home = sys.modules[f"knncert.{mod_name}"]
            orig = getattr(home, fn_name)
            wrapper = self._spanned(name, orig) if name in SPANNED else self._counted(name, orig)
            for mod in modules:
                if mod is home and name in EXTERNAL_ONLY:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def self_times(self) -> list[tuple[Span, float]]:
        """Each span with its duration minus the union of its children."""
        children: defaultdict = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = []
        for s in self.spans:
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children[s.call_id]):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((s, (s.end - s.start) - covered))
        return out
