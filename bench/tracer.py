"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded at layer boundaries by wrapping public functions of the
``pgs`` modules from outside; the program itself is not edited.  A wrapper
is installed at every ``pgs.*`` module attribute that binds the function,
because modules import each other's functions by name (``series`` calls
``center`` through its own module global, not through ``pgs.groups``).
Element-level methods (``multiply``) get counters only, never spans, so the
hot loops pay one increment per call.

A span's self time is its duration minus the time covered by its direct
children.  In a single-threaded closed loop children never overlap, so the
self times of all spans add up to the summed duration of the root spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# span record fields
LAYER, NAME, START, END, PARENT, TRACE, KEY = range(7)


class Tracer:
    """Records spans and counters; undoes every patch it made on ``restore``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trace_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, had_own)
        self._cells: dict[str, list] = {}

    # recording

    def wrap(self, layer: str, name: str, fn, key=None, on_result=None):
        """Return ``fn`` wrapped in a span; ``key(args, kwargs)`` tags the span."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.trace_id,
                   key(args, kwargs) if key else None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # installation

    def _patch(self, owner, attr, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def rebind(self, package: str, original, replacement) -> None:
        """Rebind every attribute of a ``package`` module bound to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def count_calls(self, cls, method: str, counter: str) -> None:
        """Count calls of the two-argument method ``cls.method``; no span.

        Calls accumulate in a one-element list, the cheapest counter a
        Python wrapper can bump; ``counts`` reads it through ``flush``.
        """
        orig = getattr(cls, method)
        cell = self._cells.setdefault(counter, [0])

        def counted(obj, a, b):
            cell[0] += 1
            return orig(obj, a, b)

        counted.__wrapped__ = orig
        self._patch(cls, method, counted)

    def flush(self) -> None:
        """Move the call counters into ``counts``."""
        for counter, cell in self._cells.items():
            self.counts[counter] += cell[0]
            cell[0] = 0

    def restore(self) -> None:
        """Undo every patch, newest first."""
        self.flush()
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # analysis

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out
