"""In-memory span tracer that wraps layer entry points from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.wrap` replaces a
function or method with a timing wrapper, in every loaded ``repro``
module that binds it by name, and :meth:`Tracer.restore` puts the
originals back.  Spans (name, phase, start, end, parent, size) stay in
memory; :meth:`Tracer.aggregate` folds them into per-layer totals with
self time (a span's duration minus the time its direct children cover),
and ``layers.profile`` saves them as a Chrome/Perfetto trace.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class LayerTotals:
    """Aggregate of one span name within one phase.

    ``calls`` and ``inclusive_s`` count only outermost spans of the name
    (a recursive or nested call of the same layer is not counted twice);
    ``self_s`` sums every span's self time.
    """

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    size: int = 0


class Tracer:
    def __init__(self) -> None:
        #: Finished spans: (name, phase, start_s, end_s, parent_index, size).
        self.spans: list[tuple] = []
        self.phase = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------------
    def _open(self, name: str, size: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, time.perf_counter(), None, parent, size])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    # -- patching --------------------------------------------------------------
    def wrap(self, owner, attr: str, name, size=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a class (the method is replaced on it) or a module
        (the function is replaced there and in every loaded ``repro``
        module that imported it by name, so callers holding a module
        binding see the wrapper).  ``name`` is a string or a callable
        of the call's arguments; ``size(*args, **kwargs)`` may return
        the work the call covers (rows, points), summed per layer.
        """
        func = owner.__dict__[attr]
        label = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(
                label(*args, **kwargs), size(*args, **kwargs) if size else 0
            )
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [owner] + [
                module for module in list(sys.modules.values())
                if getattr(module, "__name__", "").startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is func
            ]
        for target in targets:
            setattr(target, attr, traced)
            self._patches.append((target, attr, func))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------
    def aggregate(self) -> dict[tuple[str, str], LayerTotals]:
        """Per ``(phase, name)`` totals, with self time per span."""
        child_time = [0.0] * len(self.spans)
        for name, _phase, start, end, parent, _size in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[str, str], LayerTotals] = {}
        for i, (name, phase, start, end, parent, size) in enumerate(self.spans):
            entry = totals.setdefault((phase, name), LayerTotals())
            duration = end - start
            entry.self_s += duration - child_time[i]
            if not self._inside_same(i):
                entry.calls += 1
                entry.inclusive_s += duration
                entry.size += size
        return totals

    def _inside_same(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False
