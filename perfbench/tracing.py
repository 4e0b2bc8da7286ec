"""Spans around the library's public entry points, recorded from outside.

Each name is patched where it is looked up at call time: a module attribute
(`ad.grad` is read through the module by `meta` and `harness`), a name a
module bound at import (`rl` binds `act_batch`; `meta` binds
`save_checkpoint` and `save_runlog`), or a method on the environment
classes. Spans stay in memory as tuples and are written out at the end.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # (span id, parent id, name, start, end, rows); parent 0 is the pass.
        self.spans: "list[tuple[int, int, str, float, float, int]]" = []
        self._stack = [0]
        self._next_id = 1
        self._undo: "list[tuple[object, str, object]]" = []

    def wrap(self, name: str, fn, rows=None):
        """`fn` recorded as a span `name`; `rows(args, kwargs)` sizes it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, rows(args, kwargs) if rows else 0))

        return traced

    def patch(self, owner, attr: str, name: str, rows=None, wrap_result: "str | None" = None) -> None:
        """Replace `owner.attr` by a traced version. With `wrap_result`, the
        callable it returns is traced too, under that name."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = orig
        if wrap_result is not None:
            def fn(*args, **kwargs):
                return self.wrap(wrap_result, orig(*args, **kwargs))
        setattr(owner, attr, self.wrap(name, fn, rows))
        self._undo.append((owner, attr, orig))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def summary(self) -> "dict[str, dict[str, float]]":
        """Per name: calls, busy seconds, self seconds (busy minus the time of
        traced children) and rows."""
        child_time: "dict[int, float]" = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            child_time[parent] += t1 - t0
        out: "dict[str, dict[str, float]]" = {}
        for sid, _, name, t0, t1, rows in self.spans:
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "rows": 0})
            agg["calls"] += 1
            agg["busy_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_time.get(sid, 0.0)
            agg["rows"] += rows
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, rows in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "rows": rows}) + "\n")
