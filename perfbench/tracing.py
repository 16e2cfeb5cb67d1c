"""Span recording for the traced run, from outside the program.

The recorder wraps the public functions of each layer on the objects of the
traced run only, for as long as the traced phase lasts; nothing under
``src/`` knows about it.  Each call becomes a span (name, start, end,
parent, op id) kept in memory.  Self times are derived afterwards from the
parent links: a span's self time is its duration minus the part of it its
child spans cover.  The op's own root span keeps what no layer claimed, the
residual.

Instance attributes shadow the class methods wherever the engine calls
through the instance (``support.check_after_block``, ``pool.evaluate``, ...).
Two layer entry points cannot be wrapped per instance: the interpreted
``ts`` kernel is the module-level function ``is_triggered`` that the Trigger
Support looks up in its own module, and ``CompiledCheck`` has ``__slots__``.
Those two are patched where the engine looks them up, for the traced phase
only, and restored afterwards.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Iterator

import repro.rules.trigger_support as trigger_support_module
from repro.core.compile import CompiledCheck

#: Span name -> layer.  The span names are the per-layer metric stems.
LAYER_OF = {
    "events.ingest": "events",
    "rules.plan": "rules",
    "rules.check": "rules",
    "rules.select": "rules",
    "rules.condition": "rules",
    "rules.action": "rules",
    "core.check": "core",
    "cluster.evaluate": "cluster",
    "oodb.operation": "oodb",
    "oodb.snapshot": "oodb",
    "oodb.commit": "oodb",
    "runtime.gc": "runtime",
}
LAYERS = ("events", "rules", "core", "cluster", "oodb", "runtime")
ROOT = "op"
NAMES = (ROOT, *LAYER_OF)


class SpanRecorder:
    """In-memory spans; only calls made inside an op on the caller's thread count.

    Spans live in flat integer arrays rather than tuples: a traced run holds
    hundreds of thousands of them, and container objects would both cost
    memory and lengthen the program's own garbage collections.  The
    collector's pauses are recorded too, as ``runtime.gc`` spans, through
    ``gc.callbacks``.
    """

    def __init__(self) -> None:
        self._name = array("b")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op_of = array("q")
        self._stack: list[int] = []
        self._op: int | None = None
        self._thread = threading.get_ident()
        #: Wrapped calls made off the caller's thread (no parent link is possible).
        self.foreign_calls = 0

    def __len__(self) -> int:
        return len(self._name)

    def _open(self, name_id: int) -> int:
        index = len(self._name)
        self._name.append(name_id)
        self._start.append(time.perf_counter_ns())
        self._end.append(0)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op_of.append(self._op)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> int:
        end = time.perf_counter_ns()
        self._stack.pop()
        self._end[index] = end
        return end - self._start[index]

    def wrap(self, name: str, function):
        name_id = NAMES.index(name)

        def traced(*args, **kwargs):
            if self._op is None:
                return function(*args, **kwargs)
            if threading.get_ident() != self._thread:
                self.foreign_calls += 1
                return function(*args, **kwargs)
            index = self._open(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _gc(self, phase: str, info: dict) -> None:
        if self._op is None or threading.get_ident() != self._thread:
            return
        if phase == "start":
            self._open(NAMES.index("runtime.gc"))
        else:
            self._close(self._stack[-1])

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._root = self._open(0)
        gc.callbacks.append(self._gc)

    def end_op(self) -> int:
        """Close the op's root span; returns its wall time in ns."""
        gc.callbacks.remove(self._gc)
        wall = self._close(self._root)
        self._op = None
        return wall

    def spans(self) -> Iterator[tuple[str, int, int, int, int]]:
        """(name, start_ns, end_ns, parent index or -1, op id) per span."""
        for index in range(len(self._name)):
            yield (
                NAMES[self._name[index]],
                self._start[index],
                self._end[index],
                self._parent[index],
                self._op_of[index],
            )


class Instrumentation:
    """Installs the recorder's wrappers and takes every one of them out again."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._instance_patches: list[tuple[object, str]] = []
        self._global_patches: list[tuple[object, str, object]] = []
        self._wrapped_ids: set[tuple[int, str]] = set()

    def _wrap_instance(self, obj, attribute: str, name: str) -> None:
        setattr(obj, attribute, self.recorder.wrap(name, getattr(obj, attribute)))
        self._instance_patches.append((obj, attribute))

    def _wrap_global(self, owner, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.recorder.wrap(name, original))
        self._global_patches.append((owner, attribute, original))

    def install_kernel(self) -> None:
        """The ``ts`` kernel, interpreted and compiled (see the module doc)."""
        self._wrap_global(trigger_support_module, "is_triggered", "core.check")
        self._wrap_global(CompiledCheck, "check", "core.check")
        self._wrap_global(CompiledCheck, "check_trip", "core.check")

    def install(self, db) -> None:
        """Wrap one database's layer entry points (idempotent per object).

        Installing on a new database first unwraps the previous one: a
        session that rebuilds its database per epoch would otherwise keep
        every old one alive, and the collector would pay for them.
        """
        self._remove_instance_patches()
        engine = db.engine
        support = engine.trigger_support
        targets = [
            (engine.event_handler, "store_external", "events.ingest"),
            (engine.event_handler, "flush_block", "events.ingest"),
            (support.planner, "plan", "rules.plan"),
            (support, "check_after_block", "rules.check"),
            (support, "check_after_blocks", "rules.check"),
            (db.rule_table, "select_for_consideration", "rules.select"),
            (db.operations, "create", "oodb.operation"),
            (db.operations, "modify", "oodb.operation"),
            (db.operations, "delete", "oodb.operation"),
            (db.store, "snapshot", "oodb.snapshot"),
            (engine, "process_commit", "oodb.commit"),
        ]
        if hasattr(support, "plan_sharded"):
            targets.append((support, "plan_sharded", "rules.plan"))
        pool = getattr(support, "process_pool", None)
        if pool is not None:
            targets.append((pool, "evaluate", "cluster.evaluate"))
            targets.append((pool, "evaluate_trip", "cluster.evaluate"))
        for state in db.rule_table.states():
            # Stream rules share the TRUE_CONDITION / NO_ACTION singletons.
            targets.append((state.rule.condition, "evaluate", "rules.condition"))
            targets.append((state.rule.action, "execute", "rules.action"))
        for obj, attribute, name in targets:
            key = id(obj), attribute
            if key not in self._wrapped_ids:
                self._wrapped_ids.add(key)
                self._wrap_instance(obj, attribute, name)

    def _remove_instance_patches(self) -> None:
        for obj, attribute in reversed(self._instance_patches):
            delattr(obj, attribute)
        self._instance_patches.clear()
        self._wrapped_ids.clear()

    def remove(self) -> None:
        self._remove_instance_patches()
        for owner, attribute, original in reversed(self._global_patches):
            setattr(owner, attribute, original)
        self._global_patches.clear()


def self_times(recorder: SpanRecorder) -> dict[int, dict[str, int]]:
    """Per op: span name -> summed self time in ns (``op`` is the residual).

    A span's self time is its duration minus the union of its children's
    intervals, each clipped to the parent.  Children are opened in start
    order, so the union needs only the furthest end seen per parent.
    """
    count = len(recorder)
    starts, ends, parents = recorder._start, recorder._end, recorder._parent
    covered = array("q", bytes(8 * count))
    reach = array("q", bytes(8 * count))
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            low = max(starts[index], starts[parent], reach[parent])
            high = min(ends[index], ends[parent])
            if high > low:
                covered[parent] += high - low
                reach[parent] = high
    per_op: dict[int, dict[str, int]] = {}
    for index, (name, start, end, _parent, op) in enumerate(recorder.spans()):
        bucket = per_op.setdefault(op, {})
        bucket[name] = bucket.get(name, 0) + (end - start) - covered[index]
    return per_op


def op_walls(recorder: SpanRecorder) -> dict[int, int]:
    """Per op: the root span's duration in ns."""
    return {
        op: end - start
        for name, start, end, _parent, op in recorder.spans()
        if name == ROOT
    }


def write_chrome_trace(recorder: SpanRecorder, path: Path, metadata: dict) -> None:
    """Spans as Chrome / Perfetto Trace Event Format JSON (complete events).

    Streamed event by event: a traced stream run holds a few hundred
    thousand spans, and a list of event dicts would multiply their memory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        handle.write('{"displayTimeUnit":"ms","otherData":')
        handle.write(json.dumps(metadata))
        handle.write(',"traceEvents":[')
        for index, (name, start, end, parent, op) in enumerate(recorder.spans()):
            if index:
                handle.write(",")
            handle.write(
                json.dumps(
                    {
                        "name": name,
                        "cat": LAYER_OF.get(name, ROOT),
                        "ph": "X",
                        "ts": start / 1000.0,
                        "dur": (end - start) / 1000.0,
                        "pid": 1,
                        "tid": 1,
                        "args": {"op": op, "parent": parent},
                    },
                    separators=(",", ":"),
                )
            )
        handle.write("]}\n")
