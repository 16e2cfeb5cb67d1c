"""Worker transports of the process shard pool: one wire format, two ways in.

Every Event-Base delta a shard worker receives is a **row frame**: the
fixed-width :class:`~repro.events.event_base.SnapshotRowCodec` rows of the
EB slice it has not seen, cut from an append-only log the coordinator
encodes once per EB position (:class:`_RowLog`), plus the out-of-band
snapshot tuples of rows that do not fit the fixed width and the type-table
slice the worker is missing.  Two transports carry those frames:

* ``pipe`` (the default) — forked local workers on ``multiprocessing``
  pipes;
* ``tcp`` (:mod:`repro.cluster.net`) — the same frames over blocking
  sockets, for workers outside the coordinator's process tree or host.

A transport owns worker launch and the per-worker byte channels; the pool
keeps everything protocol-shaped — the row log, shipped-definition
bookkeeping, segment assembly, reply draining, poisoning.  The channel
contract is the ``multiprocessing.Connection`` surface (``send_bytes`` /
``recv_bytes`` raising ``EOFError`` / ``OSError`` on a dead peer), so the
worker loop in :mod:`repro.cluster.process_pool` runs unmodified over both.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

from repro.errors import SnapshotError
from repro.events.event import EventOccurrence
from repro.events.event_base import ROW_WIDTH, EventBase, SnapshotRowCodec

__all__ = [
    "TRANSPORTS",
    "DEFAULT_TRANSPORT_ENV_VAR",
    "PipeTransport",
    "ShardTransport",
    "WorkerConfig",
    "create_transport",
    "default_transport",
]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Worker transports the pool understands.
TRANSPORTS = ("pipe", "tcp")

#: Environment variable consulted when ``transport`` is not given explicitly
#: (mirrors ``$CHIMERA_SHARDS`` / ``$CHIMERA_SHARD_MODE``).
DEFAULT_TRANSPORT_ENV_VAR = "CHIMERA_TRANSPORT"


def default_transport() -> str:
    """The ambient worker transport: ``$CHIMERA_TRANSPORT`` or ``pipe``."""
    raw = os.environ.get(DEFAULT_TRANSPORT_ENV_VAR, "").strip().lower()
    return raw if raw in TRANSPORTS else "pipe"


def default_start_method() -> str:
    """``fork`` where available: startup in the low milliseconds, no re-imports.

    The worker main stays spawn-compatible for platforms without it.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class WorkerConfig:
    """What a shard worker needs to know before its first message.

    The pipe transport passes these as fork/spawn arguments; the tcp
    transport ships them in the handshake's ``config`` reply — which is what
    lets a remote ``chimera-events worker`` join with no engine flags of its
    own.
    """

    __slots__ = ("mode_value", "use_compiled_checks", "metrics_enabled")

    def __init__(
        self, mode_value: str, use_compiled_checks: bool, metrics_enabled: bool
    ) -> None:
        self.mode_value = mode_value
        self.use_compiled_checks = use_compiled_checks
        self.metrics_enabled = metrics_enabled


# ---------------------------------------------------------------------------
# Row frames: the one delta format
# ---------------------------------------------------------------------------


class _RowLog:
    """Coordinator side of the row-frame delta: an append-only row log.

    Every EB position is encoded exactly once into a growing byte log, and
    each worker's delta is a slice ``[start, encoded)`` of that log (rows are
    fixed-width, so a slice is one ``bytes`` copy, no re-encoding).  Nothing
    is evicted — a worker that reconnects with an empty mirror re-syncs from
    position 0 off the same log, fallbacks included.
    """

    __slots__ = (
        "codec", "rows", "encoded", "fallback_rows", "rows_inline", "rows_fallback"
    )

    def __init__(self) -> None:
        self.codec = SnapshotRowCodec()
        self.rows = bytearray()
        #: EB positions ``[0, encoded)`` hold encoded rows.
        self.encoded = 0
        #: position -> snapshot tuple for rows that did not inline-encode.
        self.fallback_rows: dict[int, tuple] = {}
        self.rows_inline = 0
        self.rows_fallback = 0

    def encode_through(self, event_base: EventBase, total: int) -> None:
        """Encode EB positions ``[encoded, total)`` onto the log tail."""
        if total <= self.encoded:
            return
        rows = self.rows
        encode = self.codec.encode_into
        occurrences = event_base.occurrences
        inline = fallback = 0
        offset = self.encoded * ROW_WIDTH
        # A previous call that failed part-way left its tail behind.
        del rows[offset:]
        rows.extend(bytes((total - self.encoded) * ROW_WIDTH))
        try:
            for position in range(self.encoded, total):
                occurrence = occurrences[position]
                if encode(rows, offset, occurrence):
                    inline += 1
                else:
                    row = occurrence.snapshot()
                    # An unpicklable user payload surfaces here, naming the
                    # occurrence, before any worker message is sent — instead
                    # of crashing a worker or failing the whole message.
                    try:
                        pickle.dumps(row, _PROTOCOL)
                    except Exception as exc:
                        raise SnapshotError(
                            "window snapshot is not picklable — event "
                            "payloads and OIDs must be picklable to cross "
                            "a process boundary (first offender: "
                            f"occurrence eid={row[0]}): {exc}"
                        ) from exc
                    self.fallback_rows[position] = row
                    fallback += 1
                offset += ROW_WIDTH
        finally:
            self.rows_inline += inline
            self.rows_fallback += fallback
        self.encoded = total

    def delta(self, start: int, shipped_types: int) -> tuple:
        """The row frame for positions ``[start, encoded)``.

        ``(start, count, rows, fallbacks, new_types)``: ``fallbacks`` are the
        ``(position, snapshot tuple)`` pairs of the slice's out-of-band rows
        and ``new_types`` the type-table entries past ``shipped_types``.
        """
        fallbacks: tuple = ()
        if self.fallback_rows:
            fallbacks = tuple(
                sorted(
                    (position, row)
                    for position, row in self.fallback_rows.items()
                    if position >= start
                )
            )
        return (
            start,
            self.encoded - start,
            bytes(self.rows[start * ROW_WIDTH : self.encoded * ROW_WIDTH]),
            fallbacks,
            tuple(self.codec.type_snapshots[shipped_types:]),
        )

    def reset(self) -> None:
        """Forget the encoded log (the coordinator's EB was rebound)."""
        self.codec = SnapshotRowCodec()
        self.rows.clear()
        self.encoded = 0
        self.fallback_rows.clear()


class _FrameReader:
    """Worker side of the row-frame delta.

    Stateful: the type table ships as prefix slices (``new_types``), so the
    reader's codec must see every frame of the log in order — which the trip
    protocol guarantees.  A frame whose byte length disagrees with its row
    count, or whose placeholders and out-of-band rows do not pair up, raises
    :class:`SnapshotError` instead of rebuilding a wrong mirror.
    """

    __slots__ = ("codec",)

    def __init__(self) -> None:
        self.codec = SnapshotRowCodec()

    def read(self, delta: tuple, type_cache: dict) -> list[EventOccurrence]:
        """The occurrences of one row frame, in log order."""
        start, count, packed, fallback_items, new_types = delta
        if len(packed) != count * ROW_WIDTH:
            raise SnapshotError(
                f"row frame is corrupt: {count} rows announced but "
                f"{len(packed)} bytes shipped (expected {count * ROW_WIDTH}); "
                "refusing to decode — close the pool and let the coordinator "
                "spawn a fresh one"
            )
        if new_types:
            self.codec.extend_types(new_types)
        fallbacks = dict(fallback_items)
        decode = self.codec.decode_from
        from_snapshot = EventOccurrence.from_snapshot
        occurrences: list[EventOccurrence] = []
        offset = 0
        for position in range(start, start + count):
            row = decode(packed, offset)
            if row is None:
                row = fallbacks.pop(position, None)
                if row is None:
                    raise SnapshotError(
                        "row frame codec divergence: position "
                        f"{position} is a fallback placeholder with no "
                        "out-of-band row"
                    )
            occurrences.append(from_snapshot(row, type_cache=type_cache))
            offset += ROW_WIDTH
        if fallbacks:
            raise SnapshotError(
                "row frame codec divergence: "
                f"{len(fallbacks)} out-of-band rows matched no placeholder "
                f"(positions {sorted(fallbacks)[:5]}...)"
            )
        return occurrences

    def reset(self) -> None:
        """New EB log: the positions (and type table) restart from zero."""
        self.codec = SnapshotRowCodec()


# ---------------------------------------------------------------------------
# The transport interface
# ---------------------------------------------------------------------------


class ShardTransport:
    """Worker launch + byte channels, behind one seam.

    The pool calls :meth:`launch` once, :meth:`poll_refreshed` at the start
    of every trip, and :meth:`shutdown` (idempotent — also reached via
    ``weakref.finalize`` when a pool is abandoned) at the end of life.
    """

    name = "?"

    def launch(self, num_workers: int, config: WorkerConfig) -> None:
        """Start (or admit) ``num_workers`` workers and open their channels."""
        raise NotImplementedError

    def channel(self, worker_id: int):
        """The worker's byte channel (``send_bytes`` / ``recv_bytes``)."""
        raise NotImplementedError

    def process(self, worker_id: int):
        """The local process behind the worker, if the transport spawned one."""
        return None

    def poll_refreshed(self) -> tuple[int, ...]:
        """Worker ids whose channel was replaced since the last poll.

        Pipes are never replaced; the tcp transport reports reconnected
        workers here so the pool can reset their shipping bookkeeping (defs
        + mirror re-sync from zero) before the next trip.
        """
        return ()

    def shutdown(self) -> None:
        """Stop workers and release transport resources (idempotent)."""
        raise NotImplementedError


def _shutdown_members(members: list[tuple]) -> None:
    """Best-effort teardown of ``(process | None, channel | None)`` pairs."""
    stop = pickle.dumps(("stop",), _PROTOCOL)
    for process, connection in members:
        try:
            if connection is not None and (process is None or process.is_alive()):
                connection.send_bytes(stop)
        except Exception:
            pass
    for process, connection in members:
        try:
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
        except Exception:
            pass
        try:
            if connection is not None:
                connection.close()
        except Exception:
            pass


class PipeTransport(ShardTransport):
    """Forked local workers on ``multiprocessing`` pipes (the default)."""

    name = "pipe"

    def __init__(self, start_method: str | None = None) -> None:
        self.start_method = start_method or default_start_method()
        self._members: list[tuple] = []

    def launch(self, num_workers: int, config: WorkerConfig) -> None:
        from repro.cluster.process_pool import _worker_main

        context = multiprocessing.get_context(self.start_method)
        for worker_id in range(num_workers):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    child_end,
                    config.mode_value,
                    config.use_compiled_checks,
                    config.metrics_enabled,
                ),
                name=f"shard-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            child_end.close()
            self._members.append((process, parent_end))

    def channel(self, worker_id: int):
        return self._members[worker_id][1]

    def process(self, worker_id: int):
        return self._members[worker_id][0]

    def shutdown(self) -> None:
        _shutdown_members(self._members)


def create_transport(name: str, *, start_method: str | None = None) -> ShardTransport:
    """Build the named transport (``pipe`` / ``tcp``)."""
    if name == "pipe":
        return PipeTransport(start_method)
    if name == "tcp":
        from repro.cluster.net import TcpTransport

        return TcpTransport(start_method)
    raise ValueError(
        f"unknown transport {name!r}; expected one of {', '.join(TRANSPORTS)}"
    )
