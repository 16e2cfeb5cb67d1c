"""TCP shard workers: the socket transport of the process shard pool.

The trip protocol is transport-shaped — one combined row-frame delta plus N
ordered work segments per consulted worker, per-block decision replies,
definitions shipped once per ``definition_order`` version — and
:mod:`repro.cluster.transport` gives it a seam.  This module plugs blocking
sockets into that seam so shard workers can live **outside the
coordinator's process tree**, on the same host or another one:

* **Framing** — every message is one length-prefixed frame (magic +
  ``uint32`` length + pickled payload), written with a single ``sendall``
  on a ``TCP_NODELAY`` socket.  A frame that does not start with the magic
  word means the byte stream desynced (or was corrupted); both sides refuse
  to resynchronize and raise :class:`SnapshotError` loudly.
* **Deltas** — the pool's row frames, exactly what the pipe transport
  carries.
* **Coordinator** — one listening socket and one
  :class:`SocketFrameConnection` per worker, no threads: :meth:`launch`
  accepts and handshakes until every worker id has registered.  Workers
  handshake with a per-pool token (``("hello", worker_id, token)``) and
  receive the engine config (evaluation mode, compiled checks, metrics
  flag) in the reply — a remote ``chimera-events worker`` needs the address
  and token, nothing else.
* **Reconnects** — :meth:`poll_refreshed` runs a non-blocking accept at the
  start of every trip.  A new hello for an already-registered worker id
  replaces the channel and is reported to the pool, which resets that
  worker's shipping bookkeeping: its next message re-ships every definition
  and a fresh mirror from position 0 (the row log never evicts).  A worker
  that dies *mid-trip* cannot be replaced retroactively — the failed
  send/receive poisons the pool, exactly like a dead pipe.

By default the transport binds ``127.0.0.1`` on an ephemeral port and forks
its own localhost workers — single-host testing needs no setup.  Multi-host
deployments set ``$CHIMERA_TCP_HOST`` / ``$CHIMERA_TCP_PORT``, disable
spawning with ``$CHIMERA_TCP_SPAWN=0``, and start workers on other machines
with ``chimera-events worker --host ... --port ... --worker-id K --token T``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import secrets
import select
import socket
import struct
import sys
import time

from repro.cluster.transport import (
    ShardTransport,
    WorkerConfig,
    _shutdown_members,
    default_start_method,
)
from repro.errors import ShardWorkerError, SnapshotError

__all__ = [
    "TCP_HOST_ENV_VAR",
    "TCP_PORT_ENV_VAR",
    "TCP_SPAWN_ENV_VAR",
    "TCP_TIMEOUT_ENV_VAR",
    "SocketFrameConnection",
    "TcpTransport",
    "run_worker",
]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Frame header: magic word + payload length.  The magic is re-validated on
#: every frame, so a desynced or corrupted stream fails loudly instead of
#: feeding pickle garbage.
_FRAME_HEADER = struct.Struct("<4sI")
_FRAME_MAGIC = b"CHF1"

#: Refuse absurd frame lengths outright — a length field this large is a
#: corrupt header, not a real message.
_MAX_FRAME_BYTES = 1 << 31

#: Coordinator bind address (workers connect here).
TCP_HOST_ENV_VAR = "CHIMERA_TCP_HOST"
#: Coordinator port; 0 (the default) picks an ephemeral port.
TCP_PORT_ENV_VAR = "CHIMERA_TCP_PORT"
#: "0" stops the transport from forking localhost workers (multi-host mode:
#: the pool then waits for external ``chimera-events worker`` processes).
TCP_SPAWN_ENV_VAR = "CHIMERA_TCP_SPAWN"
#: Per-operation socket timeout (seconds) before the pool declares a worker
#: unreachable and poisons itself.
TCP_TIMEOUT_ENV_VAR = "CHIMERA_TCP_TIMEOUT"

_DEFAULT_TIMEOUT = 120.0
_HANDSHAKE_TIMEOUT = 30.0


def _default_timeout() -> float:
    raw = os.environ.get(TCP_TIMEOUT_ENV_VAR, "").strip()
    if not raw:
        return _DEFAULT_TIMEOUT
    try:
        return max(0.1, float(raw))
    except ValueError:
        return _DEFAULT_TIMEOUT


def _corrupt_frame_error(magic: bytes, length: int) -> SnapshotError:
    return SnapshotError(
        f"socket frame header is corrupt (magic={magic!r} length={length}); "
        "the byte stream desynced — refusing to resynchronize, close the "
        "pool and let the coordinator spawn a fresh one"
    )


class SocketFrameConnection:
    """Blocking frame codec over one socket — both ends of a tcp channel.

    Implements the same ``send_bytes`` / ``recv_bytes`` surface as a
    ``multiprocessing.Connection``, with the same failure idiom: ``EOFError``
    when the peer is gone, ``OSError`` (including a socket timeout) for
    transport faults — so the shard worker loop and the pool's poisoning
    logic run on it unchanged.  ``TCP_NODELAY`` is set and every frame goes
    out in one ``sendall``, so Nagle never holds a frame's tail back waiting
    for the peer's delayed ACK.
    """

    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP stream socket (tests run the codec over AF_UNIX)
        self.sock = sock

    def send_bytes(self, payload: bytes) -> None:
        self.sock.sendall(_FRAME_HEADER.pack(_FRAME_MAGIC, len(payload)) + payload)

    def recv_bytes(self) -> bytes:
        header = self._recv_exact(_FRAME_HEADER.size)
        magic, length = _FRAME_HEADER.unpack(header)
        if magic != _FRAME_MAGIC or length > _MAX_FRAME_BYTES:
            raise _corrupt_frame_error(magic, length)
        return self._recv_exact(length)

    def _recv_exact(self, count: int) -> bytes:
        buffer = bytearray(count)
        view = memoryview(buffer)
        received = 0
        while received < count:
            chunk = self.sock.recv_into(view[received:])
            if chunk == 0:
                raise EOFError("socket closed by peer")
            received += chunk
        return bytes(buffer)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def run_worker(
    host: str,
    port: int,
    worker_id: int,
    token: str,
    retry_seconds: float = 10.0,
) -> None:
    """Connect to a coordinator endpoint and serve trips until stopped.

    The remote entrypoint behind ``chimera-events worker``: evaluation mode,
    compiled checks and the metrics flag all arrive in the handshake reply,
    so the worker command needs no engine flags — the coordinator is the
    single source of configuration truth.
    """
    deadline = time.monotonic() + max(0.0, retry_seconds)
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=_HANDSHAKE_TIMEOUT)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
    sock.settimeout(None)
    connection = SocketFrameConnection(sock)
    try:
        connection.send_bytes(pickle.dumps(("hello", int(worker_id), token), _PROTOCOL))
        reply = pickle.loads(connection.recv_bytes())
        if not isinstance(reply, tuple) or not reply:
            raise ShardWorkerError(f"malformed handshake reply: {reply!r}")
        if reply[0] == "reject":
            raise ShardWorkerError(
                f"coordinator rejected worker {worker_id}: {reply[1]}"
            )
        if reply[0] != "config":
            raise ShardWorkerError(f"unexpected handshake reply: {reply[0]!r}")
        _, mode_value, use_compiled_checks, metrics_enabled = reply
        from repro.cluster.process_pool import _worker_main

        _worker_main(connection, mode_value, use_compiled_checks, metrics_enabled)
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# The transport
# ---------------------------------------------------------------------------


class TcpTransport(ShardTransport):
    """Row-frame shard workers over blocking sockets."""

    name = "tcp"

    def __init__(
        self,
        start_method: str | None = None,
        host: str | None = None,
        port: int | None = None,
        spawn_workers: bool | None = None,
        timeout: float | None = None,
    ) -> None:
        self.start_method = start_method or default_start_method()
        self.host = host if host is not None else os.environ.get(
            TCP_HOST_ENV_VAR, "127.0.0.1"
        )
        if port is None:
            raw = os.environ.get(TCP_PORT_ENV_VAR, "").strip()
            port = int(raw) if raw.isdigit() else 0
        self.port = port
        if spawn_workers is None:
            spawn_workers = os.environ.get(TCP_SPAWN_ENV_VAR, "1").strip() != "0"
        self.spawn_workers = spawn_workers
        self.timeout = timeout if timeout is not None else _default_timeout()
        #: The pool token, published by :meth:`launch` once the listener is
        #: bound and :attr:`port` is final.
        self.token: str | None = None
        self._config: WorkerConfig | None = None
        self._num_workers = 0
        self._listener: socket.socket | None = None
        self._channels: dict[int, SocketFrameConnection] = {}
        #: Registered worker ids whose channel was replaced since the last
        #: :meth:`poll_refreshed`.
        self._refreshed: set[int] = set()
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    def launch(self, num_workers: int, config: WorkerConfig) -> None:
        self._num_workers = num_workers
        self._config = config
        listener = socket.create_server(
            (self.host, self.port), backlog=max(8, num_workers * 2)
        )
        # Accepts happen only after select() reports a pending connection; a
        # non-blocking listener keeps a peer that vanished in between from
        # stalling the accept.
        listener.setblocking(False)
        self._listener = listener
        self.port = listener.getsockname()[1]
        # Published last: whoever polls for the token (an operator script, a
        # test starting external workers) finds the port already bound.
        self.token = secrets.token_hex(16)
        if self.spawn_workers:
            for worker_id in range(num_workers):
                self.spawn_worker(worker_id)
        else:
            # Remote deployment: the operator starts workers by hand and
            # needs the rendezvous coordinates.
            print(
                f"tcp shard coordinator listening on {self.host}:{self.port} "
                f"(token {self.token}); start workers 0..{num_workers - 1} with: "
                f"chimera-events worker --host {self.host} --port {self.port} "
                f"--worker-id K --token {self.token}",
                file=sys.stderr,
                flush=True,
            )
        self._accept_until(
            lambda: len(self._channels) >= num_workers,
            _HANDSHAKE_TIMEOUT if self.spawn_workers else self.timeout,
            f"{num_workers} tcp shard workers did not all connect",
        )
        # Launch-time registrations are first contacts, not reconnects.
        self._refreshed.clear()

    def spawn_worker(self, worker_id: int):
        """Fork one localhost worker process for ``worker_id``."""
        context = multiprocessing.get_context(self.start_method)
        process = context.Process(
            target=run_worker,
            args=(self.host, self.port, worker_id, self.token),
            name=f"tcp-shard-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._processes[worker_id] = process
        return process

    def respawn_worker(self, worker_id: int, timeout: float = _HANDSHAKE_TIMEOUT):
        """Kill a localhost worker and bring up a replacement (test hook).

        Blocks until the replacement has shaken hands, so the next trip is
        guaranteed to see the reconnect via :meth:`poll_refreshed`.
        """
        previous = self._processes.get(worker_id)
        if previous is not None and previous.is_alive():
            previous.kill()
            previous.join(timeout=5.0)
        process = self.spawn_worker(worker_id)
        self._accept_until(
            lambda: worker_id in self._refreshed,
            timeout,
            f"respawned tcp worker {worker_id} did not reconnect",
        )
        return process

    def channel(self, worker_id: int) -> SocketFrameConnection:
        channel = self._channels.get(worker_id)
        if channel is None:
            raise ShardWorkerError(
                f"tcp shard worker {worker_id} has no registered channel"
            )
        return channel

    def process(self, worker_id: int):
        return self._processes.get(worker_id)

    def poll_refreshed(self) -> tuple[int, ...]:
        while self._pending_connection(0.0):
            self._admit()
        refreshed = tuple(sorted(self._refreshed))
        self._refreshed.clear()
        return refreshed

    # -- accept + handshake -------------------------------------------------
    def _accept_until(self, done, timeout: float, failure: str) -> None:
        """Admit connections until ``done()``; fail after ``timeout`` seconds.

        Waits in short slices so a concurrent :meth:`shutdown` ends a
        ``launch()`` that is still waiting for workers promptly.
        """
        deadline = time.monotonic() + timeout
        while not done():
            if self._closed:
                raise ShardWorkerError(
                    "tcp transport shut down while waiting for workers"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardWorkerError(
                    f"{failure} within {timeout:.0f}s "
                    f"({len(self._channels)} registered)"
                )
            if self._pending_connection(min(remaining, 0.1)):
                self._admit()

    def _pending_connection(self, wait: float) -> bool:
        listener = self._listener
        if listener is None or self._closed:
            return False
        try:
            readable, _, _ = select.select([listener], [], [], wait)
        except (OSError, ValueError):
            return False  # closed by a concurrent shutdown()
        return bool(readable)

    def _admit(self) -> None:
        """Accept one connection and register it if its handshake is valid.

        A hello for an already-registered worker id replaces that channel
        (the reconnect path) and marks the id refreshed.
        """
        try:
            sock, _ = self._listener.accept()
        except (OSError, AttributeError):
            return  # the peer vanished, or a concurrent shutdown() closed us
        sock.settimeout(_HANDSHAKE_TIMEOUT)
        connection = SocketFrameConnection(sock)
        try:
            hello = pickle.loads(connection.recv_bytes())
            accepted = (
                isinstance(hello, tuple)
                and len(hello) == 3
                and hello[0] == "hello"
                and isinstance(hello[1], int)
                and 0 <= hello[1] < self._num_workers
                and hello[2] == self.token
            )
            if not accepted:
                connection.send_bytes(
                    pickle.dumps(
                        ("reject", "bad hello (unknown worker id or token)"),
                        _PROTOCOL,
                    )
                )
                connection.close()
                return
            config = self._config
            connection.send_bytes(
                pickle.dumps(
                    (
                        "config",
                        config.mode_value,
                        config.use_compiled_checks,
                        config.metrics_enabled,
                    ),
                    _PROTOCOL,
                )
            )
        except Exception:
            connection.close()
            return
        sock.settimeout(self.timeout)
        worker_id = hello[1]
        previous = self._channels.get(worker_id)
        self._channels[worker_id] = connection
        if previous is not None:
            # A replaced channel is a reconnect: the pool must re-ship defs +
            # a fresh mirror before consulting this worker again.
            self._refreshed.add(worker_id)
            previous.close()

    # -- teardown -----------------------------------------------------------
    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        channels = dict(self._channels)
        _shutdown_members(
            [
                (self._processes.get(worker_id), channels.get(worker_id))
                for worker_id in sorted(set(self._processes) | set(channels))
            ]
        )
        if self._listener is not None:
            self._listener.close()
            self._listener = None
