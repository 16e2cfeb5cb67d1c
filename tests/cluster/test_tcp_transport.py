"""Failure and reconnect semantics of the TCP shard transport.

Byte-identical happy paths are pinned by the cross-mode differential harness
(``test_mode_equivalence.py`` runs every scenario under ``transport="tcp"``);
these tests pin the distributed-systems edges the socket path adds on top of
the pipe pool's contracts:

* the length-prefixed frame codec fails **loudly** on a corrupted header —
  both connection ends raise ``SnapshotError`` and refuse to resynchronize,
  so a desynced byte stream can never feed a wrong mirror;
* a worker killed mid-trip poisons the pool exactly like a dead pipe worker
  (``ShardWorkerError`` with the transport failure chained, every later call
  failing loudly);
* a worker that *reconnects* between trips is re-synced — definitions
  re-shipped at their current ``definition_order`` version, mirror rebuilt
  from position 0 — and the run's triggerings and counters come out
  byte-identical to an uninterrupted run (memo state is decision-invariant
  by design, so a fresh memo changes no outcome);
* externally-started workers (the ``chimera-events worker`` CLI entrypoint,
  ``$CHIMERA_TCP_SPAWN=0`` deployment story) handshake into the same pool,
  and a bad token is rejected before any state ships.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.cluster.net import SocketFrameConnection, TcpTransport, run_worker
from repro.cluster.transport import WorkerConfig
from repro.errors import ShardWorkerError, SnapshotError

from tests.cluster.test_process_pool import build_support, feed_block


# ---------------------------------------------------------------------------
# Frame codec: loud corruption, both ends
# ---------------------------------------------------------------------------


def test_socket_frame_connection_round_trip():
    left_sock, right_sock = socket.socketpair()
    left = SocketFrameConnection(left_sock)
    right = SocketFrameConnection(right_sock)
    try:
        left.send_bytes(b"hello frames")
        assert right.recv_bytes() == b"hello frames"
        right.send_bytes(b"")
        assert left.recv_bytes() == b""  # zero-length payloads survive
        payload = bytes(range(256)) * 512
        left.send_bytes(payload)
        assert right.recv_bytes() == payload
    finally:
        left.close()
        right.close()


def test_socket_frame_connection_corrupt_header_is_loud():
    left_sock, right_sock = socket.socketpair()
    right = SocketFrameConnection(right_sock)
    try:
        left_sock.sendall(b"XXXX\x01\x00\x00\x00garbage")
        with pytest.raises(SnapshotError, match="socket frame header is corrupt"):
            right.recv_bytes()
    finally:
        left_sock.close()
        right.close()


def test_socket_frame_connection_peer_close_is_eof():
    left_sock, right_sock = socket.socketpair()
    right = SocketFrameConnection(right_sock)
    try:
        left_sock.close()
        with pytest.raises(EOFError):
            right.recv_bytes()
    finally:
        right.close()


# ---------------------------------------------------------------------------
# Pool semantics over sockets: mid-trip death, reconnect re-sync, corruption
# ---------------------------------------------------------------------------


def test_every_coordinator_channel_disables_nagle():
    """Frames must not wait for the worker's delayed ACK (TCP_NODELAY set)."""
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        assert pool is not None and pool.transport == "tcp"
        for handle in pool._workers:
            sock = handle.connection.sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        support.close()


def test_killed_tcp_worker_mid_trip_poisons_pool():
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        assert pool is not None
        assert pool.transport == "tcp"
        for handle in pool._workers:
            handle.process.kill()
            handle.process.join(timeout=5.0)
        with pytest.raises(ShardWorkerError, match="gone|died") as excinfo:
            feed_block(event_base, handler, support, 2)
        # The transport-level failure rides along as the chained cause.
        assert isinstance(excinfo.value.__cause__, (EOFError, OSError))
        # Poisoned: the pool refuses further work instead of desyncing.
        with pytest.raises(ShardWorkerError, match="broken"):
            feed_block(event_base, handler, support, 3)
    finally:
        support.close()


def _run_tcp_blocks(blocks: int, interrupt_after: int | None = None) -> dict:
    """Feed ``blocks`` alpha blocks over tcp, optionally bouncing a worker."""
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        trace = []
        for stamp in range(1, blocks + 1):
            newly = feed_block(event_base, handler, support, stamp)
            trace.append(tuple(sorted(state.rule.name for state in newly)))
            if interrupt_after is not None and stamp == interrupt_after:
                pool = support.process_pool
                # Bounce the worker the rules actually home to (every
                # watcher shares alpha's shard), so the re-sync is real.
                loaded = next(
                    handle.worker_id
                    for handle in pool._workers
                    if handle.shipped_defs
                )
                pool._transport.respawn_worker(loaded)
        pool = support.process_pool
        return {
            "trace": tuple(trace),
            "counters": {
                state.rule.name: state.times_triggered for state in table.states()
            },
            "reconnects": pool.reconnects,
            "defs_shipped": pool.defs_shipped,
        }
    finally:
        support.close()


def test_reconnect_between_trips_resyncs_defs_and_mirror():
    uninterrupted = _run_tcp_blocks(6)
    assert uninterrupted["reconnects"] == 0
    bounced = _run_tcp_blocks(6, interrupt_after=3)
    assert bounced["reconnects"] == 1
    # The replacement worker starts empty: its rules re-ship at their current
    # definition_order version (and its mirror re-syncs from position 0).
    assert bounced["defs_shipped"] > uninterrupted["defs_shipped"]
    # ...and none of that changes a single outcome: triggering trace and
    # per-rule counters are byte-identical to the uninterrupted run.
    assert bounced["trace"] == uninterrupted["trace"]
    assert bounced["counters"] == uninterrupted["counters"]


def test_corrupt_frame_on_the_wire_poisons_pool_loudly():
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        # Target the worker the rules home to, so the next trip consults it.
        handle = next(h for h in pool._workers if h.shipped_defs)
        # Desync the worker's inbound byte stream through the coordinator
        # channel's socket: its next read sees a bad magic, raises
        # SnapshotError and the process dies — the coordinator must surface
        # that as a loud pool failure, never a wrong mirror.
        handle.connection.sock.sendall(b"JUNKJUNKJUNKJUNK")
        deadline = time.monotonic() + 10.0
        while handle.process.is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not handle.process.is_alive()
        with pytest.raises(ShardWorkerError, match="gone|died"):
            feed_block(event_base, handler, support, 2)
        with pytest.raises(ShardWorkerError, match="broken"):
            feed_block(event_base, handler, support, 3)
    finally:
        support.close()


# ---------------------------------------------------------------------------
# External workers: the CLI entrypoint and the no-spawn deployment mode
# ---------------------------------------------------------------------------


def _cli_worker(host: str, port: int, worker_id: int, token: str) -> None:
    cli_main(
        [
            "worker",
            "--host",
            host,
            "--port",
            str(port),
            "--worker-id",
            str(worker_id),
            "--token",
            token,
        ]
    )


def test_external_cli_workers_join_a_no_spawn_pool():
    transport = TcpTransport(spawn_workers=False, timeout=30.0)
    config = WorkerConfig("logical", False, False)
    launch_error: list[BaseException] = []

    def launch():
        try:
            transport.launch(2, config)
        except BaseException as exc:  # surfaced after join
            launch_error.append(exc)

    thread = threading.Thread(target=launch, daemon=True)
    thread.start()
    try:
        # launch() binds + publishes the rendezvous coordinates first, then
        # blocks until both workers handshake.
        deadline = time.monotonic() + 10.0
        while transport.token is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert transport.token is not None
        context = multiprocessing.get_context(transport.start_method)
        workers = [
            context.Process(
                target=_cli_worker,
                args=(transport.host, transport.port, worker_id, transport.token),
                daemon=True,
            )
            for worker_id in range(2)
        ]
        for process in workers:
            process.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "launch never saw both workers"
        assert not launch_error, launch_error
        for worker_id in range(2):
            assert transport.channel(worker_id) is not None
    finally:
        transport.shutdown()
        thread.join(timeout=5.0)


def _launch_no_spawn(transport: TcpTransport, workers: int):
    """Run ``launch()`` on a thread and wait until the token is published."""
    launch_error: list[BaseException] = []

    def launch():
        try:
            transport.launch(workers, WorkerConfig("logical", False, False))
        except BaseException as exc:  # surfaced after join
            launch_error.append(exc)

    thread = threading.Thread(target=launch, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while transport.token is None and time.monotonic() < deadline:
        time.sleep(0.02)
    return thread, launch_error


def test_worker_with_bad_token_is_rejected():
    transport = TcpTransport(spawn_workers=False, timeout=30.0)
    thread, _ = _launch_no_spawn(transport, 1)
    try:
        # The listener is bound before the token is published, so the
        # handshake can start right away.
        with pytest.raises(ShardWorkerError, match="rejected"):
            run_worker(
                transport.host,
                transport.port,
                0,
                "not-the-token",
                retry_seconds=10.0,
            )
    finally:
        transport.shutdown()
        thread.join(timeout=5.0)


def test_shutdown_ends_a_launch_waiting_for_workers_promptly():
    transport = TcpTransport(spawn_workers=False, timeout=30.0)
    thread, launch_error = _launch_no_spawn(transport, 2)
    started = time.monotonic()
    transport.shutdown()
    thread.join(timeout=5.0)
    assert not thread.is_alive(), "launch kept waiting after shutdown()"
    assert time.monotonic() - started < 2.0
    assert launch_error and isinstance(launch_error[0], ShardWorkerError)
    assert "shut down" in str(launch_error[0])
