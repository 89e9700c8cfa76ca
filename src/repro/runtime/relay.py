"""Worker-to-parent transport of plan events: one Unix stream per worker.

:class:`EventRelay` listens on a Unix socket inside a private ``0700``
directory.  Its :attr:`~EventRelay.queue` is a :class:`RelayQueue`, a small
picklable handle that :class:`~repro.runtime.pool.PlannerPool` ships to its
workers.  ``put(item)`` pickles the item into one length-prefixed frame and
writes it to the calling process's own connection; it never waits for a
reply.  A daemon thread in the parent multiplexes every connection and
hands each decoded :class:`~repro.events.PlanEvent` to ``on_event``.

What the transport guarantees:

* **Per-worker order.**  A process opens one connection per relay on its
  first ``put`` and keeps it for the relay's life; the drain thread serves
  connections in the order it accepted them.
* **Nothing finished is lost at close.**  :meth:`EventRelay.close` makes the
  drain accept every pending connection and read every connection dry
  before it stops, so each frame a worker finished writing before
  ``close()`` reaches the consumer.
* **A closed or dead relay makes ``put`` raise** (the socket path is gone,
  or the connection is broken), so a worker's emitter drops its sink and
  the job still completes.  A write cut short — by a dead relay or by a
  signal handler raising mid-frame — retires the connection, so a stream
  never continues after a torn frame.
* **Frames never interleave.**  Each connection has a write lock, so a
  worker's heartbeat thread and its planner thread write whole frames.
* **Forks start clean.**  A forked child closes every relay connection and
  relay socket it inherited: it opens its own connection on first use, and
  no copy of a relay's end outlives the relay in a process that never
  drains it (a worker would otherwise write into a closed relay unnoticed).
* **Only the relay's own workers get in.**  Besides the ``0700`` directory,
  every connection must open with the relay's random token, which travels
  inside the pickled handle; frames are unpickled only after it matched.
"""

from __future__ import annotations

import hmac
import os
import pickle
import selectors
import socket
import struct
import tempfile
import threading
from typing import Callable

from repro.events import PlanEvent, guarded_sink

__all__ = ["EventRelay", "RelayQueue"]

_HEADER = struct.Struct(">I")
_TOKEN_BYTES = 16
_RECV_BYTES = 1 << 18

# Client side, per process: relay token -> (socket, write lock).  This is
# process state on purpose: a pool worker unpickles a fresh handle for
# every task, yet must keep one connection per relay for per-worker order.
_CONNECTIONS: dict[bytes, tuple[socket.socket, threading.Lock]] = {}
_CONNECTIONS_LOCK = threading.Lock()
# Server side, per process: the listener, wake pair and accepted sockets of
# every live relay, so that a forked child can close the copies it inherits.
# The drain thread accepts under the lock and a fork waits for it, so no
# accepted socket can reach a child unregistered.
_SERVER_SOCKETS: set[socket.socket] = set()
_SERVER_LOCK = threading.Lock()


def _after_fork_in_child() -> None:
    global _CONNECTIONS_LOCK, _SERVER_LOCK
    _CONNECTIONS_LOCK = threading.Lock()
    _SERVER_LOCK = threading.Lock()
    inherited = [sock for sock, _ in _CONNECTIONS.values()] + list(_SERVER_SOCKETS)
    _CONNECTIONS.clear()
    _SERVER_SOCKETS.clear()
    for sock in inherited:
        sock.close()


os.register_at_fork(
    before=lambda: _SERVER_LOCK.acquire(),
    after_in_parent=lambda: _SERVER_LOCK.release(),
    after_in_child=_after_fork_in_child,
)


def _retire(token: bytes, sock: socket.socket) -> None:
    with _CONNECTIONS_LOCK:
        if _CONNECTIONS.get(token, (None,))[0] is sock:
            del _CONNECTIONS[token]
    sock.close()


def _prune_closed() -> None:
    """Drop cached connections whose relay has closed (caller holds the lock).

    A relay never writes to its workers, so a readable connection is one
    whose far end is gone.  Run on every new connection, this keeps a warm
    worker serving relay after relay at a flat descriptor count.
    """
    for token, (sock, _) in list(_CONNECTIONS.items()):
        try:
            closed = sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
        except BlockingIOError:
            closed = False  # open and silent: the relay is alive
        except OSError:
            closed = True
        if closed:
            del _CONNECTIONS[token]
            sock.close()


class RelayQueue:
    """The picklable write end of an :class:`EventRelay` (its ``queue``)."""

    def __init__(self, path: str, token: bytes) -> None:
        self.path = path
        self.token = token

    def put(self, item) -> None:
        """Send ``item`` to the relay as one frame; raises if the relay is gone."""
        payload = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
        sock, lock = _CONNECTIONS.get(self.token) or self._connect()
        with lock:
            try:
                sock.sendall(_HEADER.pack(len(payload)) + payload)
            except BaseException:
                # The stream may now end inside a frame: never write to it
                # again (the drain discards the torn tail at EOF).
                _retire(self.token, sock)
                raise

    def _connect(self) -> tuple[socket.socket, threading.Lock]:
        with _CONNECTIONS_LOCK:
            entry = _CONNECTIONS.get(self.token)
            if entry is None:
                _prune_closed()
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.connect(self.path)
                    sock.sendall(self.token)
                except OSError:
                    sock.close()
                    raise
                entry = _CONNECTIONS[self.token] = (sock, threading.Lock())
            return entry


class _Peer:
    __slots__ = ("buffer", "authenticated")

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.authenticated = False


class EventRelay:
    """Parent-side fan-in of worker :class:`PlanEvent` streams.

    ``queue`` is what :meth:`PlannerPool.submit
    <repro.runtime.pool.PlannerPool.submit>` / :meth:`~repro.runtime.pool.PlannerPool.imap`
    take as ``event_queue``.  ``on_event`` runs on the relay's drain thread,
    in per-worker order; a sink that raises is dropped for the rest of the
    relay's life, announced once through a :class:`RuntimeWarning` (see
    :func:`repro.events.guarded_sink`).  A consumer slower than its workers
    holds them back: a worker's ``put`` blocks once its connection's socket
    buffer is full.  Use as a context manager; :meth:`close` removes the
    socket and its directory.
    """

    def __init__(self, on_event: Callable[[PlanEvent], None]) -> None:
        self._on_event = guarded_sink(on_event)
        self._pid = os.getpid()
        self._closed = False
        self._peers: dict[socket.socket, _Peer] = {}  # in accept order
        self._dir = tempfile.mkdtemp(prefix="eblow-relay-")  # mode 0700
        self._path = os.path.join(self._dir, "relay.sock")
        with _SERVER_LOCK:
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._wake_r, self._wake_w = socket.socketpair()
            _SERVER_SOCKETS.update((self._listener, self._wake_r, self._wake_w))
        try:
            self._listener.bind(self._path)
            self._listener.listen(socket.SOMAXCONN)
        except OSError:
            self._release()
            self._close_wake()
            raise
        self._listener.setblocking(False)
        self.queue = RelayQueue(self._path, os.urandom(_TOKEN_BYTES))
        self._thread = threading.Thread(
            target=self._drain, name="plan-event-relay", daemon=True
        )
        self._thread.start()

    def _drain(self) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self._listener, selectors.EVENT_READ)
        selector.register(self._wake_r, selectors.EVENT_READ)
        try:
            closing = False
            while not closing:
                ready = {key.fileobj for key, _ in selector.select()}
                # On close, sweep everything: connections still in the
                # listen backlog and every byte already buffered.
                closing = self._wake_r in ready
                if closing or self._listener in ready:
                    for sock in self._accept():
                        selector.register(sock, selectors.EVENT_READ)
                for sock in list(self._peers):
                    if (closing or sock in ready) and not self._read(sock, closing):
                        selector.unregister(sock)
                        self._forget(sock)
        finally:
            selector.close()
            self._release()

    def _accept(self) -> list[socket.socket]:
        accepted = []
        with _SERVER_LOCK:
            while True:
                try:
                    sock, _ = self._listener.accept()
                except BlockingIOError:
                    return accepted
                sock.setblocking(False)
                _SERVER_SOCKETS.add(sock)
                self._peers[sock] = _Peer()
                accepted.append(sock)

    def _read(self, sock: socket.socket, until_dry: bool) -> bool:
        """Deliver what ``sock`` has buffered; False once the peer is done."""
        peer = self._peers[sock]
        while True:
            try:
                chunk = sock.recv(_RECV_BYTES)
            except BlockingIOError:
                return True
            except ConnectionError:
                return False
            if not chunk:
                return False  # EOF: a torn last frame is discarded
            peer.buffer += chunk
            if not self._deliver(peer):
                return False
            if not until_dry:
                return True

    def _deliver(self, peer: _Peer) -> bool:
        """Hand every complete frame to the sink; False on a wrong token."""
        buffer = peer.buffer
        if not peer.authenticated:
            if len(buffer) < _TOKEN_BYTES:
                return True
            if not hmac.compare_digest(bytes(buffer[:_TOKEN_BYTES]), self.queue.token):
                return False
            del buffer[:_TOKEN_BYTES]
            peer.authenticated = True
        start = 0
        while len(buffer) - start >= _HEADER.size:
            (size,) = _HEADER.unpack_from(buffer, start)
            end = start + _HEADER.size + size
            if len(buffer) < end:
                break
            item = pickle.loads(buffer[start + _HEADER.size : end])
            start = end
            self._on_event(PlanEvent.from_dict(item))
        del buffer[:start]
        return True

    def _forget(self, sock: socket.socket) -> None:
        with _SERVER_LOCK:
            _SERVER_SOCKETS.discard(sock)
            del self._peers[sock]
        sock.close()

    def _release(self) -> None:
        """Close the listener and every connection; remove the socket path."""
        with _SERVER_LOCK:
            for sock in [self._listener, *self._peers]:
                _SERVER_SOCKETS.discard(sock)
                sock.close()
            self._peers.clear()
        if os.path.exists(self._path):
            os.unlink(self._path)
        os.rmdir(self._dir)

    def _close_wake(self) -> None:
        with _SERVER_LOCK:
            for sock in (self._wake_r, self._wake_w):
                _SERVER_SOCKETS.discard(sock)
                sock.close()

    def close(self) -> None:
        """Deliver everything written so far, then remove the relay (idempotent).

        The join is unbounded, so every event a worker finished writing
        before ``close()`` reaches the consumer even through a slow sink (a
        sink that raised is already skipped, so the drain always makes
        progress).  A no-op in a forked child, which owns none of it.
        """
        if self._closed or os.getpid() != self._pid:
            return
        self._closed = True
        self._wake_w.send(b"\0")
        self._thread.join()
        self._close_wake()

    def __enter__(self) -> "EventRelay":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
