"""Same-host doorbells: wake a spool waiter as soon as the spool changes.

A process that waits on the spool (an idle worker between claims, a driver
between result checks) binds a datagram socket in Linux's abstract socket
namespace and lists it as an empty marker file
``<queue>/bells/<kind>.<host>.<owner>``.  A process that changes the spool
*rings* every marker of the matching kind that belongs to its own host: it
sends one empty datagram, without blocking, and nobody reads the payload.

* ``claim`` bells belong to workers and are rung by
  :meth:`~repro.dist.broker.Broker.enqueue`; ``done`` bells belong to
  drivers and are rung by commits and quarantines.
* The abstract address is a short digest of the bells directory's device
  and inode plus the marker name: however deep the spool, it fits in
  ``sun_path``; two spools never share one; and a process that dies (even
  by ``kill -9``) leaves no socket file behind.
* The waiter's poll interval stays the longest wait: it is the liveness
  floor, and the only wake for waiters on other hosts, whose markers carry
  another host tag and are never rung from here.  A ring that is lost (the
  waiter's queue is full, so it is waking anyway) or refused costs at most
  one poll.
* A refused ring to a marker of this host means its waiter died without
  closing the bell: the ringer unlinks the stale marker.
* The socket is bound before the marker exists and the marker is removed
  before the socket closes, so a listed marker of a live waiter always
  answers.  A waiter must bind before its first check of the spool, so a
  change that lands between a check and the wait still rings it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import socket
import warnings
from pathlib import Path

__all__ = ["CLAIM", "DONE", "Doorbell", "ring", "drop_bells", "host_tag"]

#: Rung by enqueue; waited on by idle workers.
CLAIM = "claim"
#: Rung by commits and quarantines; waited on by collecting drivers.
DONE = "done"

@functools.cache
def host_tag() -> str:
    """Which abstract socket namespace this process shares.

    Abstract sockets are scoped to a network namespace, so the tag digests
    the host name together with this process's network namespace.
    """
    try:
        netns = os.stat("/proc/self/ns/net").st_ino
    except OSError:
        netns = 0
    return hashlib.sha1(f"{socket.gethostname()}/{netns}".encode()).hexdigest()[:12]


def _address(spool: os.stat_result, name: str) -> bytes:
    key = f"{spool.st_dev}:{spool.st_ino}/{name}".encode()
    return b"\0eblow-bell-" + hashlib.sha1(key).hexdigest().encode()


class Doorbell:
    """One waiter's bell in ``bells``: bound on creation, closed by :meth:`close`.

    ``kind`` is :data:`CLAIM` for a worker, whose ``owner`` is its worker id
    (so the broker removes the marker with the worker's registry entry), or
    :data:`DONE` for a driver.  Bind it before the first check of the spool,
    and close it in a ``finally``.

    If the socket cannot be bound (no abstract namespace on this platform,
    or a live waiter already holds the same name), the bell warns, lists no
    marker, and :meth:`wait` sleeps out its whole timeout: the waiter keeps
    its poll and loses only the early wake.
    """

    def __init__(self, bells: Path, kind: str, owner: str) -> None:
        self.marker = Path(bells) / f"{kind}.{host_tag()}.{owner}"
        self._address: bytes | None = None
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        try:
            address = _address(os.stat(bells), self.marker.name)
            self._sock.bind(address)
            self.marker.touch()
        except OSError as exc:
            # No marker name in the text, so the default filter shows one
            # warning per cause, not one per bell.
            warnings.warn(
                f"a spool doorbell could not be bound ({type(exc).__name__}: {exc}); "
                "its waiter wakes on its poll alone",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        self._address = address

    def wait(self, timeout: float) -> bool:
        """Block until rung or ``timeout`` seconds pass; True when rung.

        Every ring pending at the wake is consumed, so the next wait blocks
        until a ring that comes after this one returned.
        """
        sock = self._sock
        sock.settimeout(max(0.0, timeout))  # 0 polls without blocking
        try:
            sock.recv(1)  # a ring is one empty datagram
        except (TimeoutError, BlockingIOError):
            return False
        sock.setblocking(False)
        while True:
            try:
                sock.recv(1)
            except BlockingIOError:
                return True

    def ring(self) -> None:
        """Wake this bell's own waiter (safe from a signal handler)."""
        if self._address is None:
            return
        with socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM) as sender:
            try:
                sender.sendto(b"", socket.MSG_DONTWAIT, self._address)
            except OSError:
                pass  # closed already, or a wake is pending anyway

    def close(self) -> None:
        """Unlink the marker, then close the socket (idempotent)."""
        if self._address is not None:
            self._address = None
            _unlink(self.marker)
        self._sock.close()


def ring(bells: Path, kind: str) -> None:
    """Ring every bell of ``kind`` that this host listed in ``bells``.

    Never raises: a ring is a hint on top of the poll, and a spool change
    must not fail over one.
    """
    prefix = f"{kind}.{host_tag()}."
    try:
        names = [entry.name for entry in os.scandir(bells) if entry.name.startswith(prefix)]
        if not names:
            return
        spool = os.stat(bells)
    except OSError:
        return  # no bells directory: nobody waits on one
    with socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM) as sender:
        for name in names:
            try:
                sender.sendto(b"", socket.MSG_DONTWAIT, _address(spool, name))
            except ConnectionRefusedError:
                # Nothing is bound: the waiter died without closing its bell.
                _unlink(Path(bells) / name)
            except OSError:
                pass  # a full queue (EAGAIN) already holds a pending wake


def drop_bells(bells: Path, kind: str, owner: str) -> None:
    """Unlink the markers ``owner`` listed under ``kind``, on any host."""
    try:
        names = os.listdir(bells)
    except OSError:
        return
    for name in names:
        parts = name.split(".", 2)
        if len(parts) == 3 and parts[0] == kind and parts[2] == owner:
            _unlink(Path(bells) / name)


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass  # gone already, or another process's to remove
