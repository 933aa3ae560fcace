"""Transport layers for one-sided remote memory access (RMA).

The real system rides MPI-3 one-sided get/put, supported in hardware on the
Aries fabric.  Here a transport is anything that can read/write a byte range
of a remote rank's window.  There is one window store,
:class:`LocalTransport` (in-process memory, one lock per rank), and one
wire face on it: :class:`SocketTransport` serves a ``LocalTransport``'s
windows over TCP, so *process* node-workers do true one-sided access to the
partitioned catalog without pickling it through queues.
:class:`RecordingTransport` wraps either and accumulates the operation
counts / byte volumes / latency model that the cluster simulator charges
for "other" time.

Transports are resolvable by registry name (:data:`TRANSPORT_NAMES`,
:func:`make_transport`) — the names ``DriverConfig.pgas_transport`` /
``REPRO_PGAS_TRANSPORT`` accept.
"""

from __future__ import annotations

import itertools
import os
import socket
import struct
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LocalTransport",
    "SocketTransport",
    "RecordingTransport",
    "RMAStats",
    "WindowRangeError",
    "TRANSPORT_NAMES",
    "make_transport",
]


class WindowRangeError(IndexError):
    """A one-sided operation addressed elements outside a rank's window."""

    def __init__(self, op: str, rank: int, start: int, count: int,
                 size: int):
        super().__init__(
            "%s(rank=%d, start=%d, count=%d) is outside the rank's window "
            "of %d elements" % (op, rank, start, count, size))
        self.op, self.rank = op, rank
        self.start, self.count, self.size = start, count, size


class LocalTransport:
    """In-process transport, and the one window store: every rank's window
    is a NumPy array behind its own lock, so puts never tear concurrent
    gets and accumulate is an atomic read-modify-write."""

    def __init__(self):
        self._windows: dict[int, np.ndarray] = {}
        self._locks: dict[int, threading.Lock] = {}

    def allocate(self, rank: int, n_elements: int) -> None:
        self._windows[rank] = np.zeros(n_elements)
        self._locks[rank] = threading.Lock()

    def _range(self, op: str, rank: int, start: int,
               count: int) -> np.ndarray:
        """View of ``count`` elements at ``start`` of ``rank``'s window."""
        window = self._windows[rank]
        if not 0 <= start <= start + count <= len(window):
            raise WindowRangeError(op, rank, start, count, len(window))
        return window[start:start + count]

    def get(self, rank: int, start: int, count: int) -> np.ndarray:
        with self._locks[rank]:
            return self._range("get", rank, start, count).copy()

    def put(self, rank: int, start: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        with self._locks[rank]:
            self._range("put", rank, start, len(values))[:] = values

    def accumulate(self, rank: int, start: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        with self._locks[rank]:
            self._range("accumulate", rank, start, len(values))[:] += values


@dataclass
class RMAStats:
    """Operation counts and modeled cost of one-sided traffic.

    The latency/bandwidth constants default to Aries-class numbers (~1.5 us
    one-sided latency, ~10 GB/s effective per-rank bandwidth); the simulator
    reads ``modeled_seconds`` into its "other" runtime component.
    """

    n_get: int = 0
    n_put: int = 0
    n_accumulate: int = 0
    bytes_get: int = 0
    bytes_put: int = 0
    remote_fraction_ops: int = 0
    latency_s: float = 1.5e-6
    bandwidth_Bps: float = 1.0e10

    @property
    def n_ops(self) -> int:
        return self.n_get + self.n_put + self.n_accumulate

    @property
    def total_bytes(self) -> int:
        return self.bytes_get + self.bytes_put

    @property
    def modeled_seconds(self) -> float:
        return self.n_ops * self.latency_s + self.total_bytes / self.bandwidth_Bps


class RecordingTransport:
    """Wraps a transport, recording RMA statistics (thread-safe)."""

    def __init__(self, inner, local_rank: int | None = None):
        self.inner = inner
        self.stats = RMAStats()
        self.local_rank = local_rank
        self._lock = threading.Lock()

    def allocate(self, rank: int, n_elements: int) -> None:
        self.inner.allocate(rank, n_elements)

    def get(self, rank: int, start: int, count: int) -> np.ndarray:
        with self._lock:
            self.stats.n_get += 1
            self.stats.bytes_get += count * 8
            if self.local_rank is not None and rank != self.local_rank:
                self.stats.remote_fraction_ops += 1
        return self.inner.get(rank, start, count)

    def put(self, rank: int, start: int, values) -> None:
        values = np.asarray(values, dtype=float)
        with self._lock:
            self.stats.n_put += 1
            self.stats.bytes_put += values.size * 8
            if self.local_rank is not None and rank != self.local_rank:
                self.stats.remote_fraction_ops += 1
        self.inner.put(rank, start, values)

    def accumulate(self, rank: int, start: int, values) -> None:
        values = np.asarray(values, dtype=float)
        with self._lock:
            self.stats.n_accumulate += 1
            self.stats.bytes_put += values.size * 8
        self.inner.accumulate(rank, start, values)


# ---------------------------------------------------------------------------
# Socket transport: one-sided RMA over TCP


#: Request frame header: op, rank, start, count, seq — followed by
#: ``count * 8`` float64 payload bytes for put/accumulate, or ``count``
#: raw token bytes for hello.
_REQ = struct.Struct("!BIQQQ")
#: Reply frame header: status (0 ok / 1 error), seq, count — followed by
#: ``count * 8`` float64 bytes (get) or ``count`` UTF-8 bytes (error).
_REP = struct.Struct("!BQQ")

_OP_GET, _OP_PUT, _OP_ACCUMULATE, _OP_HELLO = 1, 2, 3, 4
_OP_NAMES = {_OP_GET: "get", _OP_PUT: "put", _OP_ACCUMULATE: "accumulate"}

#: Distinguishes client identities minted by this process (combined with
#: the pid to form the retransmit-dedup token).
_client_counter = itertools.count()


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or ``None`` on a clean peer close."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


class _SocketServer:
    """The wire face of a :class:`SocketTransport`: serves framed
    get/put/accumulate requests against the owner's window store (a
    :class:`LocalTransport`, whose per-rank locks are the serialization
    point) on background threads named ``repro-pgas-*``.

    **Exactly-once accumulate under retransmission.**  Clients number their
    requests (per-client monotonic ``seq``) and identify themselves with a
    token (``hello``).  The server remembers, per token, the last applied
    sequence number and its reply; a retransmitted request (same token,
    ``seq`` not newer) is answered from that memory *without re-applying* —
    so a client may retransmit after a lost message or a reconnect and a
    non-idempotent accumulate is still applied exactly once.
    """

    def __init__(self, host: str, store: LocalTransport):
        self._store = store
        #: token -> (last applied seq, reply bytes sent for it)
        self._replay: dict[bytes, tuple[int, bytes]] = {}
        self._replay_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._closed = threading.Event()
        self._listener = socket.create_server((host, 0))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="repro-pgas-accept-%d" % self.address[1])
        self._accept_thread.start()

    # -- the wire ----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed: shutting down
                return
            with self._conns_lock:
                if self._closed.is_set():
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    return
                self._conns.add(conn)
            t = threading.Thread(
                target=self._serve, args=(conn,), daemon=True,
                name="repro-pgas-conn-%d" % self.address[1])
            t.start()
            self._threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        token = b""
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                header = _recv_exact(conn, _REQ.size)
                if header is None:
                    return
                op, rank, start, count, seq = _REQ.unpack(header)
                payload = b""
                if op in (_OP_PUT, _OP_ACCUMULATE):
                    payload = _recv_exact(conn, count * 8)
                elif op == _OP_HELLO:
                    payload = _recv_exact(conn, count)
                if payload is None:
                    return
                if op == _OP_HELLO:
                    token = payload
                    conn.sendall(_REP.pack(0, seq, 0))
                    continue
                if token:
                    with self._replay_lock:
                        applied = self._replay.get(token)
                    if applied is not None and seq <= applied[0]:
                        # Retransmit of an already-applied request: answer
                        # from memory, never re-apply.  A stale older seq
                        # gets a bare ack the client discards by number.
                        conn.sendall(applied[1] if seq == applied[0]
                                     else _REP.pack(0, seq, 0))
                        continue
                reply = self._apply(op, rank, start, count, payload, seq)
                if token:
                    with self._replay_lock:
                        self._replay[token] = (seq, reply)
                conn.sendall(reply)
        except OSError:  # connection dropped; client reconnects or gives up
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _apply(self, op: int, rank: int, start: int, count: int,
               payload: bytes, seq: int) -> bytes:
        try:
            if op == _OP_GET:
                data = self._store.get(rank, start, count)
                return _REP.pack(0, seq, len(data)) + data.tobytes()
            values = np.frombuffer(payload, dtype=np.float64)
            if op == _OP_PUT:
                self._store.put(rank, start, values)
            elif op == _OP_ACCUMULATE:
                self._store.accumulate(rank, start, values)
            else:
                raise ValueError("unknown socket RMA op %d" % op)
            return _REP.pack(0, seq, 0)
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            msg = ("%s: %s" % (type(exc).__name__, exc)).encode(
                "utf-8", "replace")
            return _REP.pack(1, seq, len(msg)) + msg

    def close(self) -> None:
        """Stop serving: close the listener and every live connection, then
        join the handler threads.  Idempotent."""
        self._closed.set()
        try:
            # A bare close() does not reliably wake a thread blocked in
            # accept() on Linux; shutdown() does (accept raises EINVAL).
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._accept_thread.join(timeout=5.0)
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []


class SocketTransport:
    """TCP transport: the windows live in the owning process — a
    :class:`LocalTransport` the owner reads and writes directly — and a
    background server gives every process that unpickles the transport
    one-sided get/put/accumulate against them through framed binary
    requests.

    Needs only a route to the owner, not a shared kernel; the default
    ``host`` (the only one :func:`make_transport` and so the driver use) is
    loopback, and passing another is how node-workers on other machines
    would reach the owner.  Pickling carries the server address and the
    window sizes; the receiving process connects lazily on first access
    (the moral of exchanging RMA window handles at ``MPI_Win_create``
    time).

    Semantics are strictly stronger than hardware RMA: every operation is
    applied under the store's per-rank lock, so gets never see torn puts
    and accumulate is an atomic read-modify-write.  Lost or duplicated
    messages are survived by the protocol: requests carry a per-client
    sequence number, the client retransmits (reconnecting if need be) when
    a reply does not arrive in ``timeout`` seconds, and the server
    deduplicates retransmissions so even accumulate applies exactly once
    (see :class:`_SocketServer`).

    The owner must call :meth:`unlink` when done (the server threads and
    the port outlive abandoned transports otherwise); non-owners only ever
    :meth:`close`.
    """

    def __init__(self, host: str = "127.0.0.1", timeout: float = 30.0,
                 max_retries: int = 3):
        self._segments: dict[int, int] = {}  # rank -> element count
        self._timeout = float(timeout)
        self._max_retries = int(max_retries)
        #: The windows (owner) / ``None`` (a pickled client copy).
        self._store: LocalTransport | None = LocalTransport()
        self._server: _SocketServer | None = _SocketServer(host, self._store)
        self.address = self._server.address
        self._init_client_state()

    def _init_client_state(self) -> None:
        self._sock: socket.socket | None = None
        self._seq = 0
        self._token = b""
        self._lock = threading.Lock()
        #: Test-only fault injection: a callable given each outgoing
        #: request frame, returning ``"drop"`` (swallow it — the reply
        #: timeout and retransmission recover) or ``"duplicate"`` (send it
        #: twice — the server's dedup applies it once) or ``None``.
        self.fault_hook = None

    # -- the transport interface ------------------------------------------

    def allocate(self, rank: int, n_elements: int) -> None:
        if self._store is None:
            raise RuntimeError("only the owning process allocates windows")
        if rank in self._segments:
            raise ValueError("rank %d already allocated" % rank)
        self._store.allocate(rank, n_elements)
        self._segments[rank] = n_elements

    def get(self, rank: int, start: int, count: int) -> np.ndarray:
        if self._store is not None:
            return self._store.get(rank, start, count)
        body = self._request(_OP_GET, rank, start, count)
        return np.frombuffer(body, dtype=np.float64).copy()

    def put(self, rank: int, start: int, values: np.ndarray) -> None:
        if self._store is not None:
            self._store.put(rank, start, values)
            return
        values = np.asarray(values, dtype=float)
        self._request(_OP_PUT, rank, start, len(values), values.tobytes())

    def accumulate(self, rank: int, start: int, values: np.ndarray) -> None:
        if self._store is not None:
            self._store.accumulate(rank, start, values)
            return
        values = np.asarray(values, dtype=float)
        self._request(_OP_ACCUMULATE, rank, start, len(values),
                      values.tobytes())

    # -- client plumbing ---------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address,
                                        timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self._timeout)
        if not self._token:
            self._token = ("%d.%d" % (
                os.getpid(), next(_client_counter))).encode()
        try:
            sock.sendall(_REQ.pack(_OP_HELLO, 0, 0, len(self._token), 0)
                         + self._token)
            header = _recv_exact(sock, _REP.size)
            if header is None:
                raise OSError("socket transport: server closed during hello")
        except BaseException:
            sock.close()
            raise
        return sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def _send(self, frame: bytes) -> None:
        action = self.fault_hook(frame) if self.fault_hook else None
        if action == "drop":
            return  # simulated message loss; the reply timeout recovers
        self._sock.sendall(frame)
        if action == "duplicate":
            self._sock.sendall(frame)  # the server's dedup applies it once

    def _request(self, op: int, rank: int, start: int, count: int,
                 payload: bytes = b"") -> bytes:
        with self._lock:
            self._seq += 1
            seq = self._seq
            frame = _REQ.pack(op, rank, start, count, seq) + payload
            last_error: Exception | None = None
            for _attempt in range(self._max_retries + 1):
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    self._send(frame)
                    while True:
                        header = _recv_exact(self._sock, _REP.size)
                        if header is None:
                            raise OSError(
                                "socket transport: server closed connection")
                        status, rseq, rcount = _REP.unpack(header)
                        body = b""
                        if rcount:
                            n = rcount * 8 if status == 0 else rcount
                            body = _recv_exact(self._sock, n)
                            if body is None:
                                raise OSError("socket transport: truncated "
                                              "reply")
                        if rseq < seq:
                            continue  # stale reply to a retransmitted frame
                        if status != 0:
                            raise RuntimeError(
                                "socket RMA %s(rank=%d, start=%d) failed "
                                "on the server: %s"
                                % (_OP_NAMES.get(op, op), rank, start,
                                   body.decode("utf-8", "replace")))
                        return body
                except OSError as exc:
                    last_error = exc
                    self._drop_connection()
            raise RuntimeError(
                "socket transport: no reply for %s(rank=%d) from %s:%d "
                "after %d attempts (last error: %s)"
                % (_OP_NAMES.get(op, op), rank, self.address[0],
                   self.address[1], self._max_retries + 1, last_error))

    # -- lifecycle ---------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "address": tuple(self.address),
            "segments": dict(self._segments),
            "timeout": self._timeout,
            "max_retries": self._max_retries,
        }

    def __setstate__(self, state: dict) -> None:
        self.address = tuple(state["address"])
        self._segments = {int(k): int(v)
                          for k, v in state["segments"].items()}
        self._timeout = float(state.get("timeout", 30.0))
        self._max_retries = int(state.get("max_retries", 3))
        self._store = None
        self._server = None
        self._init_client_state()

    def close(self) -> None:
        """Drop this process's connection (the server survives).
        Idempotent; a later access reconnects transparently."""
        self._drop_connection()

    def unlink(self) -> None:
        """Shut the server down (owner only; safe to call more than once)."""
        if self._server is None:
            raise RuntimeError("only the owning process unlinks windows")
        self.close()
        self._server.close()


# ---------------------------------------------------------------------------
# The transport registry


#: Registry names ``DriverConfig.pgas_transport`` / ``REPRO_PGAS_TRANSPORT``
#: accept: in-process memory, and windows served over TCP.
TRANSPORT_NAMES = ("local", "socket")


def make_transport(name: str):
    """Instantiate a transport by registry name; an unknown name raises
    ``ValueError`` listing the registry."""
    if name == "local":
        return LocalTransport()
    if name == "socket":
        return SocketTransport()
    raise ValueError(
        "unknown pgas transport %r; known transports: %s"
        % (name, ", ".join(TRANSPORT_NAMES)))
