"""Tests for the PGAS global array (including edge geometries and
cross-worker access over the socket transport) and the Dtree / central
schedulers."""

import multiprocessing
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pgas import (
    GlobalArray,
    LocalTransport,
    RecordingTransport,
    SocketTransport,
)
from repro.sched import CentralQueue, Dtree, DtreeConfig


class TestGlobalArray:
    def test_put_get_roundtrip(self):
        ga = GlobalArray(n_rows=10, row_width=4, n_ranks=3)
        row = np.array([1.0, 2.0, 3.0, 4.0])
        ga.put_row(7, row)
        np.testing.assert_allclose(ga.get_row(7), row)

    def test_partition_covers_all_rows(self):
        ga = GlobalArray(n_rows=11, row_width=2, n_ranks=4)
        owned = []
        for rank in range(4):
            lo, hi = ga.owned_range(rank)
            owned.extend(range(lo, hi))
        assert sorted(owned) == list(range(11))

    def test_owner_consistent_with_range(self):
        ga = GlobalArray(n_rows=23, row_width=3, n_ranks=5)
        for row in range(23):
            rank = ga.owner(row)
            lo, hi = ga.owned_range(rank)
            assert lo <= row < hi

    def test_out_of_range(self):
        ga = GlobalArray(n_rows=5, row_width=2, n_ranks=2)
        with pytest.raises(IndexError):
            ga.get_row(5)
        with pytest.raises(ValueError):
            ga.put_row(0, np.zeros(3))

    def test_dense_gather(self):
        ga = GlobalArray(n_rows=6, row_width=2, n_ranks=2)
        for i in range(6):
            ga.put_row(i, np.array([i, i * 10.0]))
        dense = ga.to_dense()
        np.testing.assert_allclose(dense[:, 0], np.arange(6))

    def test_recording_transport_counts(self):
        rec = RecordingTransport(LocalTransport(), local_rank=0)
        ga = GlobalArray(n_rows=8, row_width=44, n_ranks=4, transport=rec)
        ga.put_row(0, np.zeros(44))   # local
        ga.get_row(7)                 # remote
        assert rec.stats.n_put == 1
        assert rec.stats.n_get == 1
        assert rec.stats.bytes_put == 44 * 8
        assert rec.stats.remote_fraction_ops == 1
        assert rec.stats.modeled_seconds > 0

    def test_concurrent_put_get(self):
        ga = GlobalArray(n_rows=40, row_width=4, n_ranks=4)
        errors = []

        def worker(base):
            try:
                for i in range(40):
                    ga.put_row(i, np.full(4, float(base)))
                    ga.get_row((i * 7) % 40)
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every row holds one of the written values (no torn rows).
        for i in range(40):
            row = ga.get_row(i)
            assert row.min() == row.max()


class TestGlobalArrayEdgeGeometries:
    """Block-partition arithmetic at the boundaries the driver produces:
    more ranks than sources, an empty catalog, and a short last block."""

    def test_fewer_rows_than_ranks(self):
        ga = GlobalArray(n_rows=3, row_width=2, n_ranks=8)
        owned = []
        for rank in range(8):
            lo, hi = ga.owned_range(rank)
            assert hi >= lo  # surplus ranks own empty (possibly off-end) ranges
            owned.extend(range(lo, hi))
        assert sorted(owned) == [0, 1, 2]
        for row in range(3):
            lo, hi = ga.owned_range(ga.owner(row))
            assert lo <= row < hi
        ga.put_row(2, np.array([5.0, 6.0]))
        np.testing.assert_allclose(ga.get_row(2), [5.0, 6.0])

    def test_zero_rows(self):
        ga = GlobalArray(n_rows=0, row_width=4, n_ranks=3)
        assert ga.to_dense().shape == (0, 4)
        for rank in range(3):
            lo, hi = ga.owned_range(rank)
            assert lo == hi
        with pytest.raises(IndexError):
            ga.get_row(0)

    def test_last_rank_short_block(self):
        # 10 rows over 4 ranks: block 3, last rank owns just one row.
        ga = GlobalArray(n_rows=10, row_width=2, n_ranks=4)
        assert ga.owned_range(3) == (9, 10)
        assert ga.owner(9) == 3
        ga.put_row(9, np.array([1.0, 2.0]))
        np.testing.assert_allclose(ga.get_row(9), [1.0, 2.0])
        # All rows remain addressable and disjointly owned.
        owned = [r for k in range(4) for r in range(*ga.owned_range(k))]
        assert owned == list(range(10))

    def test_single_rank(self):
        ga = GlobalArray(n_rows=5, row_width=3, n_ranks=1)
        for i in range(5):
            ga.put_row(i, np.full(3, float(i)))
        np.testing.assert_allclose(ga.to_dense()[:, 0], np.arange(5))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            GlobalArray(n_rows=-1, row_width=2, n_ranks=1)
        with pytest.raises(ValueError):
            GlobalArray(n_rows=2, row_width=0, n_ranks=1)
        with pytest.raises(ValueError):
            GlobalArray(n_rows=2, row_width=2, n_ranks=0)


def _child_put(ga, rows, value):
    """Child-process body: one-sided puts into the parent's windows."""
    for r in rows:
        ga.put_row(r, np.full(ga.row_width, value))
    ga.transport.close()


class TestSocketWindowsAcrossWorkers:
    """What process node-workers rely on, over the transport they run on:
    pickled copies of the array reach the owner's windows one-sidedly
    (single-connection wire behaviour is in ``test_socket_transport.py``)."""

    @pytest.fixture
    def owner(self):
        t = SocketTransport()
        yield t
        t.unlink()

    @staticmethod
    def _run_attached(ga, bodies):
        """Run each body on its own thread against its own pickled copy of
        ``ga`` (one connection each); returns the exceptions raised."""
        errors = []

        def guarded(body):
            view = pickle.loads(pickle.dumps(ga))
            try:
                body(view)
            except Exception as e:  # pragma: no cover
                errors.append(e)
            finally:
                view.transport.close()

        threads = [threading.Thread(target=guarded, args=(body,))
                   for body in bodies]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        return errors

    def test_cross_process_one_sided_put(self, owner):
        # A real child process (spawn: nothing shared but the pickled
        # server address) writes rows the parent then reads.
        ga = GlobalArray(6, 3, 2, transport=owner)
        ctx = multiprocessing.get_context("spawn")
        p = ctx.Process(target=_child_put, args=(ga, [1, 5], 42.0))
        p.start()
        p.join(timeout=60)
        assert p.exitcode == 0
        np.testing.assert_allclose(ga.get_row(1), 42.0)
        np.testing.assert_allclose(ga.get_row(5), 42.0)
        np.testing.assert_allclose(ga.get_row(0), 0.0)

    def test_concurrent_disjoint_put_get(self, owner):
        # The driver's access pattern: many workers, each on its own
        # connection, disjoint row sets, concurrent gets of anything.  No
        # torn rows, all writes land.
        ga = GlobalArray(40, 4, 4, transport=owner)

        def worker(base):
            def body(view):
                for i in range(base, 40, 4):
                    view.put_row(i, np.full(4, float(i)))
                    view.get_row((i * 7) % 40)
            return body

        assert not self._run_attached(ga, [worker(k) for k in range(4)])
        for i in range(40):
            np.testing.assert_allclose(ga.get_row(i), float(i))

    def test_concurrent_overlapping_rows_never_torn(self, owner):
        # What halo_refresh leans on: even *overlapping* concurrent put/get
        # of whole rows never observes a torn row — every read shows
        # exactly one writer's value across the full width.
        ga = GlobalArray(4, 8, 2, transport=owner)
        torn = []

        def writer(value):
            def body(view):
                for _ in range(50):
                    view.put_row(1, np.full(8, value))
            return body

        def reader(view):
            for _ in range(100):
                row = view.get_row(1)
                if row.min() != row.max():
                    torn.append(row)

        assert not self._run_attached(
            ga, [writer(1.0), writer(2.0), reader, reader])
        assert not torn

    def test_recording_wrapper_counts_socket_traffic(self, owner):
        ga = GlobalArray(4, 2, 2, transport=owner)
        client = pickle.loads(pickle.dumps(owner))
        rec = RecordingTransport(client, local_rank=0)
        try:
            view = GlobalArray(4, 2, 2, transport=rec, allocate=False)
            view.put_row(3, np.array([1.0, 2.0]))  # remote rank
            view.get_row(0)                        # local rank
            assert rec.stats.n_put == 1 and rec.stats.n_get == 1
            assert rec.stats.remote_fraction_ops == 1
            np.testing.assert_allclose(ga.get_row(3), [1.0, 2.0])
        finally:
            client.close()


class TestDtreePeek:
    def test_peek_does_not_consume(self):
        sched = Dtree(n_workers=4, n_tasks=100)
        ahead = sched.peek(0, 5)
        assert len(ahead) == 5
        delivered = []
        active = list(range(4))
        while active:
            still = []
            for w in active:
                batch = sched.request(w, max_batch=4)
                delivered.extend(batch)
                if batch:
                    still.append(w)
            active = still
        assert sorted(delivered) == list(range(100))

    def test_peek_returns_upcoming_local_work_first(self):
        sched = Dtree(n_workers=4, n_tasks=100)
        # The static allotment pre-places a contiguous slice per leaf; the
        # peek must surface exactly that slice first.
        ahead = sched.peek(1, 3)
        batch = sched.request(1, max_batch=3)
        assert ahead == batch

    def test_peek_walks_to_ancestors_when_leaf_empty(self):
        sched = Dtree(n_workers=2, n_tasks=10,
                      config=DtreeConfig(initial_fraction=0.0))
        ahead = sched.peek(0, 4)
        assert len(ahead) == 4  # all work still at the root
        assert set(ahead) <= set(range(10))

    def test_peek_bounds(self):
        sched = Dtree(n_workers=2, n_tasks=3)
        assert sorted(sched.peek(0, 100)) == [0, 1, 2]
        with pytest.raises(IndexError):
            sched.peek(9, 1)

    def test_peek_empty(self):
        assert Dtree(n_workers=2, n_tasks=0).peek(0, 5) == []


class TestDtree:
    def test_all_tasks_distributed_exactly_once(self):
        sched = Dtree(n_workers=16, n_tasks=200)
        seen = []
        active = list(range(16))
        while active:
            still = []
            for w in active:
                batch = sched.request(w)
                if batch:
                    seen.extend(batch)
                    still.append(w)
            active = still
        assert sorted(seen) == list(range(200))

    def test_tree_height_logarithmic(self):
        assert Dtree(1, 10).height == 0
        assert Dtree(8, 10).height == 1
        assert Dtree(64, 10).height == 2
        assert Dtree(65, 10).height == 3

    def test_static_allotment_served_without_hops(self):
        sched = Dtree(n_workers=4, n_tasks=100)
        sched.request(0)
        assert sched.stats["hops"] == 0  # first request hits the local pool

    def test_message_count_scales_gently(self):
        # Total hops should be far below one-per-task (batching + locality).
        sched = Dtree(n_workers=64, n_tasks=6400)
        n = 0
        active = list(range(64))
        while active:
            still = []
            for w in active:
                b = sched.request(w, max_batch=4)
                n += len(b)
                if b:
                    still.append(w)
            active = still
        assert n == 6400
        assert sched.stats["hops"] < 6400

    def test_empty_work(self):
        sched = Dtree(n_workers=4, n_tasks=0)
        assert sched.request(0) == []

    def test_invalid_worker(self):
        with pytest.raises(IndexError):
            Dtree(2, 10).request(5)

    def test_threaded_distribution_no_loss(self):
        sched = Dtree(n_workers=8, n_tasks=800,
                      config=DtreeConfig(min_batch=2))
        seen = []
        lock = threading.Lock()

        def worker(w):
            while True:
                batch = sched.request(w, max_batch=3)
                if not batch:
                    return
                with lock:
                    seen.extend(batch)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == list(range(800))

    @pytest.mark.parametrize("name,value", [
        ("fanout", 1),               # each level as wide as the last: hang
        ("fanout", 0),               # a zero range() step
        ("initial_fraction", 1.5),   # allots ids past n_tasks
        ("initial_fraction", -0.1),
        ("drain_fraction", 0.0),
        ("drain_fraction", 1.5),
        ("min_batch", 0),            # request() grants nothing, forever
    ])
    def test_unrunnable_shape_is_a_named_error(self, name, value):
        with pytest.raises(ValueError, match="DtreeConfig.%s" % name):
            DtreeConfig(**{name: value})


class TestCentralQueue:
    def test_all_tasks_once(self):
        q = CentralQueue(n_workers=4, n_tasks=50)
        seen = []
        while True:
            got_any = False
            for w in range(4):
                b = q.request(w)
                if b:
                    seen.extend(b)
                    got_any = True
            if not got_any:
                break
        assert sorted(seen) == list(range(50))

    def test_message_per_request(self):
        q = CentralQueue(n_workers=2, n_tasks=10)
        q.request(0)
        q.request(1)
        assert q.stats["messages"] == 2


@settings(max_examples=20, deadline=None)
@given(
    n_workers=st.integers(min_value=1, max_value=40),
    n_tasks=st.integers(min_value=0, max_value=300),
    fanout=st.integers(min_value=2, max_value=8),
)
def test_property_dtree_conservation(n_workers, n_tasks, fanout):
    sched = Dtree(n_workers, n_tasks, DtreeConfig(fanout=fanout))
    seen = []
    active = list(range(n_workers))
    while active:
        still = []
        for w in active:
            b = sched.request(w, max_batch=2)
            seen.extend(b)
            if b:
                still.append(w)
        active = still
    assert sorted(seen) == list(range(n_tasks))
    assert len(set(seen)) == len(seen)


@settings(max_examples=40, deadline=None)
@given(
    n_workers=st.integers(min_value=1, max_value=24),
    n_tasks=st.integers(min_value=0, max_value=200),
    fanout=st.integers(min_value=2, max_value=8),
    initial_fraction=st.sampled_from([0.0, 0.1, 0.25, 0.6, 0.9, 1.0]),
    drain_fraction=st.sampled_from([0.05, 0.3, 0.5, 0.95]),
    min_batch=st.integers(min_value=1, max_value=4),
    max_batch=st.integers(min_value=1, max_value=5),
)
def test_property_dtree_delivery_exactly_once(
    n_workers, n_tasks, fanout, initial_fraction, drain_fraction,
    min_batch, max_batch,
):
    """Every task id in [0, n_tasks) is delivered exactly once across all
    workers, whatever the static allotment and drain configuration — the
    invariant the multi-field driver depends on (a lost task id is a region
    that is never optimized; a duplicate is optimized twice concurrently)."""
    sched = Dtree(n_workers, n_tasks, DtreeConfig(
        fanout=fanout,
        initial_fraction=initial_fraction,
        drain_fraction=drain_fraction,
        min_batch=min_batch,
    ))
    per_worker = [[] for _ in range(n_workers)]
    active = list(range(n_workers))
    while active:
        still = []
        for w in active:
            b = sched.request(w, max_batch=max_batch)
            per_worker[w].extend(b)
            if b:
                still.append(w)
        active = still
    delivered = [t for batch in per_worker for t in batch]
    assert sorted(delivered) == list(range(n_tasks))


class TestDtreeReclaimAndVersion:
    """The fault-recovery hook ``reclaim`` returns a dead worker's
    stranded leaf pool to the root, and a ``peek`` taken before a steal
    no longer matches what the worker will be granted."""

    def test_reclaim_makes_stranded_work_reachable(self):
        sched = Dtree(4, 100, DtreeConfig(initial_fraction=1.0))
        # The static allotment parked 25 tasks at every leaf; without a
        # reclaim, worker 3's pool is unreachable from workers 0-2.
        moved = sched.reclaim(3)
        assert moved == 25
        delivered = []
        for w in (0, 1, 2):
            while True:
                b = sched.request(w, max_batch=10)
                if not b:
                    break
                delivered.extend(b)
        assert sorted(delivered) == list(range(100))

    def test_reclaim_empty_leaf_is_noop(self):
        sched = Dtree(2, 10, DtreeConfig(initial_fraction=0.0))
        assert sched.reclaim(0) == 0
        assert sched.peek(1, 10) == list(range(10))  # nothing moved

    def test_reclaim_single_worker(self):
        sched = Dtree(1, 8, DtreeConfig(initial_fraction=1.0))
        assert sched.reclaim(0) == 8
        assert sorted(sched.request(0, max_batch=8)) == list(range(8))

    def test_reclaim_bad_worker(self):
        with pytest.raises(IndexError):
            Dtree(2, 4).reclaim(2)

    def test_stale_peek_detected_after_steal(self):
        """The stale-prefetch scenario: worker 0 peeks its upcoming work,
        then worker 1 steals through the shared parent; a fresh peek no
        longer matches, which is why the driver forms a grant's hint right
        after the grant rather than reusing an older peek."""
        # drain_fraction is tiny so requests serve exactly what is asked
        # and bank nothing locally: both workers' upcoming work sits in
        # the shared root, where a steal is visible to the sibling's peek.
        sched = Dtree(2, 40, DtreeConfig(
            initial_fraction=0.0, drain_fraction=0.05))
        sched.request(0, max_batch=4)
        peeked = sched.peek(0, 8)
        assert peeked
        assert sched.request(1, max_batch=30)  # the steal
        assert sched.peek(0, 8) != peeked
