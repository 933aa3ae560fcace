"""The sharded working catalog: CatalogEntry <-> PGAS rows.

The paper's petascale run keeps the working catalog in a partitioned global
array — each light source is a fixed-width row of a distributed dense
matrix, block-partitioned across node-workers, accessed one-sidedly.  This
module provides the (de)serialization between :class:`CatalogEntry` and
those rows, plus :class:`ShardedCatalog`, a thin catalog-shaped facade over
:class:`~repro.pgas.GlobalArray`.

Rows are :data:`ROW_WIDTH` = 44 doubles wide, matching the paper's
44-parameter source records; the catalog-facing fields occupy the leading
slots and the remainder is reserved (zero) so a future full variational
catalog fits without a format change.  Optional fields (posterior standard
deviations, ``prob_galaxy``) encode ``None`` as NaN.  All stored fields are
float64 in and out, so an entry -> row -> entry round trip is exact — the
property the driver's thread/process bit-for-bit equivalence rests on.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NUM_CANONICAL_PARAMS, NUM_COLORS
from repro.core.catalog import Catalog, CatalogEntry
from repro.pgas import GlobalArray, RecordingTransport

__all__ = [
    "ROW_WIDTH",
    "entry_to_row",
    "entry_from_row",
    "ShardedCatalog",
]

#: Row width of the sharded catalog (the paper's 44-parameter records).
ROW_WIDTH = NUM_CANONICAL_PARAMS

# Slot layout of the catalog-facing prefix of a row.
_POSITION = slice(0, 2)
_IS_GALAXY = 2
_FLUX_R = 3
_COLORS = slice(4, 4 + NUM_COLORS)
_GAL_FRAC_DEV = 8
_GAL_AXIS_RATIO = 9
_GAL_ANGLE = 10
_GAL_RADIUS = 11
_PROB_GALAXY = 12
_FLUX_R_SD = 13
_COLOR_SD = slice(14, 14 + NUM_COLORS)
_USED = 14 + NUM_COLORS
assert _USED <= ROW_WIDTH


def entry_to_row(e: CatalogEntry) -> np.ndarray:
    """Encode one catalog entry as a 44-wide float64 row."""
    row = np.zeros(ROW_WIDTH)
    row[_POSITION] = e.position
    row[_IS_GALAXY] = 1.0 if e.is_galaxy else 0.0
    row[_FLUX_R] = e.flux_r
    row[_COLORS] = e.colors
    row[_GAL_FRAC_DEV] = e.gal_frac_dev
    row[_GAL_AXIS_RATIO] = e.gal_axis_ratio
    row[_GAL_ANGLE] = e.gal_angle
    row[_GAL_RADIUS] = e.gal_radius_px
    row[_PROB_GALAXY] = np.nan if e.prob_galaxy is None else e.prob_galaxy
    row[_FLUX_R_SD] = np.nan if e.flux_r_sd is None else e.flux_r_sd
    row[_COLOR_SD] = np.nan if e.color_sd is None else e.color_sd
    return row


def entry_from_row(row: np.ndarray) -> CatalogEntry:
    """Decode a row written by :func:`entry_to_row`."""
    row = np.asarray(row, dtype=float)
    if row.shape != (ROW_WIDTH,):
        raise ValueError("row must have width %d" % ROW_WIDTH)
    color_sd = row[_COLOR_SD]
    return CatalogEntry(
        position=row[_POSITION].copy(),
        is_galaxy=bool(row[_IS_GALAXY] != 0.0),
        flux_r=float(row[_FLUX_R]),
        colors=row[_COLORS].copy(),
        gal_frac_dev=float(row[_GAL_FRAC_DEV]),
        gal_axis_ratio=float(row[_GAL_AXIS_RATIO]),
        gal_angle=float(row[_GAL_ANGLE]),
        gal_radius_px=float(row[_GAL_RADIUS]),
        prob_galaxy=None if np.isnan(row[_PROB_GALAXY])
        else float(row[_PROB_GALAXY]),
        flux_r_sd=None if np.isnan(row[_FLUX_R_SD])
        else float(row[_FLUX_R_SD]),
        color_sd=None if np.all(np.isnan(color_sd)) else color_sd.copy(),
    )


class ShardedCatalog:
    """A working catalog stored as rows of a partitioned global array.

    Node-workers read and write individual sources through one-sided
    ``get``/``put`` row access; nobody ever holds the whole catalog except
    gather points (checkpointing, the final merge).  The transport decides
    the sharing mechanism: :class:`~repro.pgas.LocalTransport` for thread
    node-workers, :class:`~repro.pgas.SocketTransport` for process
    node-workers.
    """

    def __init__(self, n_rows: int, n_ranks: int, transport=None,
                 allocate: bool = True):
        self.array = GlobalArray(n_rows, ROW_WIDTH, n_ranks,
                                 transport=transport, allocate=allocate)

    @classmethod
    def from_entries(cls, entries, n_ranks: int,
                     transport=None) -> "ShardedCatalog":
        cat = cls(len(entries), n_ranks, transport=transport)
        for i, e in enumerate(entries):
            cat.put_entry(i, e)
        return cat

    @property
    def n_rows(self) -> int:
        return self.array.n_rows

    @property
    def n_ranks(self) -> int:
        return self.array.n_ranks

    def put_entry(self, i: int, e: CatalogEntry) -> None:
        self.array.put_row(i, entry_to_row(e))

    def get_entry(self, i: int) -> CatalogEntry:
        return entry_from_row(self.array.get_row(i))

    def put_entries(self, indices, entries) -> None:
        for i, e in zip(indices, entries):
            self.put_entry(int(i), e)

    def get_entries(self, indices) -> list[CatalogEntry]:
        return [self.get_entry(int(i)) for i in indices]

    def positions(self) -> np.ndarray:
        """Stacked positions, shape ``(n_rows, 2)`` (a full-row gather)."""
        if self.n_rows == 0:
            return np.zeros((0, 2))
        return self.array.to_dense()[:, _POSITION]

    def copy_rows_from(self, other: "ShardedCatalog") -> None:
        """Overwrite every row with ``other``'s rows (stage-start snapshot).

        With matching partitions this is one bulk get/put per rank, not per
        row — snapshot cost scales with ranks, not sources.
        """
        if other.n_rows != self.n_rows:
            raise ValueError("row count mismatch")
        if other.n_ranks == self.n_ranks:
            for rank in range(self.n_ranks):
                lo, hi = self.array.owned_range(rank)
                if hi > lo:
                    n = (hi - lo) * self.array.row_width
                    self.array.transport.put(
                        rank, 0, other.array.transport.get(rank, 0, n)
                    )
            return
        for i in range(self.n_rows):
            self.array.put_row(i, other.array.get_row(i))

    def to_catalog(self) -> Catalog:
        """Gather the whole catalog (checkpointing / merging only)."""
        return Catalog([self.get_entry(i) for i in range(self.n_rows)])

    def recording_view(self, local_rank: int):
        """A same-storage view whose traffic is counted separately.

        Returns ``(view, recorder)``: per-worker RMA accounting without
        touching the underlying windows.
        """
        recorder = RecordingTransport(self.array.transport,
                                      local_rank=local_rank)
        view = ShardedCatalog(self.n_rows, self.n_ranks, transport=recorder,
                              allocate=False)
        return view, recorder

    def shadow_view(self, local_rank: int, sink, window_name: str):
        """A recording view whose RMA ops are *also* shadowed into a race
        detector sink (:mod:`repro.analysis.race`).

        Returns ``(view, recorder, shadow)``: the view behaves exactly like
        :meth:`recording_view`'s (same storage, same accounting), and every
        ``get``/``put`` additionally lands in ``sink`` tagged with the
        shadow's current (actor, epoch) — set per unit of work via
        ``shadow.set_task``.
        """
        from repro.analysis.race import ShadowTransport

        recorder = RecordingTransport(self.array.transport,
                                      local_rank=local_rank)
        shadow = ShadowTransport(recorder, sink, window_name)
        view = ShardedCatalog(self.n_rows, self.n_ranks, transport=shadow,
                              allocate=False)
        return view, recorder, shadow
