"""A Global-Arrays-style partitioned global array.

A logically flat 2-D array of shape ``(n_rows, row_width)`` (rows = light
sources, columns = their 44 parameters) block-partitioned across ranks.
``get``/``put`` address whole rows by global index; the owning rank is
computed locally and the transport performs the one-sided access — no
receiver-side code runs, matching true RMA semantics.
"""

from __future__ import annotations

import numpy as np

from repro.pgas.transport import LocalTransport

__all__ = ["GlobalArray"]


class GlobalArray:
    """A dense (n_rows, row_width) float array partitioned across ranks."""

    def __init__(self, n_rows: int, row_width: int, n_ranks: int,
                 transport=None, allocate: bool = True):
        """``allocate=False`` attaches to windows the transport already
        holds (e.g. a per-worker accounting view over shared storage, or a
        process worker attaching to the parent's socket-served windows)
        instead of creating and zeroing them."""
        if n_rows < 0 or row_width <= 0 or n_ranks <= 0:
            raise ValueError("invalid GlobalArray geometry")
        self.n_rows = n_rows
        self.row_width = row_width
        self.n_ranks = n_ranks
        self.transport = transport if transport is not None else LocalTransport()

        # Block row partition: rank r owns rows [r*block, min((r+1)*block, n)).
        self.block = -(-n_rows // n_ranks) if n_rows else 1
        if allocate:
            for rank in range(n_ranks):
                lo, hi = self.owned_range(rank)
                self.transport.allocate(rank, max(hi - lo, 0) * row_width)

    # -- partition arithmetic ---------------------------------------------------

    def owner(self, row: int) -> int:
        self._check_row(row)
        return row // self.block

    def owned_range(self, rank: int) -> tuple[int, int]:
        lo = rank * self.block
        hi = min((rank + 1) * self.block, self.n_rows)
        return lo, max(hi, lo)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise IndexError("row %d out of range [0, %d)" % (row, self.n_rows))

    def _locate(self, row: int) -> tuple[int, int]:
        rank = self.owner(row)
        lo, _ = self.owned_range(rank)
        return rank, (row - lo) * self.row_width

    # -- one-sided element access -------------------------------------------------

    def get_row(self, row: int) -> np.ndarray:
        rank, start = self._locate(row)
        return self.transport.get(rank, start, self.row_width)

    def put_row(self, row: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.row_width,):
            raise ValueError("row must have width %d" % self.row_width)
        rank, start = self._locate(row)
        self.transport.put(rank, start, values)

    def to_dense(self) -> np.ndarray:
        """Gather the whole array with one bulk get per rank (gather
        points only: snapshots, checkpointing, output writing)."""
        parts = []
        for rank in range(self.n_ranks):
            lo, hi = self.owned_range(rank)
            if hi > lo:
                window = self.transport.get(rank, 0, (hi - lo) * self.row_width)
                parts.append(window.reshape(hi - lo, self.row_width))
        if not parts:
            return np.zeros((0, self.row_width))
        return np.concatenate(parts)
