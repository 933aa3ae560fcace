"""Partitioned global address space (PGAS) shared state.

"During the optimization procedure, the current parameters for all celestial
bodies are stored in a partitioned global address space.  Our interface
mimics that of the Global Arrays Toolkit.  We use MPI-3 as the transport
layer; get and put operations on elements make use of one-sided RMA
operations" (paper, Section IV-C).

This package reproduces that interface: a :class:`GlobalArray` partitioned
across ranks with one-sided ``get``/``put`` element operations, over two
transports on one window store — in-process memory for threaded runs and
the same windows served over a TCP socket for process node-workers — plus
a cost-recording wrapper that feeds the cluster simulator's communication
model.  :func:`make_transport` resolves registry names
(``REPRO_PGAS_TRANSPORT``).
"""

from repro.pgas.transport import (
    TRANSPORT_NAMES,
    LocalTransport,
    RecordingTransport,
    RMAStats,
    SocketTransport,
    WindowRangeError,
    make_transport,
)
from repro.pgas.global_array import GlobalArray

__all__ = [
    "GlobalArray",
    "LocalTransport",
    "RMAStats",
    "RecordingTransport",
    "SocketTransport",
    "TRANSPORT_NAMES",
    "WindowRangeError",
    "make_transport",
]
