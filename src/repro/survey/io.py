"""On-disk field files.

SDSS stores each field as a ~12 MB file; Celeste's I/O pattern (and the Burst
Buffer analysis in the paper) is driven by loading many such files per task.
We serialize fields to ``.npz`` with the same granularity so the cluster
simulator's byte counts correspond to real file sizes.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import zipfile
from collections import OrderedDict, deque

import numpy as np
from numpy.lib import format as _npy_format

from repro.psf.gmm import MixturePSF
from repro.survey.image import Image, ImageMeta
from repro.survey.wcs import AffineWCS

__all__ = [
    "save_field",
    "load_field",
    "field_metadata",
    "field_file_size",
    "FieldPrefetcher",
]


def save_field(path: str, images: list[Image]) -> int:
    """Write one field (all bands) to a single ``.npz`` file.

    Returns the number of bytes written.
    """
    payload = {"n_images": np.asarray(len(images))}
    for i, im in enumerate(images):
        meta = im.meta
        payload["pixels_%d" % i] = im.pixels
        payload["band_%d" % i] = np.asarray(meta.band)
        payload["wcs_matrix_%d" % i] = meta.wcs.matrix
        payload["wcs_sky_ref_%d" % i] = meta.wcs.sky_ref
        payload["wcs_pix_ref_%d" % i] = meta.wcs.pix_ref
        payload["psf_weights_%d" % i] = meta.psf.weights
        payload["psf_means_%d" % i] = meta.psf.means
        payload["psf_covs_%d" % i] = meta.psf.covs
        payload["sky_level_%d" % i] = np.asarray(meta.sky_level)
        payload["calibration_%d" % i] = np.asarray(meta.calibration)
        payload["field_id_%d" % i] = np.asarray(meta.field_id)
        payload["epoch_%d" % i] = np.asarray(meta.epoch)
        if im.mask is not None:
            payload["mask_%d" % i] = im.mask
    with open(path, "wb") as fh:
        np.savez(fh, **payload)
    return os.path.getsize(path)


def _open_field(opener, path: str):
    """``opener(path)``, with a file that is no readable archive (empty,
    truncated, or not written by :func:`save_field`) reported as a
    ``ValueError`` that names it."""
    try:
        return opener(path)
    except (zipfile.BadZipFile, EOFError, ValueError) as err:
        raise ValueError("field file %s is truncated or corrupt: %s"
                         % (path, err)) from err


@contextlib.contextmanager
def _image_errors(path: str, index: int):
    """Name the file and image in a ``ValueError`` from the constructors
    (a singular or non-finite WCS, an unusable PSF, a non-finite or
    non-positive sky level or calibration, unmasked non-finite pixels)."""
    try:
        yield
    except ValueError as err:
        raise ValueError("field file %s, image %d: %s"
                         % (path, index, err)) from err


def load_field(path: str) -> list[Image]:
    """Read a field file written by :func:`save_field`."""
    with _open_field(np.load, path) as data:
        n = int(data["n_images"])
        images = []
        for i in range(n):
            with _image_errors(path, i):
                wcs = AffineWCS(
                    matrix=data["wcs_matrix_%d" % i],
                    sky_ref=data["wcs_sky_ref_%d" % i],
                    pix_ref=data["wcs_pix_ref_%d" % i],
                )
                psf = MixturePSF(
                    weights=data["psf_weights_%d" % i],
                    means=data["psf_means_%d" % i],
                    covs=data["psf_covs_%d" % i],
                )
                meta = ImageMeta(
                    band=int(data["band_%d" % i]),
                    wcs=wcs,
                    psf=psf,
                    sky_level=float(data["sky_level_%d" % i]),
                    calibration=float(data["calibration_%d" % i]),
                    field_id=tuple(int(x) for x in data["field_id_%d" % i]),
                    epoch=int(data["epoch_%d" % i]),
                )
                mask = data["mask_%d" % i] if "mask_%d" % i in data else None
                images.append(Image(pixels=data["pixels_%d" % i], meta=meta,
                                    mask=mask))
    return images


def _npy_member_shape(zf: zipfile.ZipFile, name: str) -> tuple:
    """Shape of one ``.npy`` member, reading only its header bytes."""
    with zf.open(name) as f:
        version = _npy_format.read_magic(f)
        if version == (1, 0):
            shape, _, _ = _npy_format.read_array_header_1_0(f)
        else:
            shape, _, _ = _npy_format.read_array_header_2_0(f)
    return shape


def field_metadata(path: str) -> list[tuple]:
    """Per-image ``(sky_bounds, (height, width), band)`` of a field file.

    Reads only the small metadata arrays and the pixel arrays' ``.npy``
    *headers* — never the pixel data — so a survey index over thousands of
    field files costs header I/O, not a full read per file.  The bounds
    arithmetic matches :meth:`Image.sky_bounds` exactly (same corners, same
    WCS values round-tripped losslessly through the file), so geometry
    computed from this metadata is identical to geometry computed from the
    loaded images.
    """
    out = []
    with _open_field(zipfile.ZipFile, path) as zf, \
            _open_field(np.load, path) as data:
        for i in range(int(data["n_images"])):
            h, w = _npy_member_shape(zf, "pixels_%d.npy" % i)
            with _image_errors(path, i):
                wcs = AffineWCS(
                    matrix=data["wcs_matrix_%d" % i],
                    sky_ref=data["wcs_sky_ref_%d" % i],
                    pix_ref=data["wcs_pix_ref_%d" % i],
                )
            corners = np.array([
                [0.0, 0.0], [w, 0.0], [0.0, h], [w, h],
            ]) - 0.5
            sky = wcs.pix_to_sky(corners)
            bounds = (
                float(sky[:, 0].min()), float(sky[:, 0].max()),
                float(sky[:, 1].min()), float(sky[:, 1].max()),
            )
            out.append((bounds, (int(h), int(w)), int(data["band_%d" % i])))
    return out


#: Container overhead per stored array in an uncompressed ``.npz``: the
#: ``.npy`` header plus the zip local-file header and central-directory
#: entry (measured; name-length variation moves it by a few bytes).
_NPZ_PER_ARRAY_BYTES = 254

#: Arrays stored per image by :func:`save_field`, excluding the mask:
#: pixels, band, 3 WCS arrays, 3 PSF arrays, sky level, calibration,
#: field id, epoch.
_ARRAYS_PER_IMAGE = 12


def field_file_size(shape_hw: tuple[int, int], n_bands: int = 5,
                    masked: bool = False, psf_components: int = 2) -> int:
    """Bytes of a field file, computed from the real :func:`save_field`
    payload: float64 pixels, the optional bool mask plane, and every
    per-image metadata array (WCS, PSF mixture, calibration, ids), plus the
    per-array ``.npz`` container overhead.

    The cluster simulator's I/O model charges Burst Buffer time per byte,
    so this must track what :func:`save_field` actually writes — the old
    flat ``h*w*8 + 1024`` estimate ignored the mask plane and the metadata
    arrays and undercounted masked fields.
    """
    h, w = shape_hw
    # Scalar elements of the per-image metadata arrays (all float64/int64):
    # band(1) + wcs matrix/sky_ref/pix_ref (4+2+2) + psf weights/means/covs
    # (K + 2K + 4K) + sky_level(1) + calibration(1) + field_id(3) + epoch(1).
    meta_elements = 1 + 4 + 2 + 2 + 7 * psf_components + 1 + 1 + 3 + 1
    per_image = (
        h * w * 8
        + meta_elements * 8
        + _ARRAYS_PER_IMAGE * _NPZ_PER_ARRAY_BYTES
    )
    if masked:
        per_image += h * w + _NPZ_PER_ARRAY_BYTES  # bool plane, one byte/px
    # The n_images scalar array rounds out the archive.
    return n_bands * per_image + 8 + _NPZ_PER_ARRAY_BYTES


class FieldPrefetcher:
    """Loads field files on a background thread ahead of need.

    The paper stages field files through the Cori Burst Buffer so image
    loads overlap computation; this is the single-node analogue.  The
    driver *hints* paths the scheduler's look-ahead says are coming
    (:meth:`hint`), a daemon thread loads them into a bounded LRU cache,
    and :meth:`get` returns a cached field (a hit) or falls back to a
    synchronous load (a miss — counted, because misses are stalls the
    Burst Buffer failed to hide).
    """

    def __init__(self, loader=load_field, capacity: int = 16):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._loader = loader
        self._capacity = capacity
        self._cache: OrderedDict[str, list[Image]] = OrderedDict()
        self._queue: deque[str] = deque()   # hinted, load not started yet
        self._inflight: str | None = None   # being loaded right now
        self._cv = threading.Condition()
        self._closed = False
        self._thread: threading.Thread | None = None
        self.hits = 0
        self.misses = 0
        self.prefetched = 0
        self.prefetch_seconds = 0.0

    def _ensure_thread(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if self._closed:
                    return
                path = self._queue.popleft()
                self._inflight = path
            t0 = time.perf_counter()
            try:
                images = self._loader(path)
            except BaseException:
                with self._cv:
                    self._inflight = None
                    self._cv.notify_all()
                continue  # the consumer's synchronous load reports the error
            with self._cv:
                if not self._closed:  # a closed cache must stay released
                    self._insert(path, images)
                    self.prefetched += 1
                    self.prefetch_seconds += time.perf_counter() - t0
                self._inflight = None
                self._cv.notify_all()

    def _insert(self, path: str, images: list[Image]) -> None:
        self._cache[path] = images
        self._cache.move_to_end(path)
        while len(self._cache) > self._capacity:
            self._cache.popitem(last=False)

    def hint(self, paths) -> None:
        """Enqueue background loads for paths not already cached/in flight."""
        with self._cv:
            if self._closed:
                return
            for path in paths:
                if (path not in self._cache and path != self._inflight
                        and path not in self._queue):
                    self._queue.append(path)
            if self._queue:
                self._ensure_thread()
                self._cv.notify_all()

    def get(self, path: str) -> list[Image]:
        """The field at ``path``.

        Cached, or completed while we waited on its in-flight load: a hit
        (the prefetch overlapped at least part of the latency).  Merely
        hinted but not started, evicted, or never hinted: the caller loads
        it synchronously right now — a miss, the stall the Burst Buffer
        failed to hide — rather than queueing behind unrelated prefetches.
        """
        with self._cv:
            while path == self._inflight:
                self._cv.wait()
            if path in self._cache:
                self.hits += 1
                self._cache.move_to_end(path)
                return self._cache[path]
            try:
                self._queue.remove(path)  # claim it before the thread does
            except ValueError:
                pass
            self.misses += 1
        images = self._loader(path)
        with self._cv:
            if not self._closed:
                self._insert(path, images)
        return images

    def stats(self) -> dict:
        with self._cv:
            return {
                "prefetch_hits": self.hits,
                "prefetch_misses": self.misses,
                "prefetched": self.prefetched,
                "prefetch_seconds": self.prefetch_seconds,
            }

    def close(self) -> None:
        """Shut down the loader thread and release the cache.  Idempotent.

        Wakes the daemon thread (it may be waiting on the condition
        variable for work that will never come), joins it, and drops the
        LRU cache — a prefetcher closed mid-run (e.g. by ``run_pipeline``'s
        ``finally`` after a stage raised) must not keep a loader thread or
        a cache of field images alive.  Later :meth:`get` calls still work,
        as plain synchronous uncached loads.
        """
        with self._cv:
            self._closed = True
            self._queue.clear()
            self._cache.clear()
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
