"""BLAS-thread pinning, the environment stamp, the leak check, and the
stop of every child process on the way out."""

from __future__ import annotations

import gc
import os
import platform
import signal
import sys
import tempfile
import time

BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS")
BLAS_THREADS = "1"


class BlasPinError(RuntimeError):
    """NumPy was imported before the BLAS thread count was pinned."""


def pin_environment() -> None:
    """Pin one BLAS thread per process and drop every ``REPRO_*`` override.

    Node-workers x BLAS threads must stay <= nproc: unpinned, two process
    workers on this 2-core box take 20-28 s for what they do in 8.5 s
    pinned, and spread +-17%.  BLAS reads these variables when NumPy is
    first imported, so a NumPy already loaded under other values makes
    the pin a lie — refuse instead.  Children inherit the environment.
    ``REPRO_*`` variables reconfigure the driver (``REPRO_ELBO_BATCH``
    would batch the scalar workloads), so none may leak in.
    """
    pinned = all(os.environ.get(v) == BLAS_THREADS for v in BLAS_ENV_VARS)
    if "numpy" in sys.modules and not pinned:
        raise BlasPinError(
            "numpy was imported before %s were set to %s; start the suite "
            "from a fresh interpreter (python benchmarks/suite/run.py)"
            % ("/".join(BLAS_ENV_VARS), BLAS_THREADS))
    for v in BLAS_ENV_VARS:
        os.environ[v] = BLAS_THREADS
    for v in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[v]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD's commit id read from ``.git`` directly (the benchmark may
    start no process it does not need, and a checkout need not be a
    repository at all)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: str, seed: int, repetitions: int) -> dict:
    """The machine and inputs a result was measured on."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        "repetitions": repetitions,
    }


# -- leak check ----------------------------------------------------------

def _listdir(path: str) -> list[str]:
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []


def _live_children(with_tracker: bool = False) -> set[int]:
    """Pids of this process's live children, except (unless asked for)
    multiprocessing's resource tracker: the interpreter starts it with the
    first spawned worker and keeps it whatever the program does, so it is
    not a leak of a call — ``stop_children`` ends it before this process
    exits."""
    me = os.getpid()
    out = set()
    for name in _listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as f:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
            with open("/proc/%s/cmdline" % name) as f:
                cmdline = f.read()
        except (OSError, ValueError, IndexError):
            continue
        if (int(ppid) == me and state != "Z"
                and (with_tracker
                     or "multiprocessing.resource_tracker" not in cmdline)):
            out.add(int(name))
    return out


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended;
    called on every path out of a run.

    The one that is always there after a process-executor call is
    multiprocessing's resource tracker.  It ends when the pipe from its
    parent closes, which left alone is when the parent is already gone:
    it outlives the benchmark by a few milliseconds, and whoever looks
    right then finds a process the run left behind.  So close the pipe
    here and wait for it (the pools are closed by now and their
    semaphores unlinked, so it has nothing left to clean up), and keep a
    late finalizer from starting another.  Whatever else is still alive
    is a leak the leak check has already reported: terminate it, then
    kill it.
    """
    gc.collect()  # finalize closed pools' queues while a tracker listens
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        try:
            tracker._stop()
            tracker._send = lambda *args: None
        except Exception:  # a private interface: fall through to the kill
            pass
    children = _live_children(with_tracker=True)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in children:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while children and time.monotonic() < deadline:
            for pid in sorted(children):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        children.discard(pid)
                except ChildProcessError:  # reaped by its owner already
                    children.discard(pid)
            time.sleep(0.01)
        if not children:
            return


def _listening_sockets() -> set[str]:
    """Inodes of TCP sockets this process holds in LISTEN state."""
    mine = set()
    for fd in _listdir("/proc/self/fd"):
        try:
            target = os.readlink("/proc/self/fd/" + fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            mine.add(target[len("socket:["):-1])
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as f:
                rows = f.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if len(cols) > 9 and cols[3] == "0A":
                listening.add(cols[9])
    return mine & listening


def leak_snapshot() -> dict[str, set]:
    """What a ``run_pipeline`` call must not leave more of behind."""
    return {
        "shm": set(_listdir("/dev/shm")),
        "tempdirs": {n for n in _listdir(tempfile.gettempdir())
                     if n.startswith("repro-driver-")},
        "children": _live_children(),
        "listening": _listening_sockets(),
    }


def leaks_since(before: dict[str, set], grace_s: float = 1.0) -> list[str]:
    """``kind:name`` for everything present now that was not in
    ``before`` and is still there after ``grace_s``.

    Under the spawn start method a ``multiprocessing`` queue's named
    semaphores (``/dev/shm/sem.mp-*``) are unlinked when the queue object
    is finalized, not when it is closed: a closed pool still caught in a
    reference cycle, or whose queue feeder thread has not yet exited,
    reads as a leak on one call in thirty.  So collect garbage, and look
    again for up to ``grace_s`` before calling it one: what a call leaves
    behind stays, what it is still tearing down goes.
    """
    deadline = time.monotonic() + grace_s
    while True:
        gc.collect()
        after = leak_snapshot()
        leaks = sorted("%s:%s" % (kind, item)
                       for kind in after for item in after[kind] - before[kind])
        if not leaks or time.monotonic() >= deadline:
            return leaks
        time.sleep(0.05)
