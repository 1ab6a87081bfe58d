"""Data-parallel training gradients: persistent worker processes, each
computing micro-batch gradients of the batch the main process is training on.

A worker is a fresh interpreter, spawned as a subprocess with
OPENBLAS_NUM_THREADS=1 (a forked one would inherit the main process's BLAS
threads), that talks to the main process over its own socket. It is not a
`multiprocessing` spawn child, which on Python 3.11 also starts a resource
tracker process that outlives the main one, and re-imports the main script.
Worker w runs only on the w-th CPU (modulo their number) that the main process
may use: the main process wakes every worker at once, and the scheduler
otherwise often puts two of them on its own CPU, one waiting behind the other.
A worker calls `network.keep_freed_heap` before its first request, so that no
step pages its temporaries in afresh: a fresh interpreter would otherwise pay
a few hundred page faults on every step.
A worker waiting for its next request polls its socket, yielding its CPU
between polls, for up to POLL_S before it blocks. Between two steps of a job
the main process updates the parameters for about a millisecond; a worker
that slept through that gap ran its next micro-batch on a CPU that had gone
idle, which measured up to half again slower than on one that never idled
(2 vCPU, the more so the busier the host). POLL_S is about 20 times that gap,
so every step of a job meets a polling worker, and an idle pool sleeps again
within POLL_S.
The parameters and one gradient buffer per micro-batch live in one shared
memory file, a memfd named `sdnet-grads`: it has no path in /dev/shm and
disappears with the last process that holds it.

The pool only carries rows and buffers; the micro-batch split and the
summation rule are `sdnet.model.network`'s alone. Each of a job's W workers
learns W once. For each step the main process sends the batch's instance
indices to all W; worker w runs its share of the micro-batches through
`network.micro_batch_losses` into their gradient buffers and replies with
their loss sums, while the main process waits. `train` hands the merged
replies and the buffers to `network.batch_report`, as `forward_loss` does.

The pool starts on first use, once per interpreter, and closes at exit:
closing a worker's socket ends it, and the main process waits for each. A
worker also exits at end of file on its socket, so none outlives a main
process that is killed. A worker that dies or fails raises `WorkerError`
naming it and closes the pool; the next pooled training starts a new one.
"""

from __future__ import annotations

import atexit
import mmap
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np

from .network import keep_freed_heap, make_batch, micro_batch_losses

_IMPORT_ROOT = str(Path(__file__).resolve().parents[2])  # the directory that holds `sdnet`
_WORKER_MAIN = "import sys; from sdnet.model.pool import serve; serve(*map(int, sys.argv[1:]))"
POLL_S = 0.02  # how long a waiting worker polls before it blocks


class WorkerError(RuntimeError):
    """A gradient worker died or failed."""


class _Worker:
    def __init__(self, index: int, memfd: int) -> None:
        self.index = index
        ours, theirs = socket.socketpair()
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, (_IMPORT_ROOT, os.environ.get("PYTHONPATH")))))
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _WORKER_MAIN, str(theirs.fileno()), str(memfd), str(index)],
                pass_fds=(theirs.fileno(), memfd), env=env)
        self.conn = Connection(ours.detach())

    def __str__(self) -> str:
        return f"gradient worker {self.index} (pid {self.proc.pid})"

    # Both raise outside their handler, so that the socket error, whose frames
    # hold the message's pickle buffer, is not kept alive as the context.
    def send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except OSError:
            pass
        else:
            return
        raise self._died()

    def recv(self):
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            pass
        else:
            if isinstance(reply, str):  # the worker's traceback
                raise WorkerError(f"{self} failed:\n{reply}")
            return reply
        raise self._died()

    def _died(self) -> WorkerError:
        try:
            code = self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            code = None
        return WorkerError(f"{self} died (exit code {code})")


class GradPool:
    """Gradient workers and the shared memory file they map. While a job is
    open, `params` and `grads`, a row per micro-batch, are its buffers."""

    def __init__(self) -> None:
        self.memfd = os.memfd_create("sdnet-grads")
        self.size = 0  # bytes in the memory file; it only grows
        self.workers: list[_Worker] = []
        self.closed = False
        self._lock = threading.Lock()  # one training job at a time
        self.params = self.grads = self._job_workers = None

    def close(self) -> None:
        """Ends every worker and waits for it; a worker still busy finishes
        its step first. Closing twice does nothing."""
        if self.closed:
            return
        self.closed = True
        for w in self.workers:
            w.conn.close()
        for w in self.workers:
            try:
                w.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                w.proc.kill()
                w.proc.wait()
        os.close(self.memfd)

    @contextmanager
    def job(self, n_workers: int, layout, flat: np.ndarray, n_micro: int, store, cfg, micro_size: int):
        """A training run on the first `n_workers` workers, started here if
        need be: shared memory for the parameters, which start as `flat`,
        and `n_micro` gradient buffers. Each worker receives the layout, the
        encoded instances, the model config and the worker count once. Yields
        the pool; its buffers are dropped when the job ends."""
        with self._lock:
            while len(self.workers) < n_workers:
                self.workers.append(_Worker(len(self.workers), self.memfd))
            nbytes = (1 + n_micro) * flat.nbytes
            if nbytes > self.size:
                os.ftruncate(self.memfd, nbytes)
                self.size = nbytes
            bufs = np.frombuffer(mmap.mmap(self.memfd, nbytes), dtype=flat.dtype).reshape(1 + n_micro, -1)
            bufs[0] = flat
            self.params, self.grads = bufs[0], bufs[1:]
            self._job_workers = self.workers[:n_workers]
            message = ("job", layout, flat.dtype.str, n_micro, micro_size, store, cfg, n_workers)
            try:
                self._exchange(self._job_workers, message)
                yield self
            finally:
                self.params = self.grads = self._job_workers = None

    def _exchange(self, workers: list[_Worker], message: tuple) -> list:
        """Sends each worker the message, then reads every reply. Any failure,
        an interrupt included, closes the pool: a reply left unread would
        answer the next request."""
        try:
            for w in workers:
                w.send(message)
            return [w.recv() for w in workers]
        except BaseException:
            self.close()
            raise

    def step(self, rows: list[int]) -> tuple[int, int, list]:
        """The open job's batch of instances `rows`: every worker runs its
        share into `self.grads`. Returns what `micro_batch_losses` returns for
        the whole batch, the workers' parts merged."""
        replies = self._exchange(self._job_workers, ("step", rows))
        return *replies[0][:2], [part for _, _, parts in replies for part in parts]


_shared: GradPool | None = None


def shared_pool() -> GradPool:
    """The interpreter's pool, created on first use and closed at exit."""
    global _shared
    if _shared is None or _shared.closed:
        _shared = GradPool()
        atexit.register(_shared.close)
    return _shared


# ---- worker side ----


def _next_request(conn: Connection):
    """The next request, polled for up to POLL_S, then waited for; raises
    EOFError at end of file, which `poll` reports as readable."""
    deadline = time.monotonic() + POLL_S
    while not conn.poll(0) and time.monotonic() < deadline:
        os.sched_yield()
    return conn.recv()


def serve(conn_fd: int, memfd: int, index: int) -> None:
    """Worker `index`'s loop: answers requests until its socket reaches end of
    file. A request that raises is answered with the traceback text."""
    keep_freed_heap()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the main process's to handle
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    conn = Connection(conn_fd)
    while True:
        try:
            request = _next_request(conn)
        except EOFError:
            return
        try:
            if request[0] == "job":
                layout, dtype, n_micro, micro_size, store, cfg, n_workers = request[1:]
                bufs = np.frombuffer(mmap.mmap(memfd, (1 + n_micro) * layout.size * np.dtype(dtype).itemsize),
                                     dtype=dtype).reshape(1 + n_micro, -1)
                params = bufs[0]
                params.flags.writeable = False  # the parameters are the main process's to update
                params, grads = layout.views(params), [layout.views(g) for g in bufs[1:]]
                reply = None
            else:
                reply = micro_batch_losses(params, cfg, make_batch(store, request[1]), micro_size, grads,
                                           index, n_workers)
        except Exception:
            reply = traceback.format_exc()
        try:
            conn.send(reply)
        except OSError:  # the main process is gone
            return
