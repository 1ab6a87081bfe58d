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
The parameters and one gradient buffer per micro-batch live in one shared
memory file, a memfd named `sdnet-grads`: it has no path in /dev/shm and
disappears with the last process that holds it. For each step the main
process sends the batch's instance indices to the first W workers; worker w
computes micro-batches w, w + W, ..., each accumulated from zero into its own
buffer (`network.micro_batch_loss`), and replies with their cross-entropy
sums. The main process computes nothing meanwhile; it then adds the buffers
into buffer 0 in micro-batch index order. That is the summation rule
`network.forward_loss` follows in process, so both give the same bits.

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
import traceback
from contextlib import contextmanager
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np

from .network import LossNotFiniteError, LossReport, make_batch, micro_batch_loss, token_weights

_IMPORT_ROOT = str(Path(__file__).resolve().parents[2])  # the directory that holds `sdnet`
_WORKER_MAIN = "import sys; from sdnet.model.pool import serve; serve(*map(int, sys.argv[1:]))"


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
    """Gradient workers and the shared memory file they map."""

    def __init__(self) -> None:
        self.memfd = os.memfd_create("sdnet-grads")
        self.size = 0  # bytes in the memory file; it only grows
        self.workers: list[_Worker] = []
        self.closed = False
        self._lock = threading.Lock()  # one training job at a time

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
        encoded instances and the model config once."""
        with self._lock:
            while len(self.workers) < n_workers:
                self.workers.append(_Worker(len(self.workers), self.memfd))
            nbytes = (1 + n_micro) * flat.nbytes
            if nbytes > self.size:
                os.ftruncate(self.memfd, nbytes)
                self.size = nbytes
            bufs = np.frombuffer(mmap.mmap(self.memfd, nbytes), dtype=flat.dtype).reshape(1 + n_micro, -1)
            bufs[0] = flat
            job = _Job(self, self.workers[:n_workers], bufs, micro_size)
            job.exchange(("job", layout, flat.dtype.str, n_micro, micro_size, store, cfg))
            yield job


class _Job:
    def __init__(self, pool: GradPool, workers: list[_Worker], bufs: np.ndarray, micro_size: int) -> None:
        self.pool = pool
        self.workers = workers
        self.params = bufs[0]
        self.grads = bufs[1:]
        self.micro_size = micro_size

    def exchange(self, message: tuple, workers: list[_Worker] | None = None) -> list:
        """Sends each worker the message, then reads every reply. Any failure,
        an interrupt included, closes the pool: a reply left unread would
        answer the next request."""
        workers = self.workers if workers is None else workers
        try:
            for w in workers:
                w.send(message)
            return [w.recv() for w in workers]
        except BaseException:
            self.pool.close()
            raise

    def step(self, rows: list[int]) -> LossReport:
        """The batch of instances `rows`, which must span at least two
        micro-batches: its gradient lands in `self.grads[0]`. Raises
        LossNotFiniteError as `forward_loss` does."""
        n_micro = -(-len(rows) // self.micro_size)
        workers = self.workers[:n_micro]
        replies = self.exchange(("step", rows, len(workers)), workers)
        sums: list = [None] * n_micro
        for _, _, parts in replies:
            for m, result in parts:
                sums[m] = result
        md_sum = 0.0
        eg_sum = 0.0
        for result in sums:
            if isinstance(result, str):  # the first micro-batch, in index order, whose loss is not finite
                raise LossNotFiniteError(result)
            md_sum += result[0]
            eg_sum += result[1]
        for m in range(1, n_micro):
            self.grads[0] += self.grads[m]
        n_md, n_eg, _ = replies[0]
        return LossReport.from_sums(md_sum, eg_sum, n_md, n_eg)


_shared: GradPool | None = None


def shared_pool() -> GradPool:
    """The interpreter's pool, created on first use and closed at exit."""
    global _shared
    if _shared is None or _shared.closed:
        _shared = GradPool()
        atexit.register(_shared.close)
    return _shared


# ---- worker side ----


def serve(conn_fd: int, memfd: int, index: int) -> None:
    """Worker `index`'s loop: answers requests until its socket reaches end of
    file. A request that raises is answered with the traceback text."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the main process's to handle
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    conn = Connection(conn_fd)
    job = None
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        try:
            if request[0] == "job":
                job = _WorkerJob(memfd, index, *request[1:])
                reply = None
            else:
                reply = job.step(*request[1:])
        except Exception:
            reply = traceback.format_exc()
        try:
            conn.send(reply)
        except OSError:  # the main process is gone
            return


class _WorkerJob:
    def __init__(self, memfd: int, index: int, layout, dtype: str, n_micro: int, micro_size: int,
                 store, cfg) -> None:
        bufs = np.frombuffer(mmap.mmap(memfd, (1 + n_micro) * layout.size * np.dtype(dtype).itemsize),
                             dtype=dtype).reshape(1 + n_micro, -1)
        params = bufs[0]
        params.flags.writeable = False  # the parameters are the main process's to update
        self.params = layout.views(params)
        self.grads = bufs[1:]
        self.grad_views = [layout.views(g) for g in self.grads]
        self.index, self.micro_size, self.store, self.cfg = index, micro_size, store, cfg

    def step(self, rows: list[int], n_workers: int) -> tuple[int, int, list]:
        """This worker's micro-batches of the batch `rows`: each one's gradient,
        accumulated from zero, in its own buffer. Returns the batch's MD and EG
        token counts and, per micro-batch, its cross-entropy sums, or the
        message of a loss that is not finite, after which it stops."""
        batch = make_batch(self.store, rows, ids=[str(i) for i in rows])
        weights = token_weights(batch, self.cfg.np_dtype)
        parts: list = []
        for m in range(self.index, -(-len(rows) // self.micro_size), n_workers):
            self.grads[m][...] = 0.0
            try:
                parts.append((m, micro_batch_loss(self.params, self.cfg, batch, weights,
                                                  slice(m * self.micro_size, (m + 1) * self.micro_size),
                                                  self.grad_views[m])))
            except LossNotFiniteError as exc:
                parts.append((m, str(exc)))
                break
        return weights.n_md, weights.n_eg, parts
