"""Pooled training: worker-count and BLAS-thread independence, and workers
that fail loudly and leave nothing behind."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sdnet.model.pool as pool
import sdnet.model.trainer as trainer
from sdnet.model import TrainConfig, TrainingDivergedError, clone_params, train
from helpers import tiny_setup

ROOT = Path(__file__).resolve().parent.parent
POOLED = pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="pooled training needs memfd")


def _train_with_cpus(monkeypatch, cpus: int, params, insts, vocab, cfg, tcfg):
    monkeypatch.setattr(trainer, "usable_cpus", lambda: cpus)
    params = clone_params(params)
    return params, train(params, insts, vocab, cfg, tcfg)


def _pool_steps(monkeypatch) -> list[int]:
    """Counts the batches the pool computes, one entry per batch."""
    steps: list[int] = []
    step = pool.GradPool.step
    monkeypatch.setattr(pool.GradPool, "step", lambda job, rows: steps.append(len(rows)) or step(job, rows))
    return steps


@POOLED
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("batch_size, micro_size, cpus", [(3, 2, 2), (4, 1, 3)])
def test_pooled_training_is_byte_identical_to_in_process(monkeypatch, dtype, batch_size, micro_size, cpus):
    # each epoch of the five instances ends on a batch of one micro-batch,
    # which the pool runs too, its second worker idle; (3, 2): two
    # micro-batches, one per worker; (4, 1): more workers than the two CPUs a
    # test machine may have, and worker 0 also takes micro-batch 3
    insts, vocab, cfg, params = tiny_setup(dtype=dtype)
    tcfg = TrainConfig(mode="finetune", batch_size=batch_size, lr=3e-3, epochs=4,
                       schedule="linear", seed=5, micro_size=micro_size)
    steps = _pool_steps(monkeypatch)
    pooled, pooled_log = _train_with_cpus(monkeypatch, cpus, params, insts, vocab, cfg, tcfg)
    n_pooled = len(steps)
    assert n_pooled == len(pooled_log)  # every batch pooled, the short ones too
    alone, alone_log = _train_with_cpus(monkeypatch, 1, params, insts, vocab, cfg, tcfg)
    assert len(steps) == n_pooled  # the in-process run reached no worker
    assert pooled_log == alone_log
    for k in params:
        assert pooled[k].tobytes() == alone[k].tobytes(), k


@POOLED
def test_a_gap_between_steps_longer_than_the_poll_window_keeps_the_bytes(monkeypatch):
    # after step 1 both workers poll out their window and block in `recv`
    insts, vocab, cfg, params = tiny_setup()
    tcfg = TrainConfig(mode="pretrain", batch_size=4, lr=1e-3, steps=4, seed=0, micro_size=2)
    adamw_step = trainer.adamw_step
    slept = []

    def sleep_after_step_1(flat, grads, state, lr):
        adamw_step(flat, grads, state, lr)
        if state.t == 1:
            time.sleep(3 * pool.POLL_S)
            slept.append(state.t)

    monkeypatch.setattr(trainer, "adamw_step", sleep_after_step_1)
    steps = _pool_steps(monkeypatch)
    pooled, pooled_log = _train_with_cpus(monkeypatch, 2, params, insts, vocab, cfg, tcfg)
    assert len(steps) == 4 and slept == [1]
    alone, alone_log = _train_with_cpus(monkeypatch, 1, params, insts, vocab, cfg, tcfg)
    assert pooled_log == alone_log
    for k in params:
        assert pooled[k].tobytes() == alone[k].tobytes(), k


def _cpu_ticks(pid: int) -> int:
    """The process's user plus system CPU time so far, in clock ticks."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()  # the command name may hold spaces
    return int(fields[11]) + int(fields[12])  # utime and stime, the stat file's 14th and 15th fields


@POOLED
def test_an_idle_pool_sleeps_once_its_poll_window_has_passed(monkeypatch):
    insts, vocab, cfg, params = tiny_setup()
    tcfg = TrainConfig(mode="pretrain", batch_size=4, lr=1e-3, steps=3, seed=0, micro_size=2)
    _train_with_cpus(monkeypatch, 2, params, insts, vocab, cfg, tcfg)
    workers = pool.shared_pool().workers
    assert len(workers) >= 2
    time.sleep(5 * pool.POLL_S)
    before = [_cpu_ticks(w.proc.pid) for w in workers]
    time.sleep(0.5)
    after = [_cpu_ticks(w.proc.pid) for w in workers]
    assert all(b - a <= 1 for a, b in zip(before, after)), (before, after)


@POOLED
def test_a_non_finite_loss_in_a_worker_raises_as_in_process(monkeypatch):
    insts, vocab, cfg, params = tiny_setup()
    params["out.w"][:] = np.nan
    tcfg = TrainConfig(mode="pretrain", batch_size=4, lr=1e-3, steps=2, seed=0, micro_size=2)
    messages = []
    for cpus in (2, 1):
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError) as raised:
            _train_with_cpus(monkeypatch, cpus, params, insts, vocab, cfg, tcfg)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("step 0: non-finite loss on instance ")


@POOLED
def test_a_non_finite_loss_outside_micro_batch_0_raises_as_in_process(monkeypatch):
    # "animal" occurs only in instance 2's prompt, and seed 1's first batch is
    # instances [4, 0, 1, 2]: only micro-batch 1, the second worker's, diverges
    insts, vocab, cfg, params = tiny_setup()
    assert [i for i, x in enumerate(insts) if "animal" in x.prompt_text + x.input_text] == [2]
    params["tok_emb"][vocab.encode(["animal"])[0]] = np.nan
    tcfg = TrainConfig(mode="pretrain", batch_size=4, lr=1e-3, steps=2, seed=1, micro_size=2)
    steps = _pool_steps(monkeypatch)
    messages = []
    for cpus in (2, 1):
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError) as raised:
            _train_with_cpus(monkeypatch, cpus, params, insts, vocab, cfg, tcfg)
        messages.append(str(raised.value))
    assert steps == [4]  # the pooled run reached the pool, the in-process one did not
    assert messages == ["step 0: non-finite loss on instance '2'"] * 2


@POOLED
def test_a_killed_worker_raises_an_error_naming_it_and_the_next_run_starts_afresh(monkeypatch):
    insts, vocab, cfg, params = tiny_setup()
    tcfg = TrainConfig(mode="pretrain", batch_size=4, lr=1e-3, steps=6, seed=0, micro_size=2)
    adamw_step = trainer.adamw_step
    killed = []

    def kill_worker_1_after_step_2(flat, grads, state, lr):
        adamw_step(flat, grads, state, lr)
        if state.t == 2:
            worker = pool.shared_pool().workers[1]
            os.kill(worker.proc.pid, signal.SIGKILL)
            worker.proc.wait(timeout=30)
            killed.append(worker.proc.pid)

    monkeypatch.setattr(trainer, "adamw_step", kill_worker_1_after_step_2)
    died = r"^gradient worker 1 \(pid (\d+)\) died \(exit code -9\)$"
    with pytest.raises(pool.WorkerError, match=died) as raised:
        _train_with_cpus(monkeypatch, 2, params, insts, vocab, cfg, tcfg)
    assert killed and f"(pid {killed[0]})" in str(raised.value)
    monkeypatch.setattr(trainer, "adamw_step", adamw_step)
    _, log = _train_with_cpus(monkeypatch, 2, params, insts, vocab, cfg, tcfg)
    assert len(log) == 6
    assert all(w.proc.poll() is None for w in pool.shared_pool().workers)


@POOLED
def test_a_worker_exits_at_end_of_file_on_its_socket():
    memfd = os.memfd_create("sdnet-test")
    try:
        worker = pool._Worker(0, memfd)
        worker.conn.close()
        assert worker.proc.wait(timeout=60) == 0
    finally:
        os.close(memfd)


_FRESH_RUN = """
import hashlib, json, sys
import sdnet.model.pool as pool
import sdnet.model.trainer as trainer
from sdnet.model import ModelConfig, TrainConfig, build_vocab, generate_many, init_params, train
from helpers import tiny_instances

insts = tiny_instances() * 8
vocab = build_vocab([x for i in insts for x in (i.prompt_text, i.input_text, i.target_text)])
cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=1, n_heads=4, d_ff=256, max_len=64,
                  dtype=sys.argv[1], seed=3)
tcfg = TrainConfig(mode="pretrain", batch_size=16, lr=2e-3, steps=30, seed=4, micro_size=8)
out = {}
for cpus in (2, 1):
    trainer.usable_cpus = lambda: cpus
    params = init_params(cfg)
    log = train(params, insts, vocab, cfg, tcfg)
    digest = hashlib.sha256(repr([s.report for s in log]).encode())
    for k in sorted(params):
        digest.update(k.encode() + params[k].tobytes())
    out[f"train_cpus{cpus}"] = digest.hexdigest()
out["decoded"] = generate_many(params, cfg, vocab, [i.prompt_text for i in insts],
                               [i.input_text for i in insts], max_len=12)
out["workers"] = [w.proc.pid for w in pool.shared_pool().workers]
print(json.dumps(out))
"""


def _fresh_run(blas_threads: int, dtype: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", _FRESH_RUN, dtype], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@POOLED
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_and_batched_decoding_bytes_do_not_depend_on_workers_or_blas_threads(dtype):
    """Fresh interpreters at 1 and 2 BLAS threads: the pooled and the
    in-process training give the same bytes, and so does a 40-row
    `generate_many`; once each run has exited, none of its workers is left."""
    one, two = _fresh_run(1, dtype), _fresh_run(2, dtype)
    for run in (one, two):
        workers = run.pop("workers")
        assert len(workers) == 2
        assert not any(_alive(pid) for pid in workers)
    assert one["train_cpus2"] == one["train_cpus1"]
    assert one == two
    assert len(one["decoded"]) == 40
