"""Training steps and decodes do not page-fault: a process keeps its freed
heap from its first step or decode on, in the gradient workers, in a fresh
interpreter's first in-process `train`, and in a fresh interpreter that only
calls `generate_many` (`network.keep_freed_heap`).

Each test runs a fresh interpreter, since a process that has already freed a
large block keeps its heap whatever the code under test does. The bounds sit
well between the minor faults per step with the heap kept and without it. On
a 2 vCPU Xeon (glibc 2.36, numpy 2.4.6), a pooled step read 0.45 and 0.05 per
worker with it and 675 and 918 without; an in-process step read 0.6 with it
and 303 without; a 40-row decode of one-sentence sources read 0 with it and
1459 without, and of 40-55-token sources 0 with it and 4360 while the decode
still held the encoder's backward cache."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"
         and Path("/proc/self/stat").exists()),
    reason="counts glibc's page faults through /proc")

_SETUP = """
import json, resource, sys
import sdnet.model.pool as pool
import sdnet.model.trainer as trainer
from sdnet.model import ModelConfig, TrainConfig, build_vocab, init_params, train
from sdnet.sampling import TrainingInstance
from helpers import TINY_ROWS

# sources of 40-55 tokens: a step's temporaries then outgrow what the heap
# has free when training starts
insts = [TrainingInstance(task=t, prompt_text=p, input_text=" ".join([i] * 5), target_text=g)
         for t, p, i, g in TINY_ROWS] * 8
vocab = build_vocab([x for i in insts for x in (i.prompt_text, i.input_text, i.target_text)])
cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=1, n_heads=4, d_ff=256, max_len=64,
                  dtype="float32", seed=3)
counts = []  # the fault counts read after steps FIRST and LAST
FIRST, LAST = 20, int(sys.argv[1])
adamw_step = trainer.adamw_step

def counting_adamw_step(flat, grads, state, lr):
    adamw_step(flat, grads, state, lr)
    if state.t in (FIRST, LAST):
        counts.append(faults())

trainer.adamw_step = counting_adamw_step
"""

_POOLED = _SETUP + """
def minor_faults(pid):  # field 10 of /proc/<pid>/stat; field 2, the name, may hold spaces
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rpartition(")")[2].split()[7])

def faults():
    return [minor_faults(w.proc.pid) for w in pool.shared_pool().workers]

trainer.usable_cpus = lambda: 2
train(init_params(cfg), insts, vocab, cfg,
      TrainConfig(mode="pretrain", batch_size=16, lr=2e-3, steps=LAST, seed=4, micro_size=8))
print(json.dumps([(b - a) / (LAST - FIRST) for a, b in zip(*counts)]))
"""

_IN_PROCESS = _SETUP + """
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

train(init_params(cfg), insts, vocab, cfg,
      TrainConfig(mode="finetune", batch_size=4, lr=1e-3, epochs=LAST // 10, seed=4, micro_size=8))
print(json.dumps((counts[1] - counts[0]) / (LAST - FIRST)))
"""

_DECODE_ONLY = _SETUP + """
from sdnet.model import generate_many

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

params = init_params(cfg)
# 40 one-sentence sources, as `predict` and describing decode, or the 40-55
# token sources that `insts` trains on
rows = insts if sys.argv[2] == "long" else [TrainingInstance(*row) for row in TINY_ROWS * 8]
prompts, sources = [i.prompt_text for i in rows], [i.input_text for i in rows]
for call in range(LAST):  # nothing trains in this process
    generate_many(params, cfg, vocab, prompts, sources, max_len=8)
    counts.append(faults())
print(json.dumps((counts[-1] - counts[0]) / (LAST - 1)))
"""


def _faults_per_step(script: str, last_step: int, *args: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", script, str(last_step), *args], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout)


@pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="pooled training needs memfd")
def test_a_gradient_worker_does_not_page_fault_on_a_pooled_step():
    # pooled pretraining at the reference shape: batch 16, two micro-batches
    # of 8, one per worker; faults over steps 21-40
    per_worker = _faults_per_step(_POOLED, 40)
    assert len(per_worker) == 2
    assert all(f < 20 for f in per_worker), per_worker


def test_a_fresh_process_does_not_page_fault_on_an_in_process_step():
    # batch 4, one micro-batch: every step runs in process; 40 instances make
    # 10 steps an epoch, and faults are read over steps 21-100
    assert _faults_per_step(_IN_PROCESS, 100) < 20


@pytest.mark.parametrize("sources", ["short", "long"])
def test_a_process_that_only_decodes_does_not_page_fault_after_its_first_call(sources):
    # 40 rows a call; faults are read over calls 2-20
    assert _faults_per_step(_DECODE_ONLY, 20, sources) < 20
