"""Training loop: decoupled-weight-decay Adam, warmup/linear-decay schedule,
seeded epoch shuffling, and self-describing npz checkpoints.

`train` packs the parameters and both Adam moments into one contiguous buffer
each (`FlatLayout`) and holds one gradient row per micro-batch of a full
batch, made once per call, so that the optimizer and the finiteness check are
a few whole-buffer operations; the network reads and fills per-tensor views.

`train` decides once per call whether it pools: when a full batch spans two
or more micro-batches and the process may run on more than one CPU, every
batch goes to min(micro-batches, CPUs) worker processes (`sdnet.model.pool`),
which fill the rows, the pool's shared buffers, while the main process waits;
`train` then makes the report with `batch_report`, as `forward_loss`, which
runs every batch otherwise, does in process. The trained bytes do not depend
on which ran. `train` first calls `network.keep_freed_heap`, so that even a
fresh process's first in-process step keeps the temporaries it frees on the
heap instead of paging them in again on the next step."""

from __future__ import annotations

import json
import math
import os
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from ..data import atomic_write, check_at_least
from .network import (
    LossNotFiniteError,
    LossReport,
    ModelConfig,
    batch_report,
    check_params,
    encode_instances,
    forward_loss,
    keep_freed_heap,
    make_batch,
)
from .tokenizer import Vocab

CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Loss or parameters left the reals; carries the failing step index."""


# AdamW and warmup constants shared by both recipes.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
WEIGHT_DECAY = 0.01
WARMUP_FRAC = 0.06


@dataclass(frozen=True)
class TrainConfig:
    mode: Literal["pretrain", "finetune"]
    batch_size: int
    lr: float
    steps: int = 0            # pretrain budget
    epochs: int = 0           # finetune budget
    schedule: Literal["constant", "linear"] = "constant"
    seed: int = 0
    micro_size: int = 8

    def __post_init__(self) -> None:
        budget = "steps" if self.mode == "pretrain" else "epochs"
        check_at_least(self, 1, "batch_size", "micro_size", budget)
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


# The two published recipes; callers change budget and seed with `dataclasses.replace`.
PRETRAIN = TrainConfig(mode="pretrain", batch_size=16, lr=5e-5, steps=2000, schedule="constant")
FINETUNE = TrainConfig(mode="finetune", batch_size=4, lr=1e-4, epochs=50, schedule="linear")


def lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    """Step 0 is 0 under the linear schedule; the peak sits at the warmup
    boundary (WARMUP_FRAC of the budget), then decays linearly to 0."""
    if cfg.schedule == "constant":
        return cfg.lr
    warmup = max(1, int(round(total_steps * WARMUP_FRAC)))
    if step < warmup:
        return cfg.lr * step / warmup
    if total_steps <= warmup:
        return cfg.lr
    return cfg.lr * (total_steps - step) / (total_steps - warmup)


class FlatLayout:
    """Where each tensor of a parameter dict sits in one flat buffer. The
    matrices come first, so that `buf[:n_decay]` is exactly the entries that
    take weight decay."""

    def __init__(self, params: dict[str, np.ndarray]) -> None:
        offsets: dict[str, int] = {}
        self.size = 0
        for k in sorted(params, key=lambda k: params[k].ndim < 2):  # stable: matrices first
            offsets[k] = self.size
            self.size += params[k].size
        self.n_decay = sum(p.size for p in params.values() if p.ndim > 1)
        self.slots = {k: (offsets[k], p.shape) for k, p in params.items()}

    def views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        """Per-tensor views of `buf`, in the parameter dict's key order."""
        return {k: buf[offset : offset + math.prod(shape)].reshape(shape)
                for k, (offset, shape) in self.slots.items()}

    def pack(self, params: dict[str, np.ndarray]) -> np.ndarray:
        buf = np.empty(self.size, dtype=next(iter(params.values())).dtype)
        for k, view in self.views(buf).items():
            view[...] = params[k]
        return buf


@dataclass
class AdamWState:
    m: np.ndarray
    v: np.ndarray
    n_decay: int           # leading entries that take weight decay: the matrices
    scratch: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, flat: np.ndarray, n_decay: int) -> "AdamWState":
        m, v, scratch = np.zeros((3, flat.size), dtype=flat.dtype)
        return cls(m=m, v=v, n_decay=n_decay, scratch=scratch)


def adamw_step(params: np.ndarray, grads: np.ndarray, state: AdamWState, lr: float) -> None:
    """In-place update of the flat `params`; weight decay is decoupled and
    applied to the first `state.n_decay` entries, the matrices (biases and
    norm parameters are exempt). `grads` is overwritten: it holds the update.

    Per element, the operations and their order are those of
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        u = (m / bc1) / (sqrt(v / bc2) + eps) [+ wd p on the matrices];  p -= lr u
    """
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    m, v, s = state.m, state.v, state.scratch
    m *= BETA1
    np.multiply(grads, 1.0 - BETA1, out=s)
    m += s
    v *= BETA2
    np.multiply(grads, 1.0 - BETA2, out=s)
    s *= grads
    v += s
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    s += EPS
    u = grads
    np.divide(m, bc1, out=u)
    u /= s
    d = state.n_decay
    np.multiply(params[:d], WEIGHT_DECAY, out=s[:d])
    u[:d] += s[:d]
    u *= lr
    params -= u


@dataclass(frozen=True)
class StepLog:
    step: int
    lr: float
    report: LossReport


def total_steps_for(cfg: TrainConfig, n_instances: int) -> int:
    steps_per_epoch = math.ceil(n_instances / cfg.batch_size)
    return cfg.steps if cfg.mode == "pretrain" else cfg.epochs * steps_per_epoch


def usable_cpus() -> int:
    """The CPUs this process may run on, which bounds the pool's worker
    count; 1 on a platform without CPU affinity or memfd, where nothing is
    pooled."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create")):
        return 1
    return len(os.sched_getaffinity(0))


def train(
    params: dict[str, np.ndarray],
    instances: Sequence,
    vocab: Vocab,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
) -> list[StepLog]:
    """Trains `params` in place, writing the trained values into its arrays
    when the last step is done; returns the per-step loss log."""
    if not instances:
        raise ValueError("no training instances")
    keep_freed_heap()
    rng = np.random.default_rng(tcfg.seed)
    n = len(instances)
    total = total_steps_for(tcfg, n)
    store = encode_instances(instances, vocab, mcfg)
    layout = FlatLayout(params)
    flat = layout.pack(params)
    n_micro = -(-tcfg.batch_size // tcfg.micro_size)
    n_workers = min(n_micro, usable_cpus())
    pooled = nullcontext()
    if n_workers > 1:
        from .pool import shared_pool  # the process machinery loads only where training is pooled
        pooled = shared_pool().job(n_workers, layout, flat, n_micro, store, mcfg, tcfg.micro_size)
    with pooled as job:
        flat, rows = ((flat, np.empty((n_micro, layout.size), flat.dtype)) if job is None
                      else (job.params, job.grads))
        views, grads = layout.views(flat), [layout.views(row) for row in rows]
        batch_loss = ((lambda idx: forward_loss(views, mcfg, make_batch(store, idx), tcfg.micro_size, grads)[0])
                      if job is None else (lambda idx: batch_report(*job.step(idx), grads)))
        state = AdamWState.init(flat, layout.n_decay)
        log: list[StepLog] = []
        for step, idx in enumerate(_batches(rng, n, tcfg.batch_size, total)):
            try:
                report = batch_loss(idx)
            except LossNotFiniteError as exc:
                raise TrainingDivergedError(f"step {step}: {exc}") from exc
            lr = lr_at(tcfg, step, total)
            adamw_step(flat, rows[0], state, lr)
            if not np.isfinite(flat).all():
                bad = next(k for k, p in views.items() if not np.isfinite(p).all())
                raise TrainingDivergedError(f"step {step}: parameter {bad!r} not finite")
            log.append(StepLog(step=step, lr=lr, report=report))
        for k, p in views.items():
            params[k][...] = p
    return log


def _batches(rng: np.random.Generator, n: int, batch_size: int, total: int):
    """The instance indices of `total` batches: each epoch is a fresh seeded
    shuffle of the n instances, cut into batches in order."""
    step = 0
    while True:
        order = rng.permutation(n).tolist()
        for b0 in range(0, n, batch_size):
            if step == total:
                return
            step += 1
            yield order[b0 : b0 + batch_size]


def clone_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: p.copy() for k, p in params.items()}


def save_checkpoint(
    path: str | Path,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    vocab: Vocab,
    extra: dict | None = None,
) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": cfg.to_dict(),
        "vocab": list(vocab.id_to_token),
        "extra": extra or {},
    }
    meta_bytes = np.frombuffer(json.dumps(meta, ensure_ascii=False).encode("utf-8"), dtype=np.uint8)
    arrays = {f"param/{k}": v for k, v in params.items()}
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, __meta__=meta_bytes, **arrays)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig, Vocab, dict]:
    """Raises ValueError naming `path` when it is not an .npz archive with a
    `__meta__` entry of UTF-8 JSON, or when its metadata is not a JSON object
    of this version, a metadata or config field is missing, unexpected or of
    the wrong type, or the vocabulary's size or the tensors' names, shapes or
    dtypes do not fit the config; the message names the field."""
    with open(path, "rb") as fh:  # np.load leaves a file it opened open when the archive is cut
        try:
            data = np.load(fh)
        except (EOFError, ValueError, zipfile.BadZipFile):  # empty, not numpy data, or a cut archive
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: not a checkpoint: not an .npz archive")
        if "__meta__" not in data.files:
            raise ValueError(f"{path}: not a checkpoint: no __meta__ entry")
        try:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: __meta__ is not UTF-8 JSON: {exc}") from exc
        params = {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
    try:
        cfg, vocab = _checked_model(meta, params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return params, cfg, vocab, meta["extra"]


def _checked_model(meta, params: dict[str, np.ndarray]) -> tuple[ModelConfig, Vocab]:
    """The config and vocabulary of checkpoint metadata `meta`, checked
    against the tensors `params`; a fault raises ValueError naming the field."""
    if not isinstance(meta, dict):
        raise ValueError("checkpoint metadata must be a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
    for name, kind in (("config", dict), ("vocab", list), ("extra", dict)):
        if name not in meta:
            raise ValueError(f"missing checkpoint field {name!r}")
        if not isinstance(meta[name], kind):
            raise ValueError(f"checkpoint field {name!r} must be a JSON {'array' if kind is list else 'object'}, "
                             f"got {meta[name]!r}")
    cfg = ModelConfig.from_dict(meta["config"])
    check_params(params, cfg)
    vocab = Vocab(id_to_token=tuple(meta["vocab"]))
    if len(vocab) != cfg.vocab_size:
        raise ValueError(f"vocabulary has {len(vocab)} tokens, config expects {cfg.vocab_size}")
    return cfg, vocab
