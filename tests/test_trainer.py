"""Optimizer, schedule, training loop determinism, and checkpoints."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from sdnet.model import (
    FINETUNE,
    PRETRAIN,
    ModelConfig,
    TrainConfig,
    TrainingDivergedError,
    clone_params,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from sdnet.model.trainer import (BETA1, BETA2, EPS, WARMUP_FRAC, WEIGHT_DECAY, AdamWState, FlatLayout,
                                 adamw_step, lr_at, total_steps_for)
from helpers import (BAD_CHECKPOINT_META, reference_adamw_step, reference_train, rewrite_checkpoint_meta,
                     tiny_setup)


def test_train_config_presets_match_published_recipes():
    assert (PRETRAIN.mode, PRETRAIN.steps) == ("pretrain", 2000)
    assert (PRETRAIN.batch_size, PRETRAIN.lr, PRETRAIN.schedule) == (16, 5e-5, "constant")
    assert (FINETUNE.mode, FINETUNE.epochs) == ("finetune", 50)
    assert (FINETUNE.batch_size, FINETUNE.lr, FINETUNE.schedule) == (4, 1e-4, "linear")
    assert WARMUP_FRAC == 0.06
    assert (BETA1, BETA2, EPS, WEIGHT_DECAY) == (0.9, 0.999, 1e-8, 0.01)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="pretrain", batch_size=16, lr=5e-5, steps=0)
    with pytest.raises(ValueError):
        TrainConfig(mode="finetune", batch_size=4, lr=1e-4, epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(mode="pretrain", batch_size=0, lr=5e-5, steps=1)


@pytest.mark.parametrize("micro_size", [0, -8])
def test_train_config_rejects_a_micro_size_below_one(micro_size):
    with pytest.raises(ValueError, match=f"^micro_size must be at least 1, got {micro_size}$"):
        TrainConfig(mode="pretrain", batch_size=16, lr=5e-5, steps=1, micro_size=micro_size)


def test_constant_schedule_is_flat():
    cfg = replace(PRETRAIN, steps=100)
    assert {lr_at(cfg, s, 100) for s in range(100)} == {5e-5}


def test_linear_schedule_warms_up_to_peak_then_decays():
    cfg = replace(FINETUNE, epochs=1)
    total = 100
    warmup = round(0.06 * total)
    assert lr_at(cfg, 0, total) == 0.0
    assert lr_at(cfg, warmup, total) == pytest.approx(cfg.lr)
    peak = max(lr_at(cfg, s, total) for s in range(total))
    assert peak == pytest.approx(cfg.lr)
    assert lr_at(cfg, total - 1, total) < lr_at(cfg, warmup, total)
    ramp = [lr_at(cfg, s, total) for s in range(warmup + 1)]
    assert ramp == sorted(ramp)
    tail = [lr_at(cfg, s, total) for s in range(warmup, total)]
    assert tail == sorted(tail, reverse=True)


def test_total_steps_for_modes():
    assert total_steps_for(replace(PRETRAIN, steps=123), 999) == 123
    fin = replace(FINETUNE, epochs=3)
    assert total_steps_for(fin, 10) == 3 * 3  # ceil(10 / 4) = 3 steps per epoch


def test_adamw_decays_matrices_only():
    cfg = ModelConfig(vocab_size=40, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                      max_len=16, dtype="float64", seed=0)
    before = init_params(cfg)
    layout = FlatLayout(before)
    flat = layout.pack(before)
    adamw_step(flat, np.zeros_like(flat), AdamWState.init(flat, layout.n_decay), lr=0.1)
    params = layout.views(flat)
    for k in params:
        if params[k].ndim > 1:
            assert np.allclose(params[k], before[k] * (1 - 0.1 * WEIGHT_DECAY))
        else:
            assert (params[k] == before[k]).all()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flat_adamw_is_bit_identical_to_the_per_tensor_loop(dtype):
    cfg = ModelConfig(vocab_size=40, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                      max_len=16, dtype=dtype, seed=0)
    ref = init_params(cfg)
    layout = FlatLayout(ref)
    flat = layout.pack(ref)
    state = AdamWState.init(flat, layout.n_decay)
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    rng = np.random.default_rng(0)
    for t in range(1, 4):
        grads = {k: rng.normal(size=p.shape).astype(p.dtype) for k, p in ref.items()}
        reference_adamw_step(ref, grads, m, v, t, 0.05)
        adamw_step(flat, layout.pack(grads), state, 0.05)
        for k, p in layout.views(flat).items():
            assert np.array_equal(p, ref[k]), (t, k)


@pytest.mark.parametrize("mode", ["pretrain", "finetune"])
def test_flat_buffer_training_matches_the_per_tensor_reference(mode):
    insts, vocab, cfg, params = tiny_setup()
    budget = {"steps": 20} if mode == "pretrain" else {"epochs": 8, "schedule": "linear"}
    tcfg = TrainConfig(mode=mode, batch_size=3, lr=3e-3, seed=5, micro_size=2, **budget)
    before = clone_params(params)
    ref = clone_params(params)
    ref_log = reference_train(ref, insts, vocab, cfg, tcfg)
    arrays = dict(params)
    log = train(params, insts, vocab, cfg, tcfg)
    assert len(log) == len(ref_log) >= 14
    for got, want in zip(log, ref_log):
        assert (got.step, got.lr) == (want.step, want.lr)
        assert abs(got.report.total - want.report.total) <= 1e-10
    for k in params:
        assert params[k] is arrays[k]  # trained in place, in the caller's arrays
        assert not np.array_equal(params[k], before[k]), k
        np.testing.assert_allclose(params[k], ref[k], rtol=0.0, atol=1e-10)


def test_training_is_bitwise_deterministic():
    insts, vocab, cfg, params = tiny_setup()
    tcfg = TrainConfig(mode="pretrain", batch_size=2, lr=1e-3, steps=6, seed=7)
    p1 = clone_params(params)
    p2 = clone_params(params)
    log1 = train(p1, insts, vocab, cfg, tcfg)
    log2 = train(p2, insts, vocab, cfg, tcfg)
    assert [l.report.total for l in log1] == [l.report.total for l in log2]
    for k in p1:
        assert (p1[k] == p2[k]).all()


def test_training_loss_decomposition_holds_every_step():
    insts, vocab, cfg, params = tiny_setup()
    tcfg = TrainConfig(mode="pretrain", batch_size=2, lr=1e-3, steps=10, seed=0)
    log = train(params, insts, vocab, cfg, tcfg)
    assert len(log) == 10
    for entry in log:
        r = entry.report
        assert r.total == r.md_term + r.eg_term


def test_training_reduces_loss_on_tiny_corpus():
    insts, vocab, cfg, params = tiny_setup(d_model=16)
    tcfg = TrainConfig(mode="pretrain", batch_size=5, lr=3e-3, steps=60, seed=1)
    log = train(params, insts, vocab, cfg, tcfg)
    first = np.mean([l.report.total for l in log[:5]])
    last = np.mean([l.report.total for l in log[-5:]])
    assert last < first * 0.7


def test_finetune_mode_walks_epochs_with_reshuffles():
    insts, vocab, cfg, params = tiny_setup()
    tcfg = replace(FINETUNE, batch_size=2, lr=1e-3, epochs=2, seed=3)
    log = train(params, insts, vocab, cfg, tcfg)
    assert len(log) == total_steps_for(tcfg, len(insts))
    assert [l.step for l in log] == list(range(len(log)))
    assert log[0].lr == 0.0  # linear warmup starts at zero


def test_divergence_is_reported():
    insts, vocab, cfg, params = tiny_setup()
    params["out.w"][:] = np.nan
    tcfg = TrainConfig(mode="pretrain", batch_size=2, lr=1e-3, steps=2, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError):
        train(params, insts, vocab, cfg, tcfg)


def test_divergence_names_the_non_finite_tensor():
    insts, vocab, cfg, params = tiny_setup()
    # a decoder position no target reaches: the loss stays finite, the update does not
    params["pos_dec"][-1, 0] = np.inf
    tcfg = TrainConfig(mode="pretrain", batch_size=2, lr=1e-3, steps=2, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(
            TrainingDivergedError, match=r"^step 0: parameter 'pos_dec' not finite$"):
        train(params, insts, vocab, cfg, tcfg)


def test_checkpoint_round_trip(tmp_path):
    insts, vocab, cfg, params = tiny_setup()
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, cfg, vocab, extra={"note": "tiny"})
    p2, cfg2, vocab2, extra = load_checkpoint(path)
    assert cfg2 == cfg
    assert vocab2.id_to_token == vocab.id_to_token
    assert extra == {"note": "tiny"}
    assert set(p2) == set(params)
    for k in params:
        assert (p2[k] == params[k]).all()
        assert p2[k].dtype == params[k].dtype


@pytest.mark.parametrize("fault, message", [
    ("shape", "'dec0.cross.wq' has shape"),
    ("dtype", "'dec0.cross.wq' has dtype"),
    ("missing", "missing tensor 'dec0.cross.wq'"),
    ("unexpected", "unexpected tensor 'dec9.cross.wq'"),
    ("config", "unexpected config field 'dropout'"),
])
def test_load_rejects_a_checkpoint_that_does_not_fit_its_config(tmp_path, fault, message):
    insts, vocab, cfg, params = tiny_setup()
    name = "dec0.cross.wq"
    if fault == "shape":
        params[name] = params[name][:, :-1]
    elif fault == "dtype":
        params[name] = params[name].astype(np.float32)
    elif fault == "missing":
        del params[name]
    elif fault == "unexpected":
        params["dec9.cross.wq"] = params[name]
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, cfg, vocab)
    if fault == "config":  # a field this ModelConfig does not have
        rewrite_checkpoint_meta(path, lambda meta: {**meta, "config": {**meta["config"], "dropout": 0.1}})
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        load_checkpoint(path)


@pytest.mark.parametrize("message, edit", [
    *BAD_CHECKPOINT_META.items(),
    ("config field 'dtype' must be str, got 64", lambda m: {**m, "config": {**m["config"], "dtype": 64}}),
    ("config field 'seed' must be int, got True", lambda m: {**m, "config": {**m["config"], "seed": True}}),
    ("checkpoint field 'extra' must be a JSON object, got", lambda m: {**m, "extra": []}),
    ("checkpoint field 'config' must be a JSON object, got", lambda m: {**m, "config": [8]}),
    ("missing checkpoint field 'vocab'", lambda m: {k: v for k, v in m.items() if k != "vocab"}),
    ("vocabulary tokens must be strings", lambda m: {**m, "vocab": [*m["vocab"][:-1], 7]}),
    ("vocabulary has {short} tokens, config expects {n}", lambda m: {**m, "vocab": m["vocab"][:-1]}),
    ("checkpoint metadata must be a JSON object", lambda m: [m]),
])
def test_load_rejects_checkpoint_metadata_naming_the_bad_field(tmp_path, message, edit):
    _, vocab, cfg, params = tiny_setup()
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, cfg, vocab)
    rewrite_checkpoint_meta(path, edit)
    message = message.format(short=cfg.vocab_size - 1, n=cfg.vocab_size)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_checkpoint(path)
