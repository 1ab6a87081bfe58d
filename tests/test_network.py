"""Transformer forward/backward correctness and decoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnet.model import (
    EOS_ID,
    PAD_ID,
    LossNotFiniteError,
    ModelConfig,
    build_vocab,
    forward_loss,
    generate,
    init_params,
    make_batch,
    softmax_last,
    zero_grads,
)
from sdnet.model.network import (
    _GELU_A,
    _GELU_C,
    DecodeState,
    _gelu_fwd,
    decoder_forward,
    encoder_forward,
)
from helpers import batch_of, fd_gradient_check, reference_generate, tiny_instances, tiny_setup


def test_model_config_validates():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=50, d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=50, dtype="float16")
    cfg = ModelConfig(vocab_size=50, d_model=8, n_heads=2, d_ff=0)
    assert cfg.d_ff == 32
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_init_params_shapes_and_dtype():
    cfg = ModelConfig(vocab_size=40, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                      max_len=32, dtype="float32", seed=0)
    p = init_params(cfg)
    assert p["tok_emb"].shape == (40, 8)
    assert p["out.w"].shape == (8, 40)
    assert p["enc1.ffn.w1"].shape == (8, 16)
    assert p["dec0.cross.wq"].shape == (8, 8)
    assert all(v.dtype == np.float32 for v in p.values())
    z = zero_grads(p)
    assert set(z) == set(p)
    assert all(not v.any() for v in z.values())


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(0).normal(size=(3, 4, 7))
    s = softmax_last(x)
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert (s >= 0).all()


def test_gelu_matches_float64_power_reference():
    x = np.linspace(-6.0, 6.0, 2401)
    ref = 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * np.power(x, 3))))
    out, _ = _gelu_fwd(x)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0.0)


def test_uniform_logits_give_log_vocab_loss():
    insts, vocab, cfg, params = tiny_setup()
    params["out.w"][:] = 0.0
    params["out.b"][:] = 0.0
    batch = batch_of(insts, vocab, cfg)
    report, _ = forward_loss(params, cfg, batch)
    expect = np.log(cfg.vocab_size)
    assert abs(report.md_term - expect) < 1e-6
    assert abs(report.eg_term - expect) < 1e-6
    assert abs(report.total - 2 * expect) < 1e-6


def test_loss_decomposes_into_md_plus_eg_terms_exactly():
    insts, vocab, cfg, params = tiny_setup()
    report, _ = forward_loss(params, cfg, batch_of(insts, vocab, cfg))
    assert report.total == report.md_term + report.eg_term
    assert report.md_tokens > 0 and report.eg_tokens > 0


def test_md_only_batch_has_zero_eg_term():
    insts, vocab, cfg, params = tiny_setup()
    md_only = [i for i in insts if i.task == "MD"]
    report, _ = forward_loss(params, cfg, batch_of(md_only, vocab, cfg))
    assert report.eg_term == 0.0
    assert report.eg_tokens == 0
    assert report.total == report.md_term


def test_make_batch_shapes_and_teacher_forcing_shift():
    insts, vocab, cfg, _ = tiny_setup()
    batch = batch_of(insts, vocab, cfg)
    n = len(insts)
    assert batch.src.shape[0] == n
    assert batch.dec_in.shape == batch.labels.shape
    # decoder input row r is [PAD, labels[r, :-1]] where unpadded
    for r in range(n):
        assert batch.dec_in[r, 0] == PAD_ID
        length = int((batch.labels[r] != PAD_ID).sum())
        assert (batch.dec_in[r, 1:length] == batch.labels[r, : length - 1]).all()
        assert batch.labels[r, length - 1] == EOS_ID
    assert batch.is_md.tolist() == [i.task == "MD" for i in insts]


def test_padding_columns_do_not_change_the_loss():
    insts, vocab, cfg, params = tiny_setup()
    batch = batch_of(insts, vocab, cfg)
    report, grads = forward_loss(params, cfg, batch)
    import dataclasses
    wider = dataclasses.replace(
        batch,
        src=np.concatenate([batch.src, np.full((batch.src.shape[0], 3), PAD_ID)], axis=1),
        src_mask=np.concatenate(
            [batch.src_mask, np.zeros((batch.src.shape[0], 3), dtype=bool)], axis=1),
    )
    report2, grads2 = forward_loss(params, cfg, wider)
    assert report2.total == pytest.approx(report.total, rel=0, abs=1e-12)
    for k in grads:
        assert np.allclose(grads[k], grads2[k], atol=1e-12)


def test_worker_count_does_not_change_loss_or_grads():
    insts, vocab, cfg, params = tiny_setup()
    rows = (insts * 4)[:17]  # crosses the fixed micro-batch boundary
    batch = batch_of(rows, vocab, cfg)
    r1, g1 = forward_loss(params, cfg, batch, workers=1)
    r2, g2 = forward_loss(params, cfg, batch, workers=3)
    assert r1.total == r2.total
    assert r1.md_term == r2.md_term and r1.eg_term == r2.eg_term
    for k in g1:
        assert (g1[k] == g2[k]).all()


def test_gradients_match_finite_differences():
    insts, vocab, cfg, params = tiny_setup()
    batch = batch_of(insts, vocab, cfg)
    rows = fd_gradient_check(params, cfg, batch, entries_per_tensor=2, seed=3)
    worst = max(rows, key=lambda r: r[4])
    assert worst[4] <= 1e-4, worst


def test_non_finite_params_raise():
    insts, vocab, cfg, params = tiny_setup()
    params["out.w"][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(LossNotFiniteError):
        forward_loss(params, cfg, batch_of(insts, vocab, cfg))


def test_generate_breaks_argmax_ties_toward_lowest_id():
    insts, vocab, cfg, params = tiny_setup()
    for p in params.values():
        p[:] = 0.0
    # all logits equal: argmax must pick token id 0 ([PAD]) every step
    out = generate(params, cfg, vocab, "[MD] Alice", "Alice rests.", max_len=3)
    assert out == "[PAD] [PAD] [PAD]"
    # a strictly higher bias on [EOS] ends generation immediately
    params["out.b"][EOS_ID] = 1.0
    assert generate(params, cfg, vocab, "[MD] Alice", "Alice rests.", max_len=3) == ""


def test_generate_emits_trained_style_text_types():
    insts, vocab, cfg, params = tiny_setup()
    out = generate(params, cfg, vocab, insts[0].prompt_text, insts[0].input_text, max_len=8)
    assert isinstance(out, str)


def test_generate_stops_at_the_decoder_position_limit():
    insts, vocab, cfg, params = tiny_setup()
    for p in params.values():
        p[:] = 0.0
    alice = vocab.encode(["Alice"])[0]
    params["out.b"][alice] = 1.0  # never EOS: only the position limit ends decoding
    out = generate(params, cfg, vocab, "[MD] Alice", "Alice rests.", max_len=cfg.max_len + 10)
    assert out.split() == ["Alice"] * (cfg.max_len - 1)
    assert out == reference_generate(params, cfg, vocab, "[MD] Alice", "Alice rests.",
                                     max_len=cfg.max_len + 10)


@settings(max_examples=40, deadline=None)
@given(n_layers=st.integers(1, 2), n_heads=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 10_000), data=st.data())
def test_cached_decoder_steps_match_one_full_pass(n_layers, n_heads, seed, data):
    cfg = ModelConfig(vocab_size=30, d_model=8, n_layers=n_layers, n_heads=n_heads, d_ff=16,
                      max_len=12, dtype="float64", init_std=0.5, seed=seed)
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    n_src = data.draw(st.integers(1, 10), label="source length")
    n_pad = data.draw(st.integers(0, n_src - 1), label="padding of row 1")
    n_dec = data.draw(st.integers(1, cfg.max_len), label="prefix length")
    src = rng.integers(0, cfg.vocab_size, size=(2, n_src))
    src_mask = np.ones(src.shape, dtype=bool)
    src_mask[1, n_src - n_pad:] = False
    dec_in = rng.integers(0, cfg.vocab_size, size=(2, n_dec))
    enc, _ = encoder_forward(params, cfg, src, src_mask)
    full, _ = decoder_forward(params, cfg, dec_in, enc, src_mask)

    cuts = sorted(data.draw(st.sets(st.integers(1, n_dec - 1)), label="chunk starts")) if n_dec > 1 else []
    for bounds in (range(n_dec + 1), [0, *cuts, n_dec]):  # one position per call, then chunks
        state = DecodeState()
        steps = []
        for a, b in zip(bounds, bounds[1:]):
            logits, cache = decoder_forward(params, cfg, dec_in[:, a:b], enc, src_mask, state=state)
            assert cache is None
            steps.append(logits)
        assert state.length == n_dec
        np.testing.assert_allclose(np.concatenate(steps, axis=1), full, rtol=0.0, atol=1e-9)
