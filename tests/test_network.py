"""Transformer forward/backward correctness and decoding."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnet.data import RowError
from sdnet.model import ModelConfig, generate, generate_many, init_params
from sdnet.model.network import (
    _GELU_A,
    _GELU_C,
    LN_EPS,
    DecodeState,
    LossNotFiniteError,
    _add_rows,
    _gelu_bwd,
    _gelu_fwd,
    _layernorm_bwd,
    _layernorm_fwd,
    _linear_bwd,
    _micro_loss_grads,
    _sum_cols,
    _sum_last,
    batch_report,
    decoder_forward,
    encode_instances,
    encoder_forward,
    forward_loss,
    make_batch,
    micro_batch_losses,
    softmax_last,
)
from sdnet.model.tokenizer import EOS_ID, PAD_ID
from helpers import (MICRO_SIZE, batch_of, fd_gradient_check, grad_rows, reference_generate, tiny_instances,
                     tiny_setup)


def test_model_config_validates():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=50, d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=50, dtype="float16")
    cfg = ModelConfig(vocab_size=50, d_model=8, n_heads=2, d_ff=0)
    assert cfg.d_ff == 32
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    raw = cfg.to_dict()
    del raw["d_model"]
    with pytest.raises(ValueError, match="missing config field 'd_model'"):
        ModelConfig.from_dict(raw)


@pytest.mark.parametrize("field, value, message", [
    ("d_model", 0, "d_model must be at least 1, got 0"),
    ("n_layers", 0, "n_layers must be at least 1, got 0"),
    ("n_heads", 0, "n_heads must be at least 1, got 0"),
    ("n_heads", -2, "n_heads must be at least 1, got -2"),
    ("d_ff", -1, "d_ff must not be negative, got -1"),
    ("vocab_size", 4, "vocab_size must be at least 5, got 4"),
    ("max_len", 1, "max_len must be at least 2, got 1"),
])
def test_model_config_rejects_a_degenerate_size_naming_the_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ModelConfig(**{"vocab_size": 50, field: value})


def test_init_params_shapes_and_dtype():
    cfg = ModelConfig(vocab_size=40, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                      max_len=32, dtype="float32", seed=0)
    p = init_params(cfg)
    assert p["tok_emb"].shape == (40, 8)
    assert p["out.w"].shape == (8, 40)
    assert p["enc1.ffn.w1"].shape == (8, 16)
    assert p["dec0.cross.wq"].shape == (8, 8)
    assert all(v.dtype == np.float32 for v in p.values())
    z = {k: np.zeros_like(v) for k, v in p.items()}
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
    report, _ = forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))
    expect = np.log(cfg.vocab_size)
    assert abs(report.md_term - expect) < 1e-6
    assert abs(report.eg_term - expect) < 1e-6
    assert abs(report.total - 2 * expect) < 1e-6


def test_loss_decomposes_into_md_plus_eg_terms_exactly():
    insts, vocab, cfg, params = tiny_setup()
    batch = batch_of(insts, vocab, cfg)
    report, _ = forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))
    assert report.total == report.md_term + report.eg_term
    assert report.md_tokens > 0 and report.eg_tokens > 0


def test_md_only_batch_has_zero_eg_term():
    insts, vocab, cfg, params = tiny_setup()
    md_only = [i for i in insts if i.task == "MD"]
    batch = batch_of(md_only, vocab, cfg)
    report, _ = forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))
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
    # `micro_batch_losses` trims a micro-batch to its rows' widths, so the
    # network itself is run here on three more source and target columns
    insts, vocab, cfg, params = tiny_setup()
    batch = batch_of(insts, vocab, cfg)
    n = len(batch)
    wider = dataclasses.replace(
        batch,
        src=np.concatenate([batch.src, np.full((n, 3), PAD_ID)], axis=1),
        src_mask=np.concatenate([batch.src_mask, np.zeros((n, 3), dtype=bool)], axis=1),
        dec_in=np.concatenate([batch.dec_in, np.full((n, 3), PAD_ID)], axis=1),
        labels=np.concatenate([batch.labels, np.full((n, 3), PAD_ID)], axis=1),
    )
    ce, grads, md, eg = _rows_alone(params, cfg, batch, 10, 10)
    ce2, grads2, md2, eg2 = _rows_alone(params, cfg, wider, 10, 10)
    for mask, mask2 in ((md, md2), (eg, eg2)):
        assert ce2[mask2].sum() == pytest.approx(ce[mask].sum(), rel=0, abs=1e-12)
    for k in grads:
        assert np.allclose(grads[k], grads2[k], atol=1e-12), k


def _rows_alone(params, cfg, alone, n_md, n_eg):
    """`_micro_loss_grads` on the batch `alone`, its target tokens weighted by
    a batch's MD and EG token counts, into NaN-filled gradients; returns the
    per-position loss, the gradients and the MD and EG token masks."""
    tok = alone.labels != PAD_ID
    md, eg = tok & alone.is_md[:, None], tok & ~alone.is_md[:, None]
    pos_w = np.where(md, 1.0 / max(n_md, 1), 0.0) + np.where(eg, 1.0 / max(n_eg, 1), 0.0)
    grads = {k: np.full_like(v, np.nan) for k, v in params.items()}
    ce = _micro_loss_grads(params, cfg, alone.src, alone.src_mask, alone.dec_in, alone.labels,
                           pos_w.astype(cfg.np_dtype), grads)
    return ce, grads, md, eg


def test_micro_batches_accumulate_in_index_order_deterministically():
    insts, vocab, cfg, params = tiny_setup()
    rows = (insts * 4)[:17]  # crosses the fixed micro-batch boundary: slices of 8, 8 and 1
    store = encode_instances(rows, vocab, cfg)
    batch = make_batch(store, range(17))
    r1, g1 = forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))
    r2, g2 = forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))
    assert r1 == r2
    for k in g1:
        assert (g1[k] == g2[k]).all()

    # each slice's rows on their own, weighted by the whole batch's task token
    # counts, then the slices' gradients added in index order: the same bits
    md_sum = eg_sum = 0.0
    summed = {k: np.zeros_like(v) for k, v in params.items()}
    for sl in (slice(0, 8), slice(8, 16), slice(16, 17)):
        ce, g, md, eg = _rows_alone(params, cfg, make_batch(store, range(17)[sl]), r1.md_tokens, r1.eg_tokens)
        md_sum += float(ce[md].sum())
        eg_sum += float(ce[eg].sum())
        for k in summed:
            summed[k] += g[k]
    assert md_sum / r1.md_tokens + eg_sum / r1.eg_tokens == r1.total
    for k in g1:
        assert g1[k].tobytes() == summed[k].tobytes(), k


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), micro_size=st.integers(1, 4), dtype=st.sampled_from(["float32", "float64"]),
       data=st.data())
def test_each_micro_batch_runs_at_its_own_rows_widths(seed, micro_size, dtype, data):
    # micro-batch m of a batch padded to its longest rows gives the loss sums
    # and gradient bytes of its own rows batched alone, with the same weights
    insts, vocab, cfg, params = tiny_setup(dtype=dtype, seed=seed)
    store = encode_instances(insts, vocab, cfg)
    rows = data.draw(st.lists(st.integers(0, len(insts) - 1), min_size=1, max_size=9), label="rows")
    batch = make_batch(store, rows)
    grads = [{k: np.full_like(v, np.nan) for k, v in params.items()} for _ in range(0, len(rows), micro_size)]
    n_md, n_eg, parts = micro_batch_losses(params, cfg, batch, micro_size, grads)
    for m, sums in parts:
        ce, want, md, eg = _rows_alone(params, cfg, make_batch(store, rows[m * micro_size:(m + 1) * micro_size]),
                                       n_md, n_eg)
        assert sums == (float(ce[md].sum()), float(ce[eg].sum()))
        for k in want:
            assert grads[m][k].tobytes() == want[k].tobytes(), (m, k)


def test_a_non_finite_loss_names_the_row_of_the_target_token_not_of_padding(monkeypatch):
    # row 0's last position is padding, and a NaN there is no loss; the inf at
    # one of row 1's target tokens is, so the message names row 1's instance
    insts, vocab, cfg, params = tiny_setup()
    batch = batch_of(insts[:4], vocab, cfg)
    lengths = (batch.labels != PAD_ID).sum(axis=1)
    assert lengths[0] < lengths.max()

    def poisoned(*args):
        ce = np.zeros(args[5].shape)
        ce[0, -1] = np.nan
        ce[1, 0] = np.inf
        return ce

    monkeypatch.setattr("sdnet.model.network._micro_loss_grads", poisoned)
    with pytest.raises(LossNotFiniteError, match=r"^non-finite loss on instance '1'$"):
        forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), micro_size=st.integers(1, 3), n_workers=st.integers(1, 4),
       data=st.data())
def test_every_workers_share_run_in_any_order_gives_the_bytes_of_forward_loss(seed, micro_size,
                                                                                n_workers, data):
    # each worker's round-robin share of the micro-batches, the workers in a
    # drawn order, into one set of stale gradient rows: `batch_report` then
    # gives the report and the gradient bytes of the whole batch in process
    insts, vocab, cfg, params = tiny_setup(seed=seed)
    rows = data.draw(st.lists(st.integers(0, len(insts) - 1), min_size=1, max_size=9), label="rows")
    batch = make_batch(encode_instances(insts, vocab, cfg), rows)
    want_report, want = forward_loss(params, cfg, batch, micro_size, grad_rows(params, batch, micro_size))
    grads = [{k: np.full_like(v, np.nan) for k, v in params.items()}
             for _ in range(0, len(batch), micro_size)]
    parts = []
    for worker in data.draw(st.permutations(range(n_workers)), label="worker order"):
        n_md, n_eg, share = micro_batch_losses(params, cfg, batch, micro_size, grads, worker, n_workers)
        parts += share
    assert sorted(m for m, _ in parts) == list(range(len(grads)))  # each micro-batch run once
    assert batch_report(n_md, n_eg, parts, grads) == want_report
    for k in want:
        assert grads[0][k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize("n_rows, n_micro", [(8, 1), (17, 3)])
def test_forward_loss_starts_each_micro_batch_from_zero_whatever_its_buffers_hold(n_rows, n_micro):
    insts, vocab, cfg, params = tiny_setup()
    batch = batch_of((insts * 4)[:n_rows], vocab, cfg)
    fresh_report, fresh = forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))
    stale = [{k: np.full_like(v, np.nan) for k, v in params.items()} for _ in range(n_micro)]
    report, grads = forward_loss(params, cfg, batch, MICRO_SIZE, stale)
    assert report == fresh_report and grads is stale[0]
    for k in fresh:
        assert grads[k].tobytes() == fresh[k].tobytes(), k


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 64), (8, 21, 64), (3, 5, 7)])
def test_reductions_and_in_place_primitives_keep_the_bits_of_the_plain_formulas(dtype, shape):
    x = np.random.default_rng(sum(shape)).normal(size=shape).astype(dtype)
    n = shape[-1]
    rows = x.reshape(-1, n)

    def row_sum(a):  # a matrix-vector product with a ones vector
        return (a.reshape(-1, n) @ np.ones(n, dtype)).reshape(a.shape[:-1] + (1,))

    def mean(a):
        return row_sum(a) / n

    def col_sum(a2):
        return np.ones(a2.shape[0], dtype) @ a2

    assert np.array_equal(_sum_last(x), row_sum(x))
    assert np.array_equal(_sum_cols(rows, np.full(n, np.nan, dtype)), col_sum(rows))
    # the max along axis 0 of a transposed copy is exact
    assert np.array_equal(np.maximum.reduce(rows.T.copy(), axis=0), x.max(axis=-1).ravel())

    # the linear, layer norm, softmax and GELU primitives against their plain
    # formulas; the backward passes write their parameter gradients into
    # destinations that start as NaN, so a write they miss shows
    rng = np.random.default_rng(n)
    g, b = (rng.normal(size=n).astype(dtype) for _ in range(2))
    dy = rng.normal(size=shape).astype(dtype)
    w = rng.normal(size=(n, 5)).astype(dtype)
    dy_lin = rng.normal(size=shape[:-1] + (5,)).astype(dtype)
    dy2 = dy_lin.reshape(-1, 5)
    dw, dw_b = np.full((n, 5), np.nan, dtype), np.full(5, np.nan, dtype)
    assert np.array_equal(_linear_bwd(dy_lin, (x, w), dw, dw_b), (dy2 @ w.T).reshape(shape))
    assert np.array_equal(dw, rows.T @ dy2)
    assert np.array_equal(dw_b, col_sum(dy2))
    mu = mean(x)
    var = mean((x - mu) * (x - mu))
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    y, cache = _layernorm_fwd(x, g, b)
    assert np.array_equal(y, g * xhat + b)
    dxh = dy * g
    dx = inv * (dxh - mean(dxh) - xhat * mean(dxh * xhat))
    dg, db = np.full(n, np.nan, dtype), np.full(n, np.nan, dtype)
    assert np.array_equal(_layernorm_bwd(dy, cache, dg, db), dx)
    assert np.array_equal(dg, col_sum((dy * xhat).reshape(-1, n)))
    assert np.array_equal(db, col_sum(dy.reshape(-1, n)))
    t = rows.T.copy()  # softmax on one transposed copy, each row a column
    e = np.exp(t - t.max(axis=0))
    assert np.array_equal(softmax_last(x), (e / (np.ones(n, dtype) @ e)).T.reshape(shape))
    y, (xg, h) = _gelu_fwd(x)
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    assert xg is x
    assert np.array_equal(h, (1.0 + t) * 0.5)
    assert np.array_equal(y, 0.5 * x * (1.0 + t))
    dgelu = _gelu_bwd(dy, (x, h))
    assert np.array_equal(dgelu, dy * (h + ((x * x) * (6.0 * _GELU_A * _GELU_C) + 2.0 * _GELU_C) * x * ((1.0 - h) * h)))
    # the tanh form it rewrites, 1 - t^2 = 4 h (1 - h), to the rounding of a few operations
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    np.testing.assert_allclose(dgelu, dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),
                               rtol=0, atol=32 * np.finfo(dtype).eps * float(np.abs(dy).max()))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 300), n=st.sampled_from([1, 7, 22, 64, 163, 256]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 10_000))
def test_reduction_helpers_stay_within_a_summation_bound_of_an_exact_sum(rows, n, dtype, seed):
    # A sum of m terms in any order is within m * eps * sum(|terms|) of the
    # exact sum; a softmax entry is within (n + 16) * eps of the exact one,
    # relative to it, for logits of unit scale.
    eps = float(np.finfo(dtype).eps)
    x = np.random.default_rng(seed).normal(size=(rows, n)).astype(dtype)
    x64 = x.astype(np.float64)
    got = _sum_last(x)[:, 0].astype(np.float64)
    want = np.array([math.fsum(r) for r in x64.tolist()])
    scale = np.array([math.fsum(r) for r in np.abs(x64).tolist()])
    assert (np.abs(got - want) <= n * eps * scale).all()
    got = _sum_cols(x, np.empty(n, dtype)).astype(np.float64)
    want = np.array([math.fsum(c) for c in x64.T.tolist()])
    scale = np.array([math.fsum(c) for c in np.abs(x64).T.tolist()])
    assert (np.abs(got - want) <= rows * eps * scale).all()
    e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
    want = e / np.array([[math.fsum(r)] for r in e.tolist()])
    got = softmax_last(x).astype(np.float64)
    assert (np.abs(got - want) <= (n + 16) * eps * want).all()


@settings(max_examples=60, deadline=None)
@given(vocab=st.integers(1, 12), rows=st.integers(1, 5), cols=st.integers(1, 9),
       width=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_add_rows_matches_add_at(vocab, rows, cols, width, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=(rows, cols))  # a 2-D id array, ids repeat
    upd = rng.normal(size=(rows, cols, width))
    base = rng.normal(size=(vocab, width))
    want = base.copy()
    np.add.at(want, ids, upd)
    got = base.copy()
    _add_rows(got, ids, upd)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_gradients_match_finite_differences():
    insts, vocab, cfg, params = tiny_setup()
    batch = batch_of(insts, vocab, cfg)
    rows = fd_gradient_check(params, cfg, batch, entries_per_tensor=2, seed=3)
    worst = max(rows, key=lambda r: r[4])
    assert worst[4] <= 1e-4, worst


def test_gradients_match_finite_differences_at_depth():
    # two layers of two heads over a padded batch: the key-padding bias is
    # built once per stack and shared, while each layer keeps its own caches
    insts, vocab, cfg, params = tiny_setup(n_layers=2, n_heads=2)
    batch = batch_of(insts, vocab, cfg)
    assert not batch.src_mask.all()
    rows = fd_gradient_check(params, cfg, batch, entries_per_tensor=2, seed=5)
    assert {"enc1.attn.wk", "dec1.self.wq", "dec1.cross.wv"} <= {r[0] for r in rows}
    worst = max(rows, key=lambda r: r[4])
    assert worst[4] <= 1e-4, worst


def test_non_finite_params_raise():
    insts, vocab, cfg, params = tiny_setup()
    params["out.w"][0, 0] = np.inf
    batch = batch_of(insts, vocab, cfg)
    with np.errstate(invalid="ignore"), pytest.raises(LossNotFiniteError):
        forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))


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
@given(n_layers=st.integers(1, 2), seed=st.integers(0, 10_000), data=st.data())
def test_padded_batch_rows_match_decoding_each_row_alone(n_layers, seed, data):
    insts, vocab, _, _ = tiny_setup()
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=n_layers, n_heads=2, d_ff=16,
                      max_len=24, dtype="float64", init_std=0.5, seed=seed)
    params = init_params(cfg)
    # a raised [EOS] bias makes rows stop at different steps
    params["out.b"][EOS_ID] += data.draw(st.sampled_from([0.0, 1.0, 2.0]), label="EOS bias")
    words = [tok for tok in vocab.id_to_token if tok.isalpha()]
    n_rows = data.draw(st.integers(1, 5), label="rows")
    prompts = [data.draw(st.sampled_from([i.prompt_text for i in insts]), label="prompt")
               for _ in range(n_rows)]
    texts = [" ".join(data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=9),
                                label="source words")) for _ in range(n_rows)]
    max_len = data.draw(st.integers(1, cfg.max_len + 2), label="max_len")
    got = generate_many(params, cfg, vocab, prompts, texts, max_len=max_len)
    assert got == [reference_generate(params, cfg, vocab, prompt, text, max_len=max_len)
                   for prompt, text in zip(prompts, texts)]


def test_generate_many_of_no_rows_is_empty_and_rows_must_pair_up():
    insts, vocab, cfg, params = tiny_setup()
    assert generate_many(params, cfg, vocab, [], []) == []
    with pytest.raises(ValueError):
        generate_many(params, cfg, vocab, ["[MD] Alice"], [])


def test_generate_many_runs_more_rows_than_one_batch_holds(monkeypatch):
    import sdnet.model.network as network

    insts, vocab, cfg, params = tiny_setup()
    rows = [(i.prompt_text, i.input_text) for i in insts]
    alone = [generate(params, cfg, vocab, prompt, text, max_len=6) for prompt, text in rows]
    monkeypatch.setattr(network, "GEN_MAX_ROWS", 2)
    assert generate_many(params, cfg, vocab, *zip(*rows), max_len=6) == alone


@pytest.mark.parametrize("prompt, text, reason", [
    ("", "", "encoded input is empty"),
    ("[MD] Alice", " ".join(["Alice"] * 63), "encoded input length 65 exceeds cap 64"),
])
def test_a_row_that_cannot_be_encoded_raises_naming_its_index(prompt, text, reason):
    insts, vocab, cfg, params = tiny_setup()
    with pytest.raises(ValueError, match=f"^row 0: {reason}$"):
        generate(params, cfg, vocab, prompt, text)
    rows = [(i.prompt_text, i.input_text) for i in insts[:2]]
    rows.insert(1, (prompt, text))
    with pytest.raises(RowError, match=f"^row 1: {reason}$") as raised:
        generate_many(params, cfg, vocab, *zip(*rows))
    assert raised.value.row == 1 and raised.value.reason == reason


@pytest.mark.parametrize("field, text, reason", [
    ("input_text", " ".join(["Alice"] * 63), "encoded input length 65 exceeds cap 64"),
    ("target_text", " ".join(["Alice"] * 64), "encoded target length 65 exceeds cap 64"),
])
def test_encode_instances_names_the_instance_that_exceeds_the_cap(field, text, reason):
    insts, vocab, cfg, _ = tiny_setup()
    long = dataclasses.replace(insts[0], prompt_text="[MD] Alice", **{field: text})
    with pytest.raises(RowError, match=f"^row 1: {reason}$") as raised:
        encode_instances([insts[0], long, insts[1]], vocab, cfg)
    assert raised.value.row == 1 and raised.value.reason == reason


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

    state = DecodeState(params, cfg, enc, src_mask)
    steps = []
    for a in range(n_dec):  # one position per call
        logits, cache = decoder_forward(params, cfg, dec_in[:, a:a + 1], enc, src_mask, state=state)
        assert cache is None
        steps.append(logits)
    assert state.length == n_dec
    np.testing.assert_allclose(np.concatenate(steps, axis=1), full, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_cached_decoder_steps_match_one_full_pass_in_float32_at_the_reference_shape(n_layers, seed):
    # the cached step folds the layer norms into the projections that read
    # them, so its gains and every bias are drawn away from 1 and 0 here: a
    # fold that lost one would move the logits far past float32 rounding
    cfg = ModelConfig(vocab_size=164, d_model=64, n_layers=n_layers, n_heads=4, d_ff=256,
                      max_len=32, dtype="float32", init_std=0.1, seed=seed)
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    for name, value in params.items():
        if name.endswith(".g"):
            value[:] = rng.normal(1.0, 0.5, value.shape)
        elif value.ndim == 1:
            value[:] = rng.normal(0.0, 0.5, value.shape)
    src = rng.integers(0, cfg.vocab_size, size=(2, 20))
    src_mask = np.ones(src.shape, dtype=bool)
    src_mask[1, 13:] = False  # the second source row is padded
    dec_in = rng.integers(0, cfg.vocab_size, size=(2, cfg.max_len))
    enc, _ = encoder_forward(params, cfg, src, src_mask)
    full, _ = decoder_forward(params, cfg, dec_in, enc, src_mask)

    state = DecodeState(params, cfg, enc, src_mask)
    steps = np.concatenate([decoder_forward(params, cfg, dec_in[:, a:a + 1], enc, src_mask, state=state)[0]
                            for a in range(cfg.max_len)], axis=1)
    assert steps.dtype == np.float32
    tol = 64 * np.finfo(np.float32).eps * float(np.abs(full).max())
    np.testing.assert_allclose(steps, full, rtol=0.0, atol=tol)
    # greedy decoding picks the same token wherever rounding cannot swap the top two
    top2 = np.sort(full, axis=-1)[..., -2:]
    clear = top2[..., 1] - top2[..., 0] > 2 * tol
    assert clear.mean() > 0.9
    assert (steps.argmax(axis=-1)[clear] == full.argmax(axis=-1)[clear]).all()
