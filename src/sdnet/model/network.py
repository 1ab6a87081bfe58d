"""Encoder-decoder transformer on numpy with hand-derived gradients.

Pre-LN blocks, learned positions, tanh-GELU feed-forward, and K/V-cached
incremental greedy decoding. One attention forward, `_attention_fwd`, serves
the encoder and the teacher-forced decoder: it takes keys and values projected
by `_kv_fwd` and a score bias built once per stack (key padding, causal, or
None). `generate_many` is the one greedy decode loop: it pads a batch of
sources behind a key mask, encodes them once, and runs `decoder_forward` once
per emitted token over each row's new position only, until every row has
emitted its own [EOS] or the length cap; `generate` is that loop on one row.
It builds its `DecodeState` whole before the first step: the decoder weights
with each layer norm's gain and bias folded into the projection that reads it,
the encoder output's keys and values, the source bias and the K/V buffers.
Each cached step, `DecodeState.step`, then runs the one new position on
(rows, d) arrays: row normalisations with no affine step, one product for the
self-attention's queries, keys and values, in-place softmaxes over the keys
written before it (so only the teacher-forced pass needs a causal mask), and
in-place residual adds. It computes the teacher-forced pass's function, equal
to rounding but not to the bit. 64-bit mode makes training bit-reproducible
and lets gradients be checked against finite differences; 32-bit mode is for
speed.
Loss terms are means over each task's non-pad target tokens. A batch is always
processed as the same fixed partition into micro-batches, and one summation
rule makes its gradient: `micro_batch_losses`, the only code that splits a
batch, runs a worker's round-robin share of its micro-batches (by default all),
each at its own rows' longest source and target, not the batch's, and writes
micro-batch m's gradient into its row once. Each backward primitive writes its
parameters' gradients straight into the row's views of them; only `tok_emb`,
`pos_enc` and `pos_dec` are zeroed first, to gain the rows that their positions
read, the encoder's and decoder's token rows in one `_add_rows`. `batch_report`
adds the rows and loss sums in micro-batch index order. Nothing else writes or
adds a row: `forward_loss` runs both halves in process, and a pooled `train`
the first in the workers of `sdnet.model.pool`, so the gradient depends on
nothing but the batch's rows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cache
from typing import Sequence

import numpy as np

from ..data import RowError, check_at_least
from .tokenizer import EOS_ID, PAD_ID, Vocab, detokenize, encode_input, encode_target

NEG_INF = -1e9
GEN_MAX_LEN = 64  # default cap on the tokens one greedy decode emits
GEN_MAX_ROWS = 64  # cap on the rows one greedy decode batch holds, which bounds its K/V cache
LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


class LossNotFiniteError(RuntimeError):
    """Loss left the reals; carries the offending instance id."""


# the values a ModelConfig field of each type may take when read back
_CONFIG_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 0  # 0 means 4 * d_model
    max_len: int = 256
    dtype: str = "float64"
    init_std: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        check_at_least(self, 1, "d_model", "n_layers", "n_heads")
        check_at_least(self, 0, "d_ff")
        check_at_least(self, 5, "vocab_size")
        check_at_least(self, 2, "max_len")
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model must be divisible by n_heads, got {self.d_model} and {self.n_heads}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self) -> type:
        return np.float64 if self.dtype == "float64" else np.float32

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """Raises ValueError naming a field that `to_dict` does not write, one
        it writes that `raw` lacks, or one whose value is not of its type (an
        int is a float too, a bool is neither)."""
        names = [f.name for f in fields(cls)]
        for name in raw:
            if name not in names:
                raise ValueError(f"unexpected config field {name!r}")
        for f in fields(cls):
            if f.name not in raw:
                raise ValueError(f"missing config field {f.name!r}")
            value = raw[f.name]
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[f.type]):
                raise ValueError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        return cls(**raw)


def _param_spec(cfg: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every parameter's shape and initialiser ("normal", "zeros" or "ones"),
    in the order `init_params` draws them."""
    d = cfg.d_model
    spec: dict[str, tuple[tuple[int, ...], str]] = {}

    def layer_norm(prefix: str) -> None:
        spec[prefix + ".g"] = ((d,), "ones")
        spec[prefix + ".b"] = ((d,), "zeros")

    def attention(prefix: str) -> None:
        for nm in ("wq", "wk", "wv", "wo"):
            spec[f"{prefix}.{nm}"] = ((d, d), "normal")
        for nm in ("bq", "bk", "bv", "bo"):
            spec[f"{prefix}.{nm}"] = ((d,), "zeros")

    def ffn(prefix: str) -> None:
        spec[prefix + ".w1"] = ((d, cfg.d_ff), "normal")
        spec[prefix + ".b1"] = ((cfg.d_ff,), "zeros")
        spec[prefix + ".w2"] = ((cfg.d_ff, d), "normal")
        spec[prefix + ".b2"] = ((d,), "zeros")

    spec["tok_emb"] = ((cfg.vocab_size, d), "normal")
    spec["pos_enc"] = ((cfg.max_len, d), "normal")
    spec["pos_dec"] = ((cfg.max_len, d), "normal")
    for i in range(cfg.n_layers):
        layer_norm(f"enc{i}.ln1")
        attention(f"enc{i}.attn")
        layer_norm(f"enc{i}.ln2")
        ffn(f"enc{i}.ffn")
    layer_norm("enc_ln")
    for i in range(cfg.n_layers):
        layer_norm(f"dec{i}.ln1")
        attention(f"dec{i}.self")
        layer_norm(f"dec{i}.ln2")
        attention(f"dec{i}.cross")
        layer_norm(f"dec{i}.ln3")
        ffn(f"dec{i}.ffn")
    layer_norm("dec_ln")
    spec["out.w"] = ((d, cfg.vocab_size), "normal")
    spec["out.b"] = ((cfg.vocab_size,), "zeros")
    return spec


def init_params(cfg: ModelConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.np_dtype
    p: dict[str, np.ndarray] = {}
    for name, (shape, init) in _param_spec(cfg).items():
        if init == "normal":
            p[name] = rng.normal(0.0, cfg.init_std, size=shape).astype(dt)
        else:
            p[name] = (np.ones if init == "ones" else np.zeros)(shape, dtype=dt)
    return p


def check_params(p: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    """Raise ValueError naming the first tensor that `cfg` does not expect, or
    that is missing or has the wrong shape or dtype."""
    spec = _param_spec(cfg)
    for name in p:
        if name not in spec:
            raise ValueError(f"unexpected tensor {name!r} for this model config")
    for name, (shape, _) in spec.items():
        if name not in p:
            raise ValueError(f"missing tensor {name!r}")
        if p[name].shape != shape:
            raise ValueError(f"tensor {name!r} has shape {p[name].shape}, config expects {shape}")
        if p[name].dtype != cfg.np_dtype:
            raise ValueError(f"tensor {name!r} has dtype {p[name].dtype}, config expects {cfg.dtype}")


# ---- differentiable primitives: each forward returns (out, cache) ----


# Row reductions stay off numpy's `reduce` along a short last axis, which runs
# its inner loop once per row and so costs more than the arithmetic around it
# at these shapes: a sum over the last axis is one matrix-vector product with a
# ones vector, a column sum one vector-matrix product, and a max over the last
# axis is taken along axis 0 of a contiguous transposed copy, which is exact.
# The training passes hold to that rule at every shape. The cached decode step
# keeps its sums as such products too (a row's mean is one product with a
# vector of 1/d), but it does not repeat the teacher-forced pass's arithmetic:
# its layer norms are folded into the projections that read them, the score
# scale into its query weights, and its softmax runs in place with `reduce`
# for the max over its few rows of scores (one per row and head). Its logits
# match the teacher-forced pass to rounding, and the tests hold it to that.


@cache
def _ones(n: int, dtype) -> np.ndarray:
    """A read-only ones vector, one per length and dtype; the lengths are
    bounded by the model's widths, its vocabulary and rows times positions."""
    ones = np.ones(n, dtype)
    ones.flags.writeable = False
    return ones


def _sum_last(x):
    """`x.sum(axis=-1, keepdims=True)` as `x.reshape(-1, n) @ ones(n)`."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ _ones(n, x.dtype)).reshape(x.shape[:-1] + (1,))


def _sum_cols(x2, out):
    """`x2.sum(axis=0)` of a 2-D `x2` as `ones(m) @ x2`, written into `out`."""
    return np.matmul(_ones(x2.shape[0], x2.dtype), x2, out=out)


def _linear_fwd(x, w, b):
    """`x @ w + b` for a (B, T, D) `x`, as one 2-D GEMM."""
    n, t, d = x.shape
    y = x.reshape(n * t, d) @ w
    y += b
    return y.reshape(n, t, -1), (x, w)


def _linear_bwd(dy, cache, dw, db):
    """Writes the weight and bias gradients into `dw` and `db`; returns dx."""
    x, w = cache
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    np.matmul(x2.T, dy2, out=dw)
    _sum_cols(dy2, db)
    return (dy2 @ w.T).reshape(x.shape)


def _layernorm_fwd(x, g, b):
    n = x.shape[-1]
    xc = x - _sum_last(x) / n
    var = _sum_last(xc * xc) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xc *= inv  # now x-hat
    return g * xc + b, (xc, inv, g)


def _layernorm_bwd(dy, cache, dg, db):
    """Writes the gain and bias gradients into `dg` and `db`; returns dx."""
    xhat, inv, g = cache
    n = xhat.shape[-1]
    tmp = dy * xhat
    _sum_cols(tmp.reshape(-1, n), dg)
    _sum_cols(dy.reshape(-1, n), db)
    # dx = inv * (dxh - mean(dxh) - xhat * mean(dxh * xhat)), with dxh = dy * g
    dx = dy * g
    np.multiply(dx, xhat, out=tmp)
    proj = _sum_last(tmp) / n
    dx -= _sum_last(dx) / n
    np.multiply(xhat, proj, out=tmp)
    dx -= tmp
    dx *= inv
    return dx


def _gelu_fwd(x):
    """x h with h = (1 + tanh(C (x + A x^3))) / 2, operation by operation in
    that order; caches h."""
    h = x * x
    h *= x
    h *= _GELU_A
    h += x
    h *= _GELU_C
    np.tanh(h, out=h)
    h += 1.0
    h *= 0.5
    return x * h, (x, h)


def _gelu_bwd(dy, cache):
    """dy (h + 2C x h (1 - h) (1 + 3A x^2)), since 1 - tanh^2 = 4 h (1 - h),
    as ((x^2 6AC + 2C) x ((1 - h) h) + h) dy, operation by operation in that
    order: nine passes over two buffers."""
    x, h = cache
    out = x * x
    out *= 6.0 * _GELU_A * _GELU_C
    out += 2.0 * _GELU_C
    out *= x
    s = 1.0 - h
    s *= h
    out *= s
    out += h
    out *= dy
    return out


def softmax_last(x):
    """Softmax over the last axis, computed on one contiguous transposed copy
    so that the max and the sum run along its axis 0; returns a contiguous
    array of the shape of `x`."""
    n = x.shape[-1]
    t = x.reshape(-1, n).T.copy()
    t -= np.maximum.reduce(t, axis=0)
    np.exp(t, out=t)
    t /= _ones(n, t.dtype) @ t
    return np.ascontiguousarray(t.T).reshape(x.shape)


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, k = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * k)


def _kv_fwd(p, prefix, x, n_heads):
    """Keys and values of `x` for attention `prefix`, split into heads, with
    their linear caches: the `kv` argument of `_attention_fwd`."""
    k, ck = _linear_fwd(x, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
    v, cv = _linear_fwd(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
    return _split_heads(k, n_heads), _split_heads(v, n_heads), ck, cv


def _key_bias(key_mask, dtype):
    """Score bias that hides the masked keys, or None when none is masked."""
    if key_mask.all():
        return None
    return np.where(key_mask, 0.0, NEG_INF).astype(dtype)[:, None, None, :]


def _attention_fwd(p, prefix, q_in, kv, bias):
    """Multi-head attention of `q_in` over `kv` from `_kv_fwd`; `bias`, if not
    None, is added to the scores."""
    kh, vh, ck, cv = kv
    n_heads = kh.shape[1]
    q, cq = _linear_fwd(q_in, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    qh = _split_heads(q, n_heads)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if bias is not None:
        scores += bias
    attn = softmax_last(scores)
    ctx = attn @ vh
    out, co = _linear_fwd(_merge_heads(ctx), p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    return out, (prefix, n_heads, scale, cq, ck, cv, qh, kh, vh, attn, co)


def _attention_bwd(dout, cache, grads):
    prefix, n_heads, scale, cq, ck, cv, qh, kh, vh, attn, co = cache
    dctx = _split_heads(_linear_bwd(dout, co, grads[prefix + ".wo"], grads[prefix + ".bo"]), n_heads)
    dattn = dctx @ vh.swapaxes(-1, -2)
    dvh = attn.swapaxes(-1, -2) @ dctx
    ds = dattn * attn
    dattn -= _sum_last(ds)
    np.multiply(attn, dattn, out=ds)  # the score gradient, then scaled once for both products
    ds *= scale
    dqh = ds @ kh
    dkh = ds.swapaxes(-1, -2) @ qh
    dq_in = _linear_bwd(_merge_heads(dqh), cq, grads[prefix + ".wq"], grads[prefix + ".bq"])
    dkv = _linear_bwd(_merge_heads(dkh), ck, grads[prefix + ".wk"], grads[prefix + ".bk"])
    dkv += _linear_bwd(_merge_heads(dvh), cv, grads[prefix + ".wv"], grads[prefix + ".bv"])
    return dq_in, dkv


def _ffn_fwd(p, prefix, x):
    u, c1 = _linear_fwd(x, p[prefix + ".w1"], p[prefix + ".b1"])
    g, cg = _gelu_fwd(u)
    y, c2 = _linear_fwd(g, p[prefix + ".w2"], p[prefix + ".b2"])
    return y, (prefix, c1, cg, c2)


def _ffn_bwd(dy, cache, grads):
    prefix, c1, cg, c2 = cache
    du = _gelu_bwd(_linear_bwd(dy, c2, grads[prefix + ".w2"], grads[prefix + ".b2"]), cg)
    return _linear_bwd(du, c1, grads[prefix + ".w1"], grads[prefix + ".b1"])


def _ln_bwd(dy, cache, prefix, grads):
    return _layernorm_bwd(dy, cache, grads[prefix + ".g"], grads[prefix + ".b"])


def _add_rows(dst, ids, rows):
    """`np.add.at(dst, ids, rows)`: row `ids[i]` of `dst` gains `rows[i]`.
    Rows are grouped by id with a stable sort and each group is summed by one
    `add.reduceat`, so the result is deterministic."""
    ids = ids.ravel()
    rows = rows.reshape(ids.size, -1)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    dst[ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


# ---- encoder / decoder stacks ----


def encoder_forward(p, cfg: ModelConfig, src, src_mask):
    x = p["tok_emb"][src] + p["pos_enc"][: src.shape[1]]
    bias = _key_bias(src_mask, x.dtype)
    layer_caches = []
    for i in range(cfg.n_layers):
        pre = f"enc{i}"
        h1, cl1 = _layernorm_fwd(x, p[pre + ".ln1.g"], p[pre + ".ln1.b"])
        kv = _kv_fwd(p, pre + ".attn", h1, cfg.n_heads)
        a, ca = _attention_fwd(p, pre + ".attn", h1, kv, bias)
        x += a
        h2, cl2 = _layernorm_fwd(x, p[pre + ".ln2.g"], p[pre + ".ln2.b"])
        f, cf = _ffn_fwd(p, pre + ".ffn", h2)
        x += f
        layer_caches.append((pre, cl1, ca, cl2, cf))
    enc, cfin = _layernorm_fwd(x, p["enc_ln.g"], p["enc_ln.b"])
    return enc, (src, layer_caches, cfin)


def encoder_backward(denc, cache, grads):
    """Returns the gradient of the token embeddings' rows (B, S, d)."""
    src, layer_caches, cfin = cache
    dx = _ln_bwd(denc, cfin, "enc_ln", grads)
    for pre, cl1, ca, cl2, cf in reversed(layer_caches):
        dh2 = _ffn_bwd(dx, cf, grads)
        dx += _ln_bwd(dh2, cl2, pre + ".ln2", grads)
        dq, dkv = _attention_bwd(dx, ca, grads)
        dq += dkv
        dx += _ln_bwd(dq, cl1, pre + ".ln1", grads)
    grads["pos_enc"][: src.shape[1]] += np.add.reduce(dx, axis=0)
    return dx


def _normalize_rows(x2, mean):
    """Layer normalisation of the rows of a 2-D `x2` with no gain or bias;
    `mean` is a vector of 1/d."""
    xc = x2 - (x2 @ mean)[:, None]
    xc /= np.sqrt((xc * xc) @ mean + LN_EPS)[:, None]
    return xc


def _project(x2, w, b):
    """`x2 @ w + b` for (rows, d) `x2`."""
    y = x2 @ w
    y += b
    return y


def _attend_rows(q, k, v, bias):
    """Attention of one query per row and head, `q` (B, H, 1, d_k), over keys
    `k` (B, H, d_k, n) and values `v` (B, H, n, d_k), the scale already in `q`
    and `bias`, if not None, added to the scores; the context as (B, H d_k)."""
    s = q @ k
    if bias is not None:
        s += bias
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= (s @ _ones(s.shape[-1], s.dtype))[..., None]
    return (s @ v).reshape(q.shape[0], -1)


def _fold(p, ln, w, b):
    """`w` and `b` of a projection that reads layer norm `ln`'s output, made
    to read x-hat instead: `LN(x) @ w + b` is `x-hat @ (g w) + (beta @ w + b)`
    for the norm's gain g (scaling the rows of `w`) and bias beta."""
    return p[ln + ".g"][:, None] * w, p[ln + ".b"] @ w + b


class DecodeState:
    """One incremental decode of the encoder output `enc_out` of sources
    masked by `src_mask`, prepared whole before the first step.

    Each decoder layer norm's gain and bias are folded (`_fold`) into the
    projection that reads its output, so a step only normalizes rows: ln1 into
    the self-attention's one [wq s | wk | wv] matrix, ln2 into the
    cross-attention query, ln3 into the feed-forward's first matrix and dec_ln
    into the output projection; s = 1/sqrt(d_k) scales both queries. The
    cross-attention keys of `enc_out` are held as (B, H, d_k, S), its values as
    (B, H, S, d_k), and `cross_bias` hides the masked source positions (None
    when none is). After `length` steps, each layer's self-attention buffers
    hold those positions' keys as (B, H, d_k, cfg.max_len) and values as
    (B, H, cfg.max_len, d_k), so every score and context is one product with
    no transpose. `mean`, a vector of 1/d, takes a row's mean in one product.
    """

    def __init__(self, p, cfg: ModelConfig, enc_out, src_mask) -> None:
        b, s, d = enc_out.shape
        h, dk = cfg.n_heads, d // cfg.n_heads
        scale = 1.0 / math.sqrt(dk)
        enc2 = enc_out.reshape(b * s, d)
        self.n_heads = h
        self.mean = np.full(d, 1.0 / d, enc_out.dtype)
        self.length = 0
        self.tok_emb, self.pos_dec = p["tok_emb"], p["pos_dec"]
        self.cross_bias = _key_bias(src_mask, enc_out.dtype)
        self.layers = []
        for i in range(cfg.n_layers):
            pre = f"dec{i}."
            sa, ca = pre + "self.", pre + "cross."
            w_qkv, b_qkv = _fold(p, pre + "ln1",
                                 np.concatenate([p[sa + "wq"] * scale, p[sa + "wk"], p[sa + "wv"]], axis=1),
                                 np.concatenate([p[sa + "bq"] * scale, p[sa + "bk"], p[sa + "bv"]]))
            k_cross = _project(enc2, p[ca + "wk"], p[ca + "bk"]).reshape(b, s, h, dk)
            v_cross = _project(enc2, p[ca + "wv"], p[ca + "bv"]).reshape(b, s, h, dk)
            self.layers.append((
                w_qkv, b_qkv,
                np.empty((b, h, dk, cfg.max_len), enc_out.dtype),
                np.empty((b, h, cfg.max_len, dk), enc_out.dtype),
                p[sa + "wo"], p[sa + "bo"],
                *_fold(p, pre + "ln2", p[ca + "wq"] * scale, p[ca + "bq"] * scale),
                np.ascontiguousarray(k_cross.transpose(0, 2, 3, 1)),
                np.ascontiguousarray(v_cross.transpose(0, 2, 1, 3)),
                p[ca + "wo"], p[ca + "bo"],
                *_fold(p, pre + "ln3", p[pre + "ffn.w1"], p[pre + "ffn.b1"]),
                p[pre + "ffn.w2"], p[pre + "ffn.b2"],
            ))
        self.out_w, self.out_b = _fold(p, "dec_ln", p["out.w"], p["out.b"])

    def step(self, dec_in):
        """The decoder on the one position `dec_in` (B, 1) after the `length`
        already run, as (B, d) rows; records its keys and values and returns
        its logits as (B, 1, V)."""
        t = self.length
        rows = dec_in.shape[0]
        x = self.tok_emb[dec_in[:, 0]]
        x += self.pos_dec[t]
        d = x.shape[1]
        kv_shape = (rows, self.n_heads, d // self.n_heads)
        q_shape = (rows, self.n_heads, 1, d // self.n_heads)
        for (w_qkv, b_qkv, k_self, v_self, wo, bo, wq_c, bq_c, k_cross, v_cross, wo_c, bo_c,
             w1, b1, w2, b2) in self.layers:
            qkv = _project(_normalize_rows(x, self.mean), w_qkv, b_qkv)
            k_self[:, :, :, t] = qkv[:, d:2 * d].reshape(kv_shape)
            v_self[:, :, t] = qkv[:, 2 * d:].reshape(kv_shape)
            x += _project(_attend_rows(qkv[:, :d].reshape(q_shape), k_self[..., :t + 1],
                                       v_self[:, :, :t + 1], None), wo, bo)
            q = _project(_normalize_rows(x, self.mean), wq_c, bq_c)
            x += _project(_attend_rows(q.reshape(q_shape), k_cross, v_cross, self.cross_bias), wo_c, bo_c)
            x += _project(_gelu_fwd(_project(_normalize_rows(x, self.mean), w1, b1))[0], w2, b2)
        self.length = t + 1
        return _project(_normalize_rows(x, self.mean), self.out_w, self.out_b).reshape(rows, 1, -1)


def decoder_forward(p, cfg: ModelConfig, dec_in, enc_out, src_mask, state: DecodeState | None = None):
    """Teacher-forced decoder pass; returns (logits, backward cache).

    With a `state`, `dec_in` holds the one position after the `state.length`
    already run, and `state.step` runs it: it attends to the keys and values
    `state` holds, `state` is extended by it, and no backward cache is kept
    (None).
    """
    if state is not None:
        return state.step(dec_in), None
    t = dec_in.shape[1]
    x = p["tok_emb"][dec_in] + p["pos_dec"][:t]
    causal = np.triu(np.full((t, t), NEG_INF, dtype=x.dtype), k=1)
    cross_bias = _key_bias(src_mask, x.dtype)
    layer_caches = []
    for i in range(cfg.n_layers):
        pre = f"dec{i}"
        h1, cl1 = _layernorm_fwd(x, p[pre + ".ln1.g"], p[pre + ".ln1.b"])
        a, ca = _attention_fwd(p, pre + ".self", h1, _kv_fwd(p, pre + ".self", h1, cfg.n_heads), causal)
        x += a
        h2, cl2 = _layernorm_fwd(x, p[pre + ".ln2.g"], p[pre + ".ln2.b"])
        kv = _kv_fwd(p, pre + ".cross", enc_out, cfg.n_heads)
        c, cc = _attention_fwd(p, pre + ".cross", h2, kv, cross_bias)
        x += c
        h3, cl3 = _layernorm_fwd(x, p[pre + ".ln3.g"], p[pre + ".ln3.b"])
        f, cf = _ffn_fwd(p, pre + ".ffn", h3)
        x += f
        layer_caches.append((pre, cl1, ca, cl2, cc, cl3, cf))
    h, cfin = _layernorm_fwd(x, p["dec_ln.g"], p["dec_ln.b"])
    logits, cout = _linear_fwd(h, p["out.w"], p["out.b"])
    return logits, (dec_in, layer_caches, cfin, cout)


def decoder_backward(dlogits, cache, grads):
    """Returns the gradients of the encoder output and of the token
    embeddings' rows (B, T, d)."""
    dec_in, layer_caches, cfin, cout = cache
    dx = _ln_bwd(_linear_bwd(dlogits, cout, grads["out.w"], grads["out.b"]), cfin, "dec_ln", grads)
    denc = None
    for pre, cl1, ca, cl2, cc, cl3, cf in reversed(layer_caches):
        dh3 = _ffn_bwd(dx, cf, grads)
        dx += _ln_bwd(dh3, cl3, pre + ".ln3", grads)
        dq, dkv = _attention_bwd(dx, cc, grads)
        denc = dkv if denc is None else denc + dkv
        dx += _ln_bwd(dq, cl2, pre + ".ln2", grads)
        dqs, dkvs = _attention_bwd(dx, ca, grads)
        dqs += dkvs
        dx += _ln_bwd(dqs, cl1, pre + ".ln1", grads)
    grads["pos_dec"][: dec_in.shape[1]] += np.add.reduce(dx, axis=0)
    return denc, dx


# ---- batching and loss ----


@dataclass(frozen=True)
class EncodedInstances:
    """Training instances as ids in one array: instance i's encoder input is
    `ids[bounds[2 * i]:bounds[2 * i + 1]]`, and its target, which ends in
    [EOS], runs on from there to `bounds[2 * i + 2]`."""
    ids: np.ndarray        # int32
    bounds: np.ndarray     # (2n + 1,) int64
    is_md: np.ndarray      # (n,) bool

    def __len__(self) -> int:
        return self.is_md.size


def encode_instances(instances: Sequence, vocab: Vocab, cfg: ModelConfig) -> EncodedInstances:
    """An instance whose input or target exceeds cfg.max_len raises RowError naming its index."""
    ids: list[int] = []
    bounds = [0]
    for row, i in enumerate(instances):
        try:
            ids += encode_input(i.prompt_text, i.input_text, vocab, cfg.max_len)
            bounds.append(len(ids))
            ids += encode_target(i.target_text, vocab, cfg.max_len)
        except ValueError as exc:
            raise RowError(row, str(exc)) from None
        bounds.append(len(ids))
    return EncodedInstances(ids=np.array(ids, dtype=np.int32), bounds=np.array(bounds, dtype=np.int64),
                            is_md=np.array([i.task == "MD" for i in instances], dtype=bool))


@dataclass(frozen=True)
class Batch:
    src: np.ndarray        # (B, S) int64
    src_mask: np.ndarray   # (B, S) bool
    dec_in: np.ndarray     # (B, T) int64, [PAD] doubles as the start token
    labels: np.ndarray     # (B, T) int64, [PAD] marks positions past the target
    is_md: np.ndarray      # (B,) bool
    ids: tuple[str, ...]

    def __len__(self) -> int:
        return self.src.shape[0]


def _gather_padded(ids: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row k holds `ids[starts[k]:ends[k]]`, padded with [PAD] to the longest;
    returned with the mask of the positions that are not padding."""
    lengths = ends - starts
    pos = np.arange(int(lengths.max()))
    mask = pos < lengths[:, None]
    out = np.full(mask.shape, PAD_ID, dtype=np.int64)
    out[mask] = ids[(starts[:, None] + pos)[mask]]
    return out, mask


def make_batch(store: EncodedInstances, rows: Sequence[int]) -> Batch:
    """Pad the instances `rows` of `store` into one batch; each row is named
    by its instance index."""
    rows = np.asarray(rows, dtype=np.int64)
    if not rows.size:
        raise ValueError("empty batch")
    b = store.bounds
    src, src_mask = _gather_padded(store.ids, b[2 * rows], b[2 * rows + 1])
    labels, tgt_mask = _gather_padded(store.ids, b[2 * rows + 1], b[2 * rows + 2])
    dec_in = np.full(labels.shape, PAD_ID, dtype=np.int64)
    dec_in[:, 1:] = np.where(tgt_mask[:, 1:], labels[:, :-1], PAD_ID)
    return Batch(src=src, src_mask=src_mask, dec_in=dec_in, labels=labels,
                 is_md=store.is_md[rows], ids=tuple(map(str, rows.tolist())))


@dataclass(frozen=True)
class LossReport:
    total: float
    md_term: float
    eg_term: float
    md_tokens: int
    eg_tokens: int


def _micro_loss_grads(p, cfg, src, src_mask, dec_in, labels, pos_w, grads):
    """Per-position cross entropy of one micro-batch; writes the gradient of
    sum(pos_w * ce) into `grads`, whatever they held: each tensor once, but
    the token and position embeddings, which are zeroed and then gain the
    rows their positions read."""
    for k in ("tok_emb", "pos_enc", "pos_dec"):
        grads[k].fill(0.0)
    enc, enc_cache = encoder_forward(p, cfg, src, src_mask)
    logits, dec_cache = decoder_forward(p, cfg, dec_in, enc, src_mask)
    # a row as long as the vocabulary, where `reduce` is already the faster max
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    label_logit = np.take_along_axis(logits, labels[..., None], axis=-1)[..., 0]
    dlogits = logits  # the logits are not needed past this point
    dlogits -= m
    np.exp(dlogits, out=dlogits)  # the softmax times its normalizer z, computed once
    z = _sum_last(dlogits)
    ce = (np.log(z) + m)[..., 0] - label_logit
    dlogits *= pos_w[..., None] / z
    b_idx = np.arange(labels.shape[0])[:, None]
    t_idx = np.arange(labels.shape[1])[None, :]
    dlogits[b_idx, t_idx, labels] -= pos_w
    denc, dx_dec = decoder_backward(dlogits, dec_cache, grads)
    dx_enc = encoder_backward(denc, enc_cache, grads)
    d = dx_enc.shape[-1]
    _add_rows(grads["tok_emb"], np.concatenate((src.ravel(), dec_in.ravel())),
              np.concatenate((dx_enc.reshape(-1, d), dx_dec.reshape(-1, d))))
    return ce


@cache
def keep_freed_heap() -> None:
    """Makes the calling process keep the memory its training steps and
    decodes free. Until a process frees a large mapped block, glibc's malloc
    maps afresh each block of 128 KB or more that the heap cannot hold and
    returns a free heap top of more than 128 KB to the system, so every step
    or decode batch pages a few hundred of its temporaries' pages in anew.
    Freeing a mapped block raises the first threshold to its size and the
    second to twice that, for good; this frees one of 8 MB that nothing
    touched, which costs no resident memory. `train`, the pool workers and
    `generate_many` call it; it is cached, so it runs once per process: a
    second block would come from the heap, which it would enlarge, and numpy
    marks so large a block for huge pages."""
    np.empty(1 << 23, dtype=np.uint8)


def forward_loss(
    p: dict[str, np.ndarray],
    cfg: ModelConfig,
    batch: Batch,
    micro_size: int,
    grads: Sequence[dict[str, np.ndarray]],
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Teacher-forced cross entropy: mean over MD tokens plus mean over EG
    tokens, with analytic gradients.

    The batch runs as micro-batches of `micro_size` rows, one after another,
    under the module's summation rule, micro-batch m in `grads[m]` (what they
    hold on entry is ignored). Returns the report and `grads[0]`, which then
    holds the batch's gradient.
    """
    report = batch_report(*micro_batch_losses(p, cfg, batch, micro_size, grads), grads)
    return report, grads[0]


def micro_batch_losses(p, cfg: ModelConfig, batch: Batch, micro_size: int,
                       grads: Sequence[dict[str, np.ndarray]], worker: int = 0,
                       n_workers: int = 1) -> tuple[int, int, list]:
    """The micro-batches m = worker, worker + n_workers, ... of `batch`, in
    that order (by default all): micro-batch m, rows m * micro_size onward,
    runs at its own rows' longest source and target, not the batch's, and
    writes into `grads[m]` the gradient of its share of the batch loss.
    Returns the batch's MD and EG token counts and, per micro-batch run, (m,
    its MD and EG cross-entropy sums), or (m, the message naming its first
    row with a target token whose loss is not finite), after which it stops."""
    tok_mask = batch.labels != PAD_ID
    md_mask = tok_mask & batch.is_md[:, None]
    eg_mask = tok_mask & ~batch.is_md[:, None]
    n_md = int(md_mask.sum())
    n_eg = int(eg_mask.sum())
    pos_w = np.zeros(batch.labels.shape, dtype=cfg.np_dtype)  # each target token's weight in the loss
    if n_md:
        pos_w[md_mask] = 1.0 / n_md
    if n_eg:
        pos_w[eg_mask] = 1.0 / n_eg
    parts: list = []
    for m in range(worker, -(-len(batch) // micro_size), n_workers):
        rows = slice(m * micro_size, (m + 1) * micro_size)
        src = rows, slice(batch.src_mask[rows].any(axis=0).sum())  # its rows' own widths
        tgt = rows, slice(tok_mask[rows].any(axis=0).sum())
        ce = _micro_loss_grads(p, cfg, batch.src[src], batch.src_mask[src], batch.dec_in[tgt],
                               batch.labels[tgt], pos_w[tgt], grads[m])
        md, eg = md_mask[tgt], eg_mask[tgt]
        bad = (~np.isfinite(ce) & (md | eg)).any(axis=1)
        if bad.any():
            parts.append((m, f"non-finite loss on instance {batch.ids[rows][bad.argmax()]!r}"))
            break
        parts.append((m, (float(ce[md].sum()), float(ce[eg].sum()))))
    return n_md, n_eg, parts


def batch_report(n_md: int, n_eg: int, parts: list, grads: Sequence[dict[str, np.ndarray]]) -> LossReport:
    """The batch's report from the parts of its micro-batches: their loss sums
    are added, and their gradients in `grads` into `grads[0]`, in index order;
    a task with no tokens has a zero term. Raises LossNotFiniteError with the
    message of the first micro-batch, in index order, whose loss is not finite."""
    md_sum = 0.0
    eg_sum = 0.0
    for m, result in sorted(parts, key=lambda part: part[0]):
        if isinstance(result, str):
            raise LossNotFiniteError(result)
        md_sum += result[0]
        eg_sum += result[1]
        if m:
            for k, g in grads[0].items():
                g += grads[m][k]
    md_term = md_sum / n_md if n_md else 0.0
    eg_term = eg_sum / n_eg if n_eg else 0.0
    return LossReport(total=md_term + eg_term, md_term=md_term, eg_term=eg_term,
                      md_tokens=n_md, eg_tokens=n_eg)


def generate(
    p: dict[str, np.ndarray],
    cfg: ModelConfig,
    vocab: Vocab,
    prompt_text: str,
    input_text: str,
    max_len: int = GEN_MAX_LEN,
) -> str:
    """Greedy decoding of one source: `generate_many` on a single row."""
    return generate_many(p, cfg, vocab, [prompt_text], [input_text], max_len)[0]


def generate_many(
    p: dict[str, np.ndarray],
    cfg: ModelConfig,
    vocab: Vocab,
    prompt_texts: Sequence[str],
    input_texts: Sequence[str],
    max_len: int = GEN_MAX_LEN,
) -> list[str]:
    """Greedy decoding of each (prompt, input) row; argmax ties break toward
    the lowest token id. A row stops at its own [EOS] and emits at most
    min(max_len, cfg.max_len - 1) tokens: the start token takes one of the
    cfg.max_len decoder positions. Rows run in padded batches of at most
    GEN_MAX_ROWS. A max_len below 1 raises ValueError; a row that encodes to
    no ids or to more than cfg.max_len raises RowError naming its index,
    before anything is decoded. Its first call in a process runs
    `keep_freed_heap` (cached: once per process), so that a process that only
    decodes pages no batch's temporaries in anew either."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    keep_freed_heap()
    sources = []
    for row, (prompt_text, input_text) in enumerate(zip(prompt_texts, input_texts, strict=True)):
        try:
            ids = encode_input(prompt_text, input_text, vocab, cfg.max_len)
        except ValueError as exc:
            raise RowError(row, str(exc)) from None
        if not ids:
            raise RowError(row, "encoded input is empty")
        sources.append(ids)
    limit = min(max_len, cfg.max_len - 1)
    out: list[str] = []
    for start in range(0, len(sources), GEN_MAX_ROWS):
        for ids in _greedy_batch(p, cfg, sources[start:start + GEN_MAX_ROWS], limit):
            out.append(detokenize(vocab.decode(ids)))
    return out


def _greedy_batch(p, cfg: ModelConfig, sources: list[list[int]], limit: int) -> list[list[int]]:
    """The ids each source's greedy decode emits before its [EOS], at most
    `limit` of them. The sources are padded with [PAD] behind a key mask and
    encoded once; each step runs the cached decoder over every row."""
    lengths = np.array([len(ids) for ids in sources])
    ends = np.cumsum(lengths)
    src, src_mask = _gather_padded(np.concatenate(sources), ends - lengths, ends)
    enc = encoder_forward(p, cfg, src, src_mask)[0]
    state = DecodeState(p, cfg, enc, src_mask)
    out: list[list[int]] = [[] for _ in sources]
    live = range(len(sources))  # the rows that have not emitted [EOS] yet
    nxt = np.full((len(sources), 1), PAD_ID, dtype=np.int64)
    for _ in range(limit):
        logits, _ = decoder_forward(p, cfg, nxt, enc, src_mask, state=state)
        nxt = logits.argmax(axis=-1)
        tokens = nxt.ravel().tolist()
        live = [k for k in live if tokens[k] != EOS_ID]
        if not live:
            break
        for k in live:
            out[k].append(tokens[k])
    return out
