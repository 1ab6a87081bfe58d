"""Shared builders and oracles for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from sdnet.data import AnnotatedSentence, Sentence, TypedMention
from sdnet.model import (
    EOS_ID,
    PAD_ID,
    ModelConfig,
    build_vocab,
    detokenize,
    encode_input,
    forward_loss,
    init_params,
    make_batch,
)
from sdnet.model.network import decoder_forward, encoder_forward
from sdnet.sampling import TrainingInstance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sent(sid: str, text: str, mentions: list[tuple[str, tuple[str, ...]]]) -> AnnotatedSentence:
    return AnnotatedSentence(
        sentence=Sentence(id=sid, text=text),
        mentions=tuple(TypedMention(surface=s, types=t) for s, t in mentions),
    )


TINY_ROWS: list[tuple[str, str, str, str]] = [
    ("MD", "[MD] Alice; Paris", "Alice visited Paris with Bob.",
     "Alice is person; Paris is city."),
    ("EG", "[EG] person: {actor, writer}; city", "Alice visited Paris with Bob.",
     "Alice is person; Bob is person; Paris is city."),
    ("EG", "[EG] animal", "Alice visited Paris with Bob.", ""),
    ("MD", "[MD] Rome; Bob; Alice", "Bob met Alice in Rome and Rome again.",
     "Rome is city; Bob is person; Alice is person."),
    ("EG", "[EG] city: {capital}; person", "Bob met Alice in Rome and Rome again.",
     "Bob is person; Alice is person; Rome is city; Rome is city."),
]


def tiny_instances() -> list[TrainingInstance]:
    return [TrainingInstance(task=t, prompt_text=p, input_text=i, target_text=g)
            for t, p, i, g in TINY_ROWS]


def tiny_setup(d_model: int = 8, n_layers: int = 1, n_heads: int = 2,
               dtype: str = "float64", seed: int = 1):
    """A d=8 single-layer model plus its vocabulary over the tiny corpus."""
    insts = tiny_instances()
    vocab = build_vocab([x for i in insts for x in (i.prompt_text, i.input_text, i.target_text)])
    cfg = ModelConfig(vocab_size=len(vocab.id_to_token), d_model=d_model,
                      n_layers=n_layers, n_heads=n_heads, d_ff=2 * d_model,
                      max_len=64, dtype=dtype, seed=seed)
    return insts, vocab, cfg, init_params(cfg)


def fd_gradient_check(params, cfg, batch, h: float = 1e-4,
                      entries_per_tensor: int = 3, seed: int = 0):
    """Five-point central finite differences against the analytic gradient.

    Per tensor it checks the largest-magnitude analytic entry plus seeded
    random entries. Returns (name, index, fd, analytic, rel) rows, where
    rel = |fd - an| / max(1e-6, |fd| + |an|): the floor keeps near-zero
    gradients, whose finite-difference estimate is dominated by floating-point
    cancellation, on an absolute scale instead. The fourth-order stencil keeps
    truncation error well below the comparison tolerance even for entries whose
    gradient is itself of order h.
    """
    _, grads = forward_loss(params, cfg, batch)
    rng = np.random.default_rng(seed)
    rows = []
    for name, g in grads.items():
        flat_ids = {int(np.argmax(np.abs(g)))}
        while len(flat_ids) < min(entries_per_tensor, g.size):
            flat_ids.add(int(rng.integers(g.size)))
        for flat in sorted(flat_ids):
            idx = np.unravel_index(flat, g.shape)
            p2 = {k: v.copy() for k, v in params.items()}
            losses = []
            for mult in (2, 1, -1, -2):
                p2[name][idx] = params[name][idx] + mult * h
                losses.append(forward_loss(p2, cfg, batch)[0].total)
            fd = (-losses[0] + 8 * losses[1] - 8 * losses[2] + losses[3]) / (12 * h)
            an = float(g[idx])
            rel = abs(fd - an) / max(1e-6, abs(fd) + abs(an))
            rows.append((name, idx, fd, an, rel))
    return rows


def batch_of(insts, vocab, cfg):
    return make_batch(insts, vocab, cfg, ids=[str(i) for i in range(len(insts))])


def reference_generate(p, cfg, vocab, prompt_text: str, input_text: str, max_len: int = 64) -> str:
    """Greedy decoding that runs the whole decoder over the growing prefix at
    every step, with no K/V cache: the oracle `generate` must match."""
    src = np.array([encode_input(prompt_text, input_text, vocab, cfg.max_len)], dtype=np.int64)
    src_mask = np.ones(src.shape, dtype=bool)
    enc, _ = encoder_forward(p, cfg, src, src_mask)
    out_ids: list[int] = []
    dec = [PAD_ID]
    for _ in range(max_len):
        logits, _ = decoder_forward(p, cfg, np.array([dec], dtype=np.int64), enc, src_mask)
        nxt = int(np.argmax(logits[0, -1]))
        if nxt == EOS_ID:
            break
        out_ids.append(nxt)
        dec.append(nxt)
        if len(dec) >= cfg.max_len:
            break
    return detokenize(vocab.decode(out_ids))
