"""Shared builders and oracles for the test suite."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np

from sdnet.codec import SEPARATOR, ConceptDescription, TargetSequence, is_name, prompt_body, serialize_target
from sdnet.corpus import ABBREVIATIONS, truncate_type_name
from sdnet.data import OTHER_TYPE, AnnotatedSentence, Sentence, TypeDictionary, TypedMention, annotated_from_record
from sdnet.evaluation import EpisodeReport, corpus_schema, run_episodes
from sdnet.model import ModelConfig, build_vocab, init_params
from sdnet.model.network import decoder_forward, encode_instances, encoder_forward, forward_loss, make_batch
from sdnet.model.tokenizer import (EOS_ID, PAD_ID, SPECIAL_TOKENS, Vocab, detokenize, encode_input,
                                   tokenize)
from sdnet.model.trainer import (BETA1, BETA2, EPS, WEIGHT_DECAY, StepLog, TrainConfig, lr_at,
                                 total_steps_for)
from sdnet.sampling import TrainingInstance, eg_pairs

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@cache
def memorization_script():
    """`scripts/memorization.py`, loaded as a module: the memorization recipe
    (`memorize`), its fine-tuning mix, and its reader of `perfbench/gen.py`'s
    seeded synthetic corpus (`generate_synthetic_corpus`; the generator is
    its `gen`)."""
    path = FIXTURES.parent / "scripts" / "memorization.py"
    spec = importlib.util.spec_from_file_location("memorization", path)
    script = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = script  # dataclasses resolve their module by name
    spec.loader.exec_module(script)
    return script


def synthetic_test_split(n_train: int, n_test: int, seed: int) -> list[AnnotatedSentence]:
    """The test split of `perfbench/gen.py`'s `synthetic_splits(seed, n_train,
    n_test)`, whose train split is `generate_synthetic_corpus(n_train, seed)`:
    no test text occurs in it."""
    _, test = memorization_script().gen.synthetic_splits(seed, n_train, n_test)
    return [annotated_from_record(r) for r in test]


def sent(sid: str, text: str, mentions: list[tuple[str, tuple[str, ...]]]) -> AnnotatedSentence:
    return AnnotatedSentence(
        sentence=Sentence(id=sid, text=text),
        mentions=tuple(TypedMention(surface=s, types=t) for s, t in mentions),
    )


def parse_prompt_md(text: str) -> tuple[str, ...]:
    """The mentions an MD prompt lists: the inverse of `serialize_prompt_md`."""
    return tuple(prompt_body("MD", text).split(SEPARATOR))


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


MICRO_SIZE = TrainConfig.micro_size  # the micro-batch size the tests run `forward_loss` at


def grad_rows(params, batch, micro_size: int = MICRO_SIZE) -> list[dict[str, np.ndarray]]:
    """One gradient dict per micro-batch of `batch`: the rows `forward_loss`
    and `micro_batch_losses` fill, as `train` allocates them."""
    return [{k: np.empty_like(v) for k, v in params.items()} for _ in range(0, len(batch), micro_size)]


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
    _, grads = forward_loss(params, cfg, batch, MICRO_SIZE, grad_rows(params, batch))
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
                losses.append(forward_loss(p2, cfg, batch, MICRO_SIZE, grad_rows(p2, batch))[0].total)
            fd = (-losses[0] + 8 * losses[1] - 8 * losses[2] + losses[3]) / (12 * h)
            an = float(g[idx])
            rel = abs(fd - an) / max(1e-6, abs(fd) + abs(an))
            rows.append((name, idx, fd, an, rel))
    return rows


def reference_tokenize(text: str) -> list[str]:
    """Each whitespace chunk peeled mark by mark: opening marks off its front,
    then trailing marks off its back, while more than one character is left;
    special tokens whole. The oracle `tokenize` and `token_bounds` must match."""
    tokens: list[str] = []
    for chunk in text.split():
        if chunk in SPECIAL_TOKENS:
            tokens.append(chunk)
            continue
        lead: list[str] = []
        while len(chunk) > 1 and chunk[0] in "([{":
            lead.append(chunk[0])
            chunk = chunk[1:]
        tail: list[str] = []
        while len(chunk) > 1 and chunk[-1] in ".,;:!?)]}":
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tokens


def reference_token_bounds(text: str) -> set[int]:
    """Token offsets chunk by chunk: each whitespace chunk's edges, and the
    edges of every mark the chunk rule peels off it, found by peeling the
    chunk in place. The oracle `token_bounds` must match."""
    bounds: set[int] = set()
    end = 0
    for chunk in text.split():
        start = text.index(chunk, end)
        end = start + len(chunk)
        lo, hi = 0, len(chunk)
        if chunk not in SPECIAL_TOKENS:
            while hi - lo > 1 and chunk[lo] in "([{":
                lo += 1
            while hi - lo > 1 and chunk[hi - 1] in ".,;:!?)]}":
                hi -= 1
        bounds.update(range(start, start + lo + 1))
        bounds.update(range(start + hi, end + 1))
    return bounds


def reference_build_vocab(texts) -> Vocab:
    """The vocabulary from tokenizing every text whole: the oracle for
    `build_vocab`, which tokenizes each distinct chunk once."""
    tokens = {tok for text in texts for tok in reference_tokenize(text)}
    kept = sorted(tok for tok in tokens if tok not in SPECIAL_TOKENS)
    return Vocab(id_to_token=SPECIAL_TOKENS + tuple(kept))


def reference_split_sentences(text: str) -> list[tuple[int, int]]:
    """The per-character scan: the oracle for `split_sentences`."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch in ".!?":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            boundary = j > i + 1 and j < n and (text[j].isupper() or text[j].isdigit())
            if boundary and ch == ".":
                tok_start = i
                while tok_start > 0 and not text[tok_start - 1].isspace():
                    tok_start -= 1
                if text[tok_start : i + 1] in ABBREVIATIONS:
                    boundary = False
            if boundary:
                spans.append((start, i + 1))
                start = j
                i = j
                continue
        i += 1
    if start < n:
        spans.append((start, n))
    trimmed: list[tuple[int, int]] = []
    for s, e in spans:
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if s < e:
            trimmed.append((s, e))
    return trimmed


def reference_build_type_dictionary(items, cfg, label_of=None) -> TypeDictionary:
    """Each item's claims resolved and counted on the spot: the oracle for
    `build_type_dictionary` over `claimed_types`."""
    counts: Counter[str] = Counter()
    for item in items:
        names = set()
        for value in item.claim_values():
            name = label_of.get(value, value) if label_of is not None else value
            t = truncate_type_name(name, cfg)
            if is_name(t):
                names.add(t)
        counts.update(names)
    kept = {name: n for name, n in counts.items() if n >= cfg.min_type_instances}
    return TypeDictionary(entries=kept, min_count=cfg.min_type_instances, max_tokens=cfg.max_type_tokens)


def reference_entity_types(item, dictionary, cfg, label_of=None) -> tuple[str, ...]:
    """One item's dictionary types, resolved from its claims on every call, in
    claim order, with the `other` fallback: the oracle for a `type_table` entry."""
    if item is None:
        return (OTHER_TYPE,)
    out: list[str] = []
    for value in item.claim_values():
        name = label_of.get(value, value) if label_of is not None else value
        if not name.strip():
            continue
        t = truncate_type_name(name, cfg)
        if t in dictionary and t != OTHER_TYPE and t not in out:
            out.append(t)
    return tuple(out) if out else (OTHER_TYPE,)


def reference_keyed_shuffle(seed: int, key: int, stream: str, n: int) -> list[int]:
    """The whole keyed Fisher-Yates shuffle of range(n), swapped in a dense
    list: step i swaps slots i and i + w % (n - i), where w is bytes 8(i % 8)
    to 8(i % 8) + 8, read little-endian, of the 64-byte BLAKE2b digest of
    "seed 0x1f key 0x1f stream 0x1f i // 8". The oracle `keyed_sample` must
    match on every prefix."""
    slots = list(range(n))
    for i in range(n):
        message = "\x1f".join((str(seed), str(key), stream, str(i // 8))).encode("utf-8")
        digest = hashlib.blake2b(message, digest_size=64).digest()
        w = int.from_bytes(digest[8 * (i % 8): 8 * (i % 8) + 8], "little")
        j = i + w % (n - i)
        slots[i], slots[j] = slots[j], slots[i]
    return slots


def reference_sample_concepts(type_id: str, full, max_concepts: int, rng_seed: int,
                              draw_key: int) -> ConceptDescription:
    """At most max_concepts concepts, in input order; over-full collections keep
    the first max_concepts positions of the dense keyed shuffle on
    (rng_seed, draw_key, "concepts"). The oracle for an EG prompt entry, whose
    draw key is `stable_draw_key(instance key, type)`."""
    if len(full) <= max_concepts:
        return ConceptDescription(type_id=type_id, concepts=tuple(full))
    picked = sorted(reference_keyed_shuffle(rng_seed, draw_key, "concepts", len(full))[:max_concepts])
    return ConceptDescription(type_id=type_id, concepts=tuple(full[i] for i in picked))


def gold_echo_episodes(corpus: list[AnnotatedSentence], k: int, runs: int) -> list[EpisodeReport]:
    """`run_episodes` on each half of `corpus` held out from the other, so that
    every sentence is scored once, over the corpus's schema, through a factory
    whose generator answers each sentence with its serialized gold EG target:
    the end-to-end plumbing identity, which must score 1.0 on every run.
    Answers are keyed by text, so sentences sharing a text must share a
    target."""
    schema = corpus_schema(corpus)
    answers: dict[str, str] = {}
    for s in corpus:
        target = serialize_target(TargetSequence(task="EG", pairs=eg_pairs(s, schema)))
        assert answers.setdefault(s.text, target) == target, f"{s.id}: another target for its text"

    def factory(support, schema_types, run_seed):
        return (lambda prompt, text: answers[text]), {}

    half = len(corpus) // 2
    return [run_episodes(train, test, schema, k=k, runs=runs, base_seed=0, episode_factory=factory)
            for train, test in ((corpus[:half], corpus[half:]), (corpus[half:], corpus[:half]))]


def on_token_boundaries(text: str, start: int, end: int) -> bool:
    """Brute force: cutting `text` at `start` and at `end` leaves its tokens
    unchanged, so the span starts and ends between tokens."""
    return tokenize(text[:start]) + tokenize(text[start:end]) + tokenize(text[end:]) == tokenize(text)


def rewrite_checkpoint_meta(path, edit) -> None:
    """Replaces the metadata of the checkpoint at `path` by `edit` of it."""
    with np.load(path) as data:
        arrays = dict(data)
    meta = edit(json.loads(bytes(arrays["__meta__"]).decode("utf-8")))
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:  # a path not ending in .npz would get that suffix
        np.savez(fh, **arrays)


# edits of a checkpoint's metadata that `load_checkpoint` rejects, by the message naming the field
BAD_CHECKPOINT_META = {
    "config field 'd_model' must be int, got '8'": lambda m: {**m, "config": {**m["config"], "d_model": "8"}},
    "config field 'd_model' must be int, got 8.0": lambda m: {**m, "config": {**m["config"], "d_model": 8.0}},
    "checkpoint field 'vocab' must be a JSON array, got 5": lambda m: {**m, "vocab": 5},
    "missing checkpoint field 'config'": lambda m: {k: v for k, v in m.items() if k != "config"},
}


def batch_of(insts, vocab, cfg):
    return make_batch(encode_instances(insts, vocab, cfg), range(len(insts)))


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


def reference_adamw_step(params, grads, m, v, t: int, lr: float) -> None:
    """AdamW one tensor at a time, step `t` counted from 1; decoupled weight
    decay on matrices only."""
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for k, g in grads.items():
        m[k] *= BETA1
        m[k] += (1.0 - BETA1) * g
        v[k] *= BETA2
        v[k] += (1.0 - BETA2) * g * g
        update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + EPS)
        if params[k].ndim > 1:
            update = update + WEIGHT_DECAY * params[k]
        params[k] -= lr * update


def reference_train(params, instances, vocab, mcfg, tcfg) -> list[StepLog]:
    """The training loop one tensor at a time: a fresh gradient dict per step
    and a per-tensor AdamW update. The oracle the flat-buffer `train` must
    match; trains `params` in place."""
    rng = np.random.default_rng(tcfg.seed)
    n = len(instances)
    store = encode_instances(instances, vocab, mcfg)
    total = total_steps_for(tcfg, n)
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    log = []
    step = 0
    while step < total:
        order = rng.permutation(n).tolist()
        for b0 in range(0, n, tcfg.batch_size):
            if step >= total:
                break
            idx = order[b0 : b0 + tcfg.batch_size]
            batch = make_batch(store, idx)
            report, grads = forward_loss(params, mcfg, batch, tcfg.micro_size,
                                         grad_rows(params, batch, tcfg.micro_size))
            lr = lr_at(tcfg, step, total)
            reference_adamw_step(params, grads, m, v, step + 1, lr)
            log.append(StepLog(step=step, lr=lr, report=report))
            step += 1
    return log
