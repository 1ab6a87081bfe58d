#!/usr/bin/env python3
"""Memorization experiment: train the small seq2seq on a seeded synthetic
corpus until it reproduces the annotations, then score the full
generate -> parse -> locate -> score pipeline and probe whether the prompt's
type set controls which mentions are generated.

Run from the repository root:

    python scripts/memorization.py
    python scripts/memorization.py --sentences 80 --pretrain-steps 500
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace
from functools import partial

import numpy as np

from sdnet.data import AnnotatedSentence, Sentence, TypeDictionary, TypedMention
from sdnet.codec import parse_generated
from sdnet.descriptions import build_cooccurrence_descriptions
from sdnet.evaluation import gold_spans, predict_spans, schema_prompt, score
from sdnet.model import (
    FINETUNE,
    PRETRAIN,
    ModelConfig,
    build_vocab,
    generate,
    init_params,
    save_checkpoint,
    train,
)
from sdnet.sampling import (SamplerConfig, build_pretrain_instances, make_finetune_instance,
                            present_types)

# The synthetic corpus: short templated sentences over eight entity types,
# small enough to memorize in minutes yet exercising the full pipeline.

SCHEMA_TYPES = ("person", "city", "animal", "color", "fruit", "metal", "river", "game")

_POOLS: dict[str, tuple[str, ...]] = {
    "person": ("Alice", "Bob", "Carol", "David", "Emma", "Frank", "Grace",
               "Henry", "Irene", "Jack", "Karen", "Leo"),
    "city": ("Paris", "London", "Berlin", "Madrid", "Rome", "Vienna", "Oslo",
             "Dublin", "Prague", "Lisbon", "Athens", "Cairo"),
    "animal": ("fox", "owl", "bear", "wolf", "deer", "hawk", "otter", "lynx",
               "crane", "mole", "toad", "hare"),
    "color": ("amber", "violet", "teal", "ivory", "indigo", "coral", "olive",
              "slate", "beige", "maroon", "cyan", "magenta"),
    "fruit": ("apple", "pear", "plum", "mango", "grape", "melon", "cherry",
              "lemon", "peach", "kiwi", "fig", "banana"),
    "metal": ("iron", "copper", "zinc", "gold", "silver", "nickel", "tin",
              "cobalt", "brass", "steel", "bronze", "titanium"),
    "river": ("Danube", "Nile", "Amazon", "Rhine", "Volga", "Seine", "Thames",
              "Ganges", "Mekong", "Congo", "Loire", "Tiber"),
    "game": ("chess", "poker", "tennis", "soccer", "hockey", "golf", "rugby",
             "cricket", "darts", "billiards", "squash", "badminton"),
}

_TEMPLATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("{0} visited {1} with {2}.", ("person", "city", "person")),
    ("{0} saw a {1} near the {2}.", ("person", "animal", "river")),
    ("The {0} {1} pleased {2}.", ("color", "fruit", "person")),
    ("{0} played {1} in {2}.", ("person", "game", "city")),
    ("A {0} swam along the {1} at dusk.", ("animal", "river")),
    ("{0} bought {1} rings in {2}.", ("person", "metal", "city")),
    ("The {0} stand in {1} also sold {2} pans.", ("fruit", "city", "metal")),
    ("{0} painted the {1} gate {2}.", ("person", "city", "color")),
)


def generate_synthetic_corpus(
    n_sentences: int = 200, seed: int = 0
) -> tuple[list[AnnotatedSentence], tuple[str, ...]]:
    rng = np.random.default_rng(seed)
    corpus: list[AnnotatedSentence] = []
    for i in range(n_sentences):
        template, slot_types = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
        used: dict[str, list[str]] = {}
        fillers: list[str] = []
        for t in slot_types:
            pool = [s for s in _POOLS[t] if s not in used.get(t, ())]
            surface = pool[int(rng.integers(len(pool)))]
            used.setdefault(t, []).append(surface)
            fillers.append(surface)
        text = template.format(*fillers)
        for surface in fillers:
            if text.count(surface) != 1:
                raise AssertionError(f"surface {surface!r} not unique in {text!r}")
        mentions = tuple(TypedMention(surface=surf, types=(t,)) for surf, t in zip(fillers, slot_types))
        corpus.append(
            AnnotatedSentence(Sentence(id=f"syn-{i:04d}", text=text), mentions)
        )
    return corpus, SCHEMA_TYPES


def mixed_schema_instances(corpus, schema, desc):
    """Per sentence: the full schema, one present type alone, and one absent
    type with an empty target, so fine-tuning teaches prompt-set obedience."""
    out = []
    for i, sent in enumerate(corpus):
        out.append(make_finetune_instance(sent, schema, desc))
        present = present_types(sent)
        out.append(make_finetune_instance(sent, [present[i % len(present)]], desc))
        absent = [t for t in schema if t not in present]
        if absent:
            out.append(make_finetune_instance(sent, [absent[i % len(absent)]], desc))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--sentences", type=int, default=200)
    ap.add_argument("--pretrain-steps", type=int, default=PRETRAIN.steps)
    ap.add_argument("--finetune-epochs", type=int, default=FINETUNE.epochs)
    ap.add_argument("--d-model", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional checkpoint path")
    args = ap.parse_args(argv)

    t0 = time.time()
    corpus, schema = generate_synthetic_corpus(args.sentences, seed=args.seed)
    desc = build_cooccurrence_descriptions(corpus)
    dictionary = TypeDictionary(entries={t: 10 for t in schema})
    pretrain_data = build_pretrain_instances(corpus, dictionary, desc,
                                             SamplerConfig(rng_seed=args.seed))
    finetune_data = mixed_schema_instances(corpus, schema, desc)

    vocab = build_vocab([text for inst in pretrain_data + finetune_data
                         for text in (inst.prompt_text, inst.input_text, inst.target_text)])
    cfg = ModelConfig(vocab_size=len(vocab.id_to_token), d_model=args.d_model,
                      n_layers=1, n_heads=4, d_ff=4 * args.d_model, max_len=64,
                      dtype="float32", seed=args.seed)
    params = init_params(cfg)
    print(f"corpus={len(corpus)} sentences, vocab={len(vocab.id_to_token)}, "
          f"pretrain={len(pretrain_data)} inst, finetune={len(finetune_data)} inst")

    train(params, pretrain_data, vocab, cfg,
          replace(PRETRAIN, steps=args.pretrain_steps, seed=args.seed + 1))
    print(f"pretrain done at {time.time() - t0:.0f}s")
    train(params, finetune_data, vocab, cfg,
          replace(FINETUNE, epochs=args.finetune_epochs, seed=args.seed + 2))
    print(f"finetune done at {time.time() - t0:.0f}s")

    gen = partial(generate, params, cfg, vocab, max_len=32)
    prompt = schema_prompt(schema, desc)
    gold = {s.id: gold_spans(s, schema) for s in corpus}
    pred = {s.id: predict_spans(gen, s.sentence, prompt)[0] for s in corpus}
    report = score(gold, pred)
    print(f"full-schema micro-F1 = {report.f1:.4f} "
          f"(P={report.precision:.4f} R={report.recall:.4f})")

    conformant = checked = 0
    for s in corpus[:30]:
        present = present_types(s)
        if len(present) < 2:
            continue
        a, b = present[0], present[1]
        out_a = gen(schema_prompt([a], desc), s.text)
        out_b = gen(schema_prompt([b], desc), s.text)
        types_a = {t for _, ls in parse_generated("EG", out_a).target.pairs for t in ls}
        types_b = {t for _, ls in parse_generated("EG", out_b).target.pairs for t in ls}
        checked += 1
        if out_a != out_b and types_a and types_b and types_a <= {a} and types_b <= {b}:
            conformant += 1
    print(f"prompt controllability: {conformant}/{checked} sentences type-conformant")

    if args.out:
        save_checkpoint(args.out, params, cfg, vocab,
                        extra={"mode": "memorization-demo", "f1": report.f1})
        print(f"checkpoint written to {args.out}")
    print(f"total {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
