#!/usr/bin/env python3
"""Memorization experiment: train the small seq2seq on the synthetic corpus
until it reproduces the annotations, then score the full
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

from sdnet.data import TypeDictionary
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
from sdnet.synthetic import generate_synthetic_corpus


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
