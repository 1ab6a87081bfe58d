#!/usr/bin/env python3
"""Memorization experiment: train the small seq2seq on a seeded synthetic
corpus until it reproduces the annotations, then score the full
generate -> parse -> locate -> score pipeline and probe whether the prompt's
type set controls which mentions are generated.

The corpus comes from `perfbench/gen.py`, loaded relative to this file, so
the script runs from any directory:

    python scripts/memorization.py
    python scripts/memorization.py --sentences 80 --pretrain-steps 500
"""

from __future__ import annotations

import argparse
import importlib.util
import time
from dataclasses import dataclass, replace
from pathlib import Path

from sdnet.codec import parse_generated
from sdnet.data import AnnotatedSentence, TypeDictionary, annotated_from_record
from sdnet.descriptions import DescriptionMap, build_cooccurrence_descriptions
from sdnet.evaluation import EvalReport, gold_spans, locate_generated, schema_prompt, score
from sdnet.model import (
    FINETUNE,
    PRETRAIN,
    ModelConfig,
    build_vocab,
    generate_many,
    init_params,
    save_checkpoint,
    train,
)
from sdnet.model.tokenizer import Vocab
from sdnet.sampling import (SamplerConfig, build_pretrain_instances, make_finetune_instance,
                            present_types)

_GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("gen", _GEN_PATH)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

MAX_GEN = 32  # decoded tokens per answer: every target of the corpus fits


def generate_synthetic_corpus(
    n_sentences: int = 200, seed: int = 0
) -> tuple[list[AnnotatedSentence], tuple[str, ...]]:
    """The train records of `gen.synthetic_splits(seed, n_sentences, 0)`, read
    as annotated sentences, and the generator's schema."""
    train_records, _ = gen.synthetic_splits(seed, n_sentences, 0)
    return [annotated_from_record(r) for r in train_records], gen.SCHEMA


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


@dataclass(frozen=True)
class Memorized:
    """A model trained by `memorize`, with the corpus and descriptions it
    was trained on."""
    corpus: list[AnnotatedSentence]
    schema: tuple[str, ...]
    desc: DescriptionMap
    vocab: Vocab
    cfg: ModelConfig
    params: dict

    def decode(self, prompts: list[str], texts: list[str]) -> list[str]:
        return generate_many(self.params, self.cfg, self.vocab, prompts, texts, max_len=MAX_GEN)

    def full_schema_report(self) -> EvalReport:
        """Strict span scores of one batched full-schema decode of the corpus."""
        prompt = schema_prompt(self.schema, self.desc)
        outputs = self.decode([prompt] * len(self.corpus), [s.text for s in self.corpus])
        gold = {s.id: gold_spans(s, self.schema) for s in self.corpus}
        pred = {s.id: locate_generated(s.sentence, out)[0]
                for s, out in zip(self.corpus, outputs, strict=True)}
        return score(gold, pred)

    def control_probes(self) -> list[tuple[str, str, str]]:
        """(type, prompt, text) rows: for each of the first 30 sentences with
        two present types, its first two, each alone in the prompt."""
        rows = []
        for s in self.corpus[:30]:
            present = present_types(s)
            if len(present) >= 2:
                rows += [(t, schema_prompt([t], self.desc), s.text) for t in present[:2]]
        return rows

    def controllability(self) -> tuple[int, int]:
        """(conformant, checked) sentences of `control_probes`, decoded in one
        call: a sentence conforms when its two answers differ and each
        generates mentions of its prompt's type only."""
        rows = self.control_probes()
        outputs = self.decode([p for _, p, _ in rows], [text for _, _, text in rows])
        answers = [(t, out, {label for _, ls in parse_generated("EG", out).target.pairs for label in ls})
                   for (t, _, _), out in zip(rows, outputs, strict=True)]
        conformant = 0
        for (a, out_a, got_a), (b, out_b, got_b) in zip(answers[::2], answers[1::2]):
            if out_a != out_b and got_a and got_b and got_a <= {a} and got_b <= {b}:
                conformant += 1
        return conformant, len(answers) // 2


def memorize(n_sentences: int = 200, seed: int = 0, pretrain_steps: int = PRETRAIN.steps,
             finetune_epochs: int = FINETUNE.epochs, d_model: int = 64) -> Memorized:
    """The memorization recipe: co-occurrence descriptions, pretraining
    instances and the mixed-schema fine-tuning mix of the seeded corpus; a
    1-layer float32 model over their vocabulary, pretrained (seed + 1) and
    then fine-tuned (seed + 2)."""
    t0 = time.time()
    corpus, schema = generate_synthetic_corpus(n_sentences, seed=seed)
    desc = build_cooccurrence_descriptions(corpus)
    dictionary = TypeDictionary(entries={t: 10 for t in schema})
    pretrain_data = build_pretrain_instances(corpus, dictionary, desc,
                                             SamplerConfig(rng_seed=seed))
    finetune_data = mixed_schema_instances(corpus, schema, desc)

    vocab = build_vocab([text for inst in pretrain_data + finetune_data
                         for text in (inst.prompt_text, inst.input_text, inst.target_text)])
    cfg = ModelConfig(vocab_size=len(vocab.id_to_token), d_model=d_model,
                      n_layers=1, n_heads=4, d_ff=4 * d_model, max_len=64,
                      dtype="float32", seed=seed)
    params = init_params(cfg)
    print(f"corpus={len(corpus)} sentences, vocab={len(vocab.id_to_token)}, "
          f"pretrain={len(pretrain_data)} inst, finetune={len(finetune_data)} inst")

    train(params, pretrain_data, vocab, cfg,
          replace(PRETRAIN, steps=pretrain_steps, seed=seed + 1))
    print(f"pretrain done at {time.time() - t0:.0f}s")
    train(params, finetune_data, vocab, cfg,
          replace(FINETUNE, epochs=finetune_epochs, seed=seed + 2))
    print(f"finetune done at {time.time() - t0:.0f}s")
    return Memorized(corpus, schema, desc, vocab, cfg, params)


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
    run = memorize(args.sentences, args.seed, args.pretrain_steps, args.finetune_epochs,
                   args.d_model)
    report = run.full_schema_report()
    print(f"full-schema micro-F1 = {report.f1:.4f} "
          f"(P={report.precision:.4f} R={report.recall:.4f})")
    conformant, checked = run.controllability()
    print(f"prompt controllability: {conformant}/{checked} sentences type-conformant")

    if args.out:
        save_checkpoint(args.out, run.params, run.cfg, run.vocab,
                        extra={"mode": "memorization-demo", "f1": report.f1})
        print(f"checkpoint written to {args.out}")
    print(f"total {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
