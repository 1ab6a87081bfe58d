"""Strict span scoring (exact type + offsets, micro-F1) and the k-shot
episode loop: support sampling, describing, fine-tuning, prediction, scoring."""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .codec import parse_generated
from .data import OTHER_TYPE, AnnotatedSentence, Sentence, TargetSequence
from .descriptions import DescriptionConfig, DescriptionMap, describe_with_model
from .locate import SpanPrediction, locate
from .model.network import GEN_MAX_LEN
from .sampling import (
    KShotSample,
    build_finetune_instances,
    eg_pairs,
    sample_kshot,
    schema_prompt,
)

GenerateFn = Callable[[str, str], str]  # (prompt, source text) -> generated text


@dataclass(frozen=True)
class TypeScore:
    gold: int
    predicted: int
    matched: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    matched: int
    per_type: dict[str, TypeScore]


def _prf(matched: int, predicted: int, gold: int) -> tuple[float, float, float]:
    p = matched / predicted if predicted else 0.0
    r = matched / gold if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def score(
    gold: Mapping[str, Sequence[SpanPrediction]],
    pred: Mapping[str, Sequence[SpanPrediction]],
) -> EvalReport:
    """Exact (sentence id, type, start, end) matching, micro-averaged; each
    span matches at most once, so duplicate predictions are false positives.
    Predictions for unknown sentence ids are a fault."""
    unknown = set(pred) - set(gold)
    if unknown:
        raise ValueError(f"predictions for unknown sentence ids: {sorted(unknown)[:5]}")
    matched = 0
    gold_count = 0
    pred_count = 0
    by_type: dict[str, list[int]] = {}
    for sid, gold_spans_ in gold.items():
        g = Counter(s.key() for s in gold_spans_)
        p = Counter(s.key() for s in pred.get(sid, ()))
        gold_count += sum(g.values())
        pred_count += sum(p.values())
        both = g & p
        matched += sum(both.values())
        for col, counts in enumerate((g, p, both)):  # per type: gold, predicted, matched
            for key, n in counts.items():
                by_type.setdefault(key[0], [0, 0, 0])[col] += n
    precision, recall, f1 = _prf(matched, pred_count, gold_count)
    per_type = {}
    for t, (ng, np_, nm) in sorted(by_type.items()):
        tp, tr, tf = _prf(nm, np_, ng)
        per_type[t] = TypeScore(gold=ng, predicted=np_, matched=nm,
                                precision=tp, recall=tr, f1=tf)
    return EvalReport(precision=precision, recall=recall, f1=f1, gold=gold_count,
                      predicted=pred_count, matched=matched, per_type=per_type)


def corpus_schema(corpus: Iterable[AnnotatedSentence]) -> list[str]:
    """The schema of a run given none: every non-`other` type the corpus's
    mentions carry, sorted."""
    return sorted({t for s in corpus for m in s.mentions for t in m.types if t != OTHER_TYPE})


def gold_spans(sent: AnnotatedSentence, schema_types: Sequence[str]) -> list[SpanPrediction]:
    """Character spans of the gold mentions, assigned by the same i-th
    occurrence rule predictions go through.

    A mention matching several schema types yields one clause per type, all
    with the same surface, so clauses beyond the surface's occurrence count
    have no consistent offset. Generated text cannot express those either, so
    they are excluded from the gold set rather than treated as a fault; the
    ceiling F1 of a perfect generator stays 1.0.
    """
    target = TargetSequence(task="EG", pairs=eg_pairs(sent, list(schema_types)))
    spans, _ = locate(sent.sentence, target)
    return spans


def predict_spans(
    generate_fn: GenerateFn, sentence: Sentence, prompt_text: str
) -> tuple[list[SpanPrediction], list[str], list[tuple[str, str]]]:
    """Generate -> parse -> locate for one sentence: `locate_generated` of
    the EG text that `generate_fn` answers for `sentence`."""
    return locate_generated(sentence, generate_fn(prompt_text, sentence.text))


def locate_generated(
    sentence: Sentence, generated: str
) -> tuple[list[SpanPrediction], list[str], list[tuple[str, str]]]:
    """The one parse -> locate path: the spans of the EG text `generated` for
    `sentence`, with the parse diagnostics and the pairs `locate` could not
    place."""
    parsed = parse_generated("EG", generated)
    spans, unlocated = locate(sentence, parsed.target)
    return spans, parsed.diagnostics, unlocated


# ---- episode protocol ----

EpisodeFactory = Callable[[KShotSample, Sequence[str], int], tuple[GenerateFn, DescriptionMap]]


@dataclass(frozen=True)
class EpisodeFailure:
    run: int
    message: str


@dataclass(frozen=True)
class EpisodeReport:
    k: int
    runs: int
    base_seed: int
    f1_values: tuple[float, ...]
    mean_f1: float
    std_f1: float
    per_run: tuple[EvalReport, ...]
    failures: tuple[EpisodeFailure, ...]

    def to_dict(self) -> dict:  # perfbench serializes a report by this name
        return dataclasses.asdict(self)


def run_episodes(
    train_corpus: Sequence[AnnotatedSentence],
    test_corpus: Sequence[AnnotatedSentence],
    schema_types: Sequence[str],
    k: int,
    runs: int,
    base_seed: int,
    episode_factory: EpisodeFactory,
) -> EpisodeReport:
    """Per run r: sample a k-shot support with seed base_seed + r, let the
    factory produce a fine-tuned generator plus type descriptions, predict on
    the test split, score. A failed run is recorded and the loop continues.
    Before any run, an empty split, or a test sentence with the id and text of
    a training sentence, raises ValueError: the test split is held out."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not train_corpus:
        raise ValueError("train_corpus is empty")
    if not test_corpus:
        raise ValueError("test_corpus is empty")
    seen = {(s.id, s.text) for s in train_corpus}
    shared = next((s for s in test_corpus if (s.id, s.text) in seen), None)
    if shared is not None:
        raise ValueError(f"test_corpus holds training sentence {shared.id!r} (same id and text)")
    reports: list[EvalReport] = []
    failures: list[EpisodeFailure] = []
    gold = {sent.id: gold_spans(sent, schema_types) for sent in test_corpus}
    for r in range(runs):
        seed = base_seed + r
        try:
            support = sample_kshot(train_corpus, k, schema_types, rng_seed=seed)
            generate_fn, desc_map = episode_factory(support, schema_types, seed)
            prompt = schema_prompt(schema_types, desc_map)
            pred = {s.id: predict_spans(generate_fn, s.sentence, prompt)[0] for s in test_corpus}
            reports.append(score(gold, pred))
        except Exception as exc:  # noqa: BLE001 - episode isolation is the contract
            failures.append(EpisodeFailure(run=r, message=f"{type(exc).__name__}: {exc}"))
    f1s = tuple(rep.f1 for rep in reports)
    mean = sum(f1s) / len(f1s) if f1s else 0.0
    std = (sum((x - mean) ** 2 for x in f1s) / len(f1s)) ** 0.5 if f1s else 0.0
    return EpisodeReport(k=k, runs=runs, base_seed=base_seed, per_run=tuple(reports),
                         f1_values=f1s, mean_f1=mean, std_f1=std, failures=tuple(failures))


def model_episode_factory(
    base_params: dict,
    mcfg,
    vocab,
    finetune_cfg,
    desc_cfg: DescriptionConfig | None = None,
    gen_max_len: int = GEN_MAX_LEN,
) -> EpisodeFactory:
    """The real pipeline: describe the support with the pretrained model's MD
    task in one batched decode, filter, fine-tune a copy on full-schema
    instances, and return a per-sentence greedy generator."""
    # bound as they are when the factory is built
    from .model import clone_params, generate, generate_many, train

    desc_cfg = desc_cfg or DescriptionConfig()
    describe_fn = partial(generate_many, base_params, mcfg, vocab, max_len=gen_max_len)

    def factory(support: KShotSample, schema_types: Sequence[str], run_seed: int):
        desc_map, _ = describe_with_model(support.sentences, describe_fn, desc_cfg)
        params = clone_params(base_params)
        instances = build_finetune_instances(support.sentences, schema_types, desc_map)
        tcfg = dataclasses.replace(finetune_cfg, seed=run_seed)
        train(params, instances, vocab, mcfg, tcfg)
        return partial(generate, params, mcfg, vocab, max_len=gen_max_len), desc_map

    return factory
