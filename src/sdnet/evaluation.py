"""Strict span scoring (exact type + offsets, micro-F1) and the k-shot
episode loop: support sampling, describing, fine-tuning, prediction, scoring."""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .codec import parse_generated, serialize_target
from .data import AnnotatedSentence, TargetSequence
from .descriptions import DescriptionConfig, DescriptionMap, describe_with_model
from .locate import SpanPrediction, locate
from .sampling import (
    KShotSample,
    build_finetune_instances,
    eg_pairs,
    present_types,
    sample_kshot,
    schema_prompt,
)

GenerateFn = Callable[[str, str], str]


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
    gold_count: int
    predicted_count: int
    matched_count: int
    per_type: dict[str, TypeScore]

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "gold": self.gold_count,
            "predicted": self.predicted_count,
            "matched": self.matched_count,
            "per_type": {t: dataclasses.asdict(s) for t, s in self.per_type.items()},
        }


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
        for key, n in g.items():
            row = by_type.setdefault(key[0], [0, 0, 0])
            row[0] += n
        for key, n in p.items():
            row = by_type.setdefault(key[0], [0, 0, 0])
            row[1] += n
        for key, n in both.items():
            by_type[key[0]][2] += n
    precision, recall, f1 = _prf(matched, pred_count, gold_count)
    per_type = {}
    for t, (ng, np_, nm) in sorted(by_type.items()):
        tp, tr, tf = _prf(nm, np_, ng)
        per_type[t] = TypeScore(gold=ng, predicted=np_, matched=nm,
                                precision=tp, recall=tr, f1=tf)
    return EvalReport(precision=precision, recall=recall, f1=f1,
                      gold_count=gold_count, predicted_count=pred_count,
                      matched_count=matched, per_type=per_type)


def gold_spans(sent: AnnotatedSentence, schema_types: Sequence[str] | None = None) -> list[SpanPrediction]:
    """Character spans of the gold mentions, assigned by the same i-th
    occurrence rule predictions go through.

    A mention matching several schema types yields one clause per type, all
    with the same surface, so clauses beyond the surface's occurrence count
    have no consistent offset. Generated text cannot express those either, so
    they are excluded from the gold set rather than treated as a fault; the
    ceiling F1 of a perfect generator stays 1.0.
    """
    if schema_types is None:
        schema_types = present_types(sent)
    target = TargetSequence(task="EG", pairs=eg_pairs(sent, list(schema_types)))
    spans, _ = locate(sent.sentence, target)
    return spans


def predict_spans(
    generate_fn: GenerateFn, sent: AnnotatedSentence, prompt_text: str
) -> list[SpanPrediction]:
    parsed = parse_generated("EG", generate_fn(prompt_text, sent.text))
    spans, _ = locate(sent.sentence, parsed.target)
    return spans


def gold_pipeline_report(
    corpus: Iterable[AnnotatedSentence], schema_types: Sequence[str] | None = None
) -> EvalReport:
    """Serialize the gold targets, then parse -> locate -> score them against
    the directly-located gold spans: the end-to-end plumbing identity."""
    gold: dict[str, list[SpanPrediction]] = {}
    pred: dict[str, list[SpanPrediction]] = {}
    for sent in corpus:
        gold[sent.id] = gold_spans(sent, schema_types)
        types = schema_types if schema_types is not None else present_types(sent)
        text = serialize_target(TargetSequence(task="EG", pairs=eg_pairs(sent, list(types))))
        parsed = parse_generated("EG", text)
        spans, _ = locate(sent.sentence, parsed.target)
        pred[sent.id] = spans
    return score(gold, pred)


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
    per_run: tuple[EvalReport, ...]
    f1_values: tuple[float, ...]
    mean_f1: float
    std_f1: float
    failures: tuple[EpisodeFailure, ...]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "runs": self.runs,
            "base_seed": self.base_seed,
            "f1_values": list(self.f1_values),
            "mean_f1": self.mean_f1,
            "std_f1": self.std_f1,
            "per_run": [r.to_dict() for r in self.per_run],
            "failures": [dataclasses.asdict(f) for f in self.failures],
        }


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
    the test split, score. A failed run is recorded and the loop continues."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    reports: list[EvalReport] = []
    failures: list[EpisodeFailure] = []
    gold = {sent.id: gold_spans(sent, schema_types) for sent in test_corpus}
    for r in range(runs):
        seed = base_seed + r
        try:
            support = sample_kshot(train_corpus, k, schema_types, rng_seed=seed)
            generate_fn, desc_map = episode_factory(support, schema_types, seed)
            prompt = schema_prompt(schema_types, desc_map)
            pred = {sent.id: predict_spans(generate_fn, sent, prompt) for sent in test_corpus}
            reports.append(score(gold, pred))
        except Exception as exc:  # noqa: BLE001 - episode isolation is the contract
            failures.append(EpisodeFailure(run=r, message=f"{type(exc).__name__}: {exc}"))
    f1s = tuple(rep.f1 for rep in reports)
    if f1s:
        mean = sum(f1s) / len(f1s)
        std = (sum((x - mean) ** 2 for x in f1s) / len(f1s)) ** 0.5
    else:
        mean = 0.0
        std = 0.0
    return EpisodeReport(k=k, runs=runs, base_seed=base_seed, per_run=tuple(reports),
                         f1_values=f1s, mean_f1=mean, std_f1=std, failures=tuple(failures))


def model_episode_factory(
    base_params: dict,
    mcfg,
    vocab,
    finetune_cfg,
    desc_cfg: DescriptionConfig | None = None,
    gen_max_len: int = 64,
) -> EpisodeFactory:
    """The real pipeline: describe the support with the pretrained model's MD
    task, filter, fine-tune a copy on full-schema instances, decode greedily."""
    from .model import clone_params, generate, train  # late import keeps scorer model-free

    desc_cfg = desc_cfg or DescriptionConfig()

    def factory(support: KShotSample, schema_types: Sequence[str], run_seed: int):
        def base_generate(prompt: str, text: str) -> str:
            return generate(base_params, mcfg, vocab, prompt, text, max_len=gen_max_len)

        desc_map, _ = describe_with_model(support.sentences, base_generate, desc_cfg)
        params = clone_params(base_params)
        instances = build_finetune_instances(support.sentences, schema_types, desc_map)
        tcfg = dataclasses.replace(finetune_cfg, seed=run_seed)
        train(params, instances, vocab, mcfg, tcfg)

        def tuned_generate(prompt: str, text: str) -> str:
            return generate(params, mcfg, vocab, prompt, text, max_len=gen_max_len)

        return tuned_generate, desc_map

    return factory
