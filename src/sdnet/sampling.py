"""Training-instance construction: pretraining MD/EG sampling, fine-tuning
schema prompts, and k-shot support-set selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .codec import parse_generated, prompt_body, serialize_prompt_eg, serialize_prompt_md, serialize_target
from .data import (
    OTHER_TYPE,
    AnnotatedSentence,
    ConceptDescription,
    PromptEG,
    PromptMD,
    TargetSequence,
    Task,
    TypeDictionary,
    iter_jsonl,
    mention_order_key,
    write_jsonl,
)
from .descriptions import DescriptionConfig, DescriptionMap, sample_concepts, stable_draw_key


@dataclass(frozen=True)
class SamplerConfig:
    rng_seed: int = 0
    md_target_fraction: float = 1.0
    max_positive_types: int = 5
    max_negative_types: int = 3
    max_concepts: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.md_target_fraction <= 1.0):
            raise ValueError("md_target_fraction must lie in (0, 1]")
        if self.max_positive_types < 1 or self.max_negative_types < 0 or self.max_concepts < 1:
            raise ValueError("bad sampler bounds")


@dataclass(frozen=True)
class TrainingInstance:
    task: Task
    prompt_text: str
    input_text: str
    target_text: str

    def __post_init__(self) -> None:
        prompt_body(self.task, self.prompt_text)
        parsed = parse_generated(self.task, self.target_text)
        if parsed.diagnostics:
            raise ValueError(f"target does not re-parse cleanly: {parsed.diagnostics}")


def _ordered_unique_surfaces(s: AnnotatedSentence) -> list[tuple[str, tuple[str, ...]]]:
    """Unique surfaces in first-occurrence order, each with the union of the
    type sets of its mentions."""
    merged: dict[str, list[str]] = {}
    for m in s.mentions:
        types = merged.setdefault(m.surface, [])
        for t in m.types:
            if t not in types:
                types.append(t)
    surfaces = sorted(merged, key=lambda surf: mention_order_key(s.text, surf))
    return [(surf, tuple(merged[surf])) for surf in surfaces]


def make_md_instance(s: AnnotatedSentence, cfg: SamplerConfig, draw_key: int) -> TrainingInstance:
    if not s.mentions:
        raise ValueError(f"sentence {s.id!r} has no mentions")
    candidates = _ordered_unique_surfaces(s)
    want = math.ceil(cfg.md_target_fraction * len(candidates))
    if want < len(candidates):
        rng = np.random.default_rng([cfg.rng_seed, draw_key])
        picked = sorted(rng.choice(len(candidates), size=want, replace=False).tolist())
        candidates = [candidates[i] for i in picked]
    prompt = PromptMD(targets=tuple(surf for surf, _ in candidates))
    target = TargetSequence(task="MD", pairs=tuple(candidates))
    return TrainingInstance(
        task="MD",
        prompt_text=serialize_prompt_md(prompt),
        input_text=s.text,
        target_text=serialize_target(target),
    )


def _eg_prompt(types: Sequence[str], desc: DescriptionMap, cfg: SamplerConfig, draw_key: int) -> str:
    desc_cfg = DescriptionConfig(max_concepts=cfg.max_concepts, rng_seed=cfg.rng_seed)
    entries = tuple(
        sample_concepts(t, desc.get(t, ()), desc_cfg, stable_draw_key(draw_key, t)) for t in types
    )
    return serialize_prompt_eg(PromptEG(entries=entries))


def eg_pairs(
    s: AnnotatedSentence, positives: Sequence[str]
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """One clause per (mention, matched positive type), mentions in textual
    order, adjacent clauses in positive-type order."""
    mentions = sorted(s.mentions, key=lambda m: mention_order_key(s.text, m.surface))
    pairs = []
    for m in mentions:
        for t in positives:
            if t in m.types:
                pairs.append((m.surface, (t,)))
    return tuple(pairs)


def present_types(sent: AnnotatedSentence) -> list[str]:
    """Non-`other` types carried by the sentence's mentions, first-seen order."""
    types: list[str] = []
    for m in sent.mentions:
        for t in m.types:
            if t != OTHER_TYPE and t not in types:
                types.append(t)
    return types


def schema_prompt(schema_types: Sequence[str], desc: DescriptionMap) -> str:
    """The full-schema EG prompt: every type with all of its concepts."""
    entries = tuple(ConceptDescription(type_id=t, concepts=desc.get(t, ())) for t in schema_types)
    return serialize_prompt_eg(PromptEG(entries=entries))


def make_eg_instance(
    s: AnnotatedSentence,
    dictionary: TypeDictionary,
    desc: DescriptionMap,
    cfg: SamplerConfig,
    draw_key: int,
) -> TrainingInstance:
    sentence_types = present_types(s)
    if not sentence_types:
        raise ValueError(f"sentence {s.id!r} has no non-{OTHER_TYPE!r} mention types")
    rng = np.random.default_rng([cfg.rng_seed, draw_key])
    n_pos = min(len(sentence_types), cfg.max_positive_types)
    positives = [sentence_types[i] for i in sorted(rng.choice(len(sentence_types), size=n_pos, replace=False).tolist())]
    pool = [t for t in dictionary.types(include_other=False) if t not in sentence_types]
    n_neg = min(len(pool), cfg.max_negative_types)
    negatives = [pool[i] for i in sorted(rng.choice(len(pool), size=n_neg, replace=False).tolist())] if n_neg else []
    prompt_types = list(positives) + list(negatives)
    prompt_types = [prompt_types[i] for i in rng.permutation(len(prompt_types)).tolist()]
    target = TargetSequence(task="EG", pairs=eg_pairs(s, positives))
    return TrainingInstance(
        task="EG",
        prompt_text=_eg_prompt(prompt_types, desc, cfg, draw_key),
        input_text=s.text,
        target_text=serialize_target(target),
    )


def make_finetune_instance(
    s: AnnotatedSentence, schema_types: Sequence[str], desc: DescriptionMap
) -> TrainingInstance:
    """Full-schema prompt, no negative sampling; empty target when the sentence
    has no gold mention typed within the schema."""
    if not schema_types:
        raise ValueError("schema_types must be non-empty")
    target = TargetSequence(task="EG", pairs=eg_pairs(s, list(schema_types)))
    return TrainingInstance(
        task="EG",
        prompt_text=schema_prompt(schema_types, desc),
        input_text=s.text,
        target_text=serialize_target(target),
    )


def build_pretrain_instances(
    corpus: Iterable[AnnotatedSentence],
    dictionary: TypeDictionary,
    desc: DescriptionMap,
    cfg: SamplerConfig,
) -> list[TrainingInstance]:
    """One MD and (where possible) one EG instance per sentence, in corpus
    order; draw keys derive from sentence ids so output is worker-independent."""
    out: list[TrainingInstance] = []
    for sent in corpus:
        if not sent.mentions:
            continue
        out.append(make_md_instance(sent, cfg, stable_draw_key(sent.id, "MD")))
        if present_types(sent):
            out.append(make_eg_instance(sent, dictionary, desc, cfg, stable_draw_key(sent.id, "EG")))
    return out


def build_finetune_instances(
    corpus: Iterable[AnnotatedSentence], schema_types: Sequence[str], desc: DescriptionMap
) -> list[TrainingInstance]:
    return [make_finetune_instance(sent, schema_types, desc) for sent in corpus]


@dataclass(frozen=True)
class KShotSample:
    sentences: tuple[AnnotatedSentence, ...]
    counts: dict[str, int]
    unsatisfied: tuple[str, ...]


def sample_kshot(
    corpus: Sequence[AnnotatedSentence], k: int, schema_types: Sequence[str], rng_seed: int
) -> KShotSample:
    """Greedy seeded pass: shuffle, then keep any sentence that raises a
    still-deficient type count; stop once every type reaches k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(corpus)).tolist()
    counts = {t: 0 for t in schema_types}
    picked: list[AnnotatedSentence] = []
    for idx in order:
        if all(c >= k for c in counts.values()):
            break
        sent = corpus[idx]
        present = {t for m in sent.mentions for t in m.types if t in counts}
        if any(counts[t] < k for t in present):
            picked.append(sent)
            for t in present:
                counts[t] += 1
    unsatisfied = tuple(t for t in schema_types if counts[t] < k)
    return KShotSample(sentences=tuple(picked), counts=counts, unsatisfied=unsatisfied)


def instance_to_record(inst: TrainingInstance) -> dict:
    return {
        "task": inst.task,
        "prompt": inst.prompt_text,
        "input": inst.input_text,
        "target": inst.target_text,
    }


def instance_from_record(raw: dict) -> TrainingInstance:
    return TrainingInstance(
        task=raw["task"],
        prompt_text=raw["prompt"],
        input_text=raw["input"],
        target_text=raw["target"],
    )


def write_instances_jsonl(path: str | Path, instances: Iterable[TrainingInstance]) -> None:
    write_jsonl(path, map(instance_to_record, instances))


def read_instances_jsonl(path: str | Path) -> list[TrainingInstance]:
    return [instance_from_record(raw) for raw in iter_jsonl(path)]
