"""Training-instance construction: pretraining MD/EG sampling, fine-tuning
schema prompts, and k-shot support-set selection. Every seeded draw of
instance construction happens here, keyed by `stable_draw_key`."""

from __future__ import annotations

import math
import zlib
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
    ordered_unique_surfaces,
    string_field,
    write_jsonl,
)
from .descriptions import DescriptionMap


def stable_draw_key(*parts: str | int) -> int:
    """Process-stable integer key for seeded sampling (unlike hash())."""
    return zlib.crc32("\x1f".join(str(p) for p in parts).encode("utf-8"))


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
    """One prompt/input/target triple. The builders below serialize targets
    that re-parse cleanly by construction; `instance_from_record` checks the
    targets read from outside."""

    task: Task
    prompt_text: str
    input_text: str
    target_text: str

    def __post_init__(self) -> None:
        prompt_body(self.task, self.prompt_text)


def make_md_instance(s: AnnotatedSentence, cfg: SamplerConfig, draw_key: int) -> TrainingInstance:
    if not s.mentions:
        raise ValueError(f"sentence {s.id!r} has no mentions")
    candidates = ordered_unique_surfaces(s)
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


class _EgSampler:
    """EG sampling state shared by every instance of one call: the candidate
    negative types and a table of the prompt entries of types whose
    descriptions fit `max_concepts`. Such an entry draws nothing, so one
    serves every instance; an over-full description is subsampled per
    instance, keyed on the instance and the type, in input order."""

    def __init__(self, dictionary: TypeDictionary, desc: DescriptionMap, cfg: SamplerConfig) -> None:
        self.types = dictionary.types(include_other=False)
        self.desc = desc
        self.cfg = cfg
        self.fitting: dict[str, ConceptDescription] = {}

    def _entry(self, t: str, draw_key: int) -> ConceptDescription:
        entry = self.fitting.get(t)
        if entry is None:
            full = self.desc.get(t, ())
            if len(full) > self.cfg.max_concepts:
                rng = np.random.default_rng([self.cfg.rng_seed, stable_draw_key(draw_key, t)])
                picked = sorted(rng.choice(len(full), size=self.cfg.max_concepts, replace=False).tolist())
                return ConceptDescription(type_id=t, concepts=tuple(full[i] for i in picked))
            entry = self.fitting[t] = ConceptDescription(type_id=t, concepts=tuple(full))
        return entry

    def instance(self, s: AnnotatedSentence, sentence_types: list[str], draw_key: int) -> TrainingInstance:
        cfg = self.cfg
        rng = np.random.default_rng([cfg.rng_seed, draw_key])
        n_pos = min(len(sentence_types), cfg.max_positive_types)
        positives = [sentence_types[i] for i in sorted(rng.choice(len(sentence_types), size=n_pos, replace=False).tolist())]
        pool = [t for t in self.types if t not in sentence_types]
        n_neg = min(len(pool), cfg.max_negative_types)
        negatives = [pool[i] for i in sorted(rng.choice(len(pool), size=n_neg, replace=False).tolist())] if n_neg else []
        prompt_types = positives + negatives
        prompt_types = [prompt_types[i] for i in rng.permutation(len(prompt_types)).tolist()]
        prompt = PromptEG(entries=tuple(self._entry(t, draw_key) for t in prompt_types))
        target = TargetSequence(task="EG", pairs=eg_pairs(s, positives))
        return TrainingInstance(
            task="EG",
            prompt_text=serialize_prompt_eg(prompt),
            input_text=s.text,
            target_text=serialize_target(target),
        )


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
    return _EgSampler(dictionary, desc, cfg).instance(s, sentence_types, draw_key)


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
    eg = _EgSampler(dictionary, desc, cfg)
    out: list[TrainingInstance] = []
    for sent in corpus:
        if not sent.mentions:
            continue
        # the MD draw happens only when md_target_fraction < 1
        md_key = stable_draw_key(sent.id, "MD") if cfg.md_target_fraction < 1 else 0
        out.append(make_md_instance(sent, cfg, md_key))
        sentence_types = present_types(sent)
        if sentence_types:
            out.append(eg.instance(sent, sentence_types, stable_draw_key(sent.id, "EG")))
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
    """The instance a record holds; raises ValueError when its target does not
    re-parse cleanly."""
    inst = TrainingInstance(*(string_field(raw[k], k) for k in ("task", "prompt", "input", "target")))
    parsed = parse_generated(inst.task, inst.target_text)
    if parsed.diagnostics:
        raise ValueError(f"target does not re-parse cleanly: {parsed.diagnostics}")
    return inst


def write_instances_jsonl(path: str | Path, instances: Iterable[TrainingInstance]) -> None:
    write_jsonl(path, map(instance_to_record, instances))


def read_instances_jsonl(path: str | Path) -> list[TrainingInstance]:
    return list(iter_jsonl(path, instance_from_record))
