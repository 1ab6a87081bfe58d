"""Training-instance construction: pretraining MD/EG sampling, fine-tuning
schema prompts, and k-shot support-set selection. Every seeded draw of
instance construction happens here, as a prefix of one `keyed_order` keyed
by `stable_draw_key`."""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .codec import parse_generated, prompt_body, serialize_prompt_eg, serialize_prompt_md, serialize_target
from .data import (
    OTHER_TYPE,
    AnnotatedSentence,
    ConceptDescription,
    TargetSequence,
    Task,
    TypeDictionary,
    check_at_least,
    iter_jsonl,
    ordered_unique_surfaces,
    string_field,
    write_jsonl,
)
from .descriptions import DescriptionMap


def stable_draw_key(*parts: str | int) -> int:
    """Process-stable integer key for seeded sampling (unlike hash())."""
    return zlib.crc32("\x1f".join(str(p) for p in parts).encode("utf-8"))


_WORDS = struct.Struct("<8Q")


def keyed_order(seed: int, key: int, stream: str, n: int) -> Iterator[int]:
    """The positions of range(n) in the order of a Fisher-Yates shuffle keyed
    on (seed, key, stream) and on nothing else, so the order is the same on
    every numpy and Python version and platform. Step i swaps position i with
    i + w_i % (n - i), where w_i is the (i % 8)-th little-endian 64-bit word
    of the 64-byte BLAKE2b digest of the UTF-8 text
    "{seed}\x1f{key}\x1f{stream}\x1f{i // 8}". Positions are drawn as they
    are taken and displaced ones live in a dict, so taking k of them costs
    O(k) whatever n is."""
    prefix = f"{seed}\x1f{key}\x1f{stream}\x1f"
    moved: dict[int, int] = {}
    words: tuple[int, ...] = ()
    for i in range(n):
        if i % 8 == 0:
            words = _WORDS.unpack(hashlib.blake2b(f"{prefix}{i // 8}".encode("utf-8"), digest_size=64).digest())
        j = i + words[i % 8] % (n - i)
        yield moved.get(j, j)
        moved[j] = moved.pop(i, i)


def keyed_sample(seed: int, key: int, stream: str, n: int, k: int) -> list[int]:
    """The first k positions of `keyed_order`, so every k gives a prefix of
    the full permutation."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} of {n}")
    return list(islice(keyed_order(seed, key, stream, n), k))


def _keyed_subset(seed: int, key: int, stream: str, n: int, k: int) -> list[int]:
    """k of range(n) in increasing order; all of them, with no hashing, when
    k >= n."""
    return list(range(n)) if k >= n else sorted(keyed_sample(seed, key, stream, n, k))


@dataclass(frozen=True)
class SamplerConfig:
    rng_seed: int = 0
    md_target_fraction: float = 1.0
    max_positive_types: int = 5
    max_negative_types: int = 3
    max_concepts: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.md_target_fraction <= 1.0):
            raise ValueError(f"md_target_fraction must lie in (0, 1], got {self.md_target_fraction}")
        check_at_least(self, 1, "max_positive_types", "max_concepts")
        check_at_least(self, 0, "max_negative_types")


@dataclass(frozen=True, slots=True)
class TrainingInstance:
    """One prompt/input/target triple. The builders below serialize prompts
    that start with their task's descriptor and targets that re-parse cleanly,
    by construction; `instance_from_record` checks the instances read from
    outside."""

    task: Task
    prompt_text: str
    input_text: str
    target_text: str


def make_md_instance(s: AnnotatedSentence, cfg: SamplerConfig, draw_key: int) -> TrainingInstance:
    """The MD instance of a sentence with at least one mention."""
    candidates = ordered_unique_surfaces(s)
    want = math.ceil(cfg.md_target_fraction * len(candidates))
    if want < len(candidates):
        candidates = [candidates[i] for i in _keyed_subset(cfg.rng_seed, draw_key, "MD", len(candidates), want)]
    target = TargetSequence(task="MD", pairs=tuple(candidates))
    return TrainingInstance(
        task="MD",
        prompt_text=serialize_prompt_md(tuple(surf for surf, _ in candidates)),
        input_text=s.text,
        target_text=serialize_target(target),
    )


def eg_pairs(
    s: AnnotatedSentence, positives: Sequence[str]
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """One clause per (mention, matched positive type), mentions in text
    order, adjacent clauses in positive-type order."""
    pairs = []
    for m in s.mentions:
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
    return serialize_prompt_eg(entries)


class _EgSampler:
    """EG sampling state shared by every instance of one call: the candidate
    negative types, and a table of the prompt entries of types whose
    descriptions fit `max_concepts`. Such an entry draws nothing, so one
    serves every instance; an over-full description is subsampled per
    instance, keyed on the instance and the type, in input order."""

    def __init__(self, dictionary: TypeDictionary, desc: DescriptionMap, cfg: SamplerConfig) -> None:
        self.types = dictionary.types()
        self.desc = desc
        self.cfg = cfg
        self.fitting: dict[str, ConceptDescription] = {}

    def _entry(self, t: str, draw_key: int) -> ConceptDescription:
        entry = self.fitting.get(t)
        if entry is None:
            full = self.desc.get(t, ())
            if len(full) > self.cfg.max_concepts:
                picked = _keyed_subset(self.cfg.rng_seed, stable_draw_key(draw_key, t), "concepts",
                                       len(full), self.cfg.max_concepts)
                return ConceptDescription(type_id=t, concepts=tuple(full[i] for i in picked))
            entry = self.fitting[t] = ConceptDescription(type_id=t, concepts=tuple(full))
        return entry

    def instance(self, s: AnnotatedSentence, sentence_types: list[str], draw_key: int) -> TrainingInstance:
        seed = self.cfg.rng_seed
        positives = [sentence_types[i] for i in _keyed_subset(seed, draw_key, "EG positives", len(sentence_types),
                                                              self.cfg.max_positive_types)]
        pool = [t for t in self.types if t not in sentence_types]
        prompt_types = positives + [pool[i] for i in _keyed_subset(seed, draw_key, "EG negatives", len(pool),
                                                                   self.cfg.max_negative_types)]
        n = len(prompt_types)
        prompt_types = [prompt_types[i] for i in keyed_sample(seed, draw_key, "EG order", n, n)]
        target = TargetSequence(task="EG", pairs=eg_pairs(s, positives))
        return TrainingInstance(
            task="EG",
            prompt_text=serialize_prompt_eg(tuple(self._entry(t, draw_key) for t in prompt_types)),
            input_text=s.text,
            target_text=serialize_target(target),
        )


def make_finetune_instance(
    s: AnnotatedSentence, schema_types: Sequence[str], desc: DescriptionMap
) -> TrainingInstance:
    """Full-schema prompt, no negative sampling; empty target when the sentence
    has no gold mention typed within the schema."""
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
    """Greedy seeded pass in keyed order, drawn only as far as it goes: keep
    any sentence that raises a still-deficient type count; stop once every
    type reaches k."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    counts = {t: 0 for t in schema_types}
    picked: list[AnnotatedSentence] = []
    for idx in keyed_order(rng_seed, 0, "kshot", len(corpus)):
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
    """The instance a record holds; raises ValueError when its prompt does not
    start with its task's descriptor or its target does not re-parse cleanly."""
    inst = TrainingInstance(*(string_field(raw[k], k) for k in ("task", "prompt", "input", "target")))
    prompt_body(inst.task, inst.prompt_text)
    parsed = parse_generated(inst.task, inst.target_text)
    if parsed.diagnostics:
        raise ValueError(f"target does not re-parse cleanly: {parsed.diagnostics}")
    return inst


def write_instances_jsonl(path: str | Path, instances: Iterable[TrainingInstance]) -> None:
    write_jsonl(path, map(instance_to_record, instances))


def read_instances_jsonl(path: str | Path) -> list[TrainingInstance]:
    return list(iter_jsonl(path, instance_from_record))
