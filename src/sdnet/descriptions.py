"""Type descriptions: co-occurrence mining, model-based describing, fusion,
concept sampling, and other-frequency filtering."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .codec import parse_generated, serialize_prompt_md
from .data import (OTHER_TYPE, AnnotatedSentence, ConceptDescription, PromptMD, iter_jsonl,
                   ordered_unique_surfaces, string_list, write_jsonl)

DescriptionMap = dict[str, tuple[str, ...]]
GenerateFn = Callable[[str, str], str]  # (prompt, source text) -> generated text


@dataclass(frozen=True)
class DescriptionConfig:
    max_concepts: int = 10
    other_threshold: float = 0.5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_concepts < 1:
            raise ValueError("max_concepts must be >= 1")
        if not (0.0 <= self.other_threshold <= 1.0):
            raise ValueError("other_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class MentionDescription:
    surface: str
    concepts: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.concepts:
            raise ValueError(f"mention {self.surface!r} has an empty description")


@dataclass(frozen=True)
class FilterReport:
    frequencies: dict[str, float]
    filtered: tuple[str, ...]


def stable_draw_key(*parts: str | int) -> int:
    """Process-stable integer key for seeded sampling (unlike hash())."""
    return zlib.crc32("\x1f".join(str(p) for p in parts).encode("utf-8"))


def build_cooccurrence_descriptions(corpus: Iterable[AnnotatedSentence]) -> DescriptionMap:
    """Each type collects the other types it shares a mention's type set with,
    in first-co-occurrence order; `other` and the type itself are excluded."""
    out: dict[str, list[str]] = {}
    for sent in corpus:
        for mention in sent.mentions:
            for t in mention.types:
                if t == OTHER_TYPE:
                    continue
                seen = out.setdefault(t, [])
                for u in mention.types:
                    if u != t and u != OTHER_TYPE and u not in seen:
                        seen.append(u)
    return {t: tuple(concepts) for t, concepts in out.items()}


def sample_concepts(
    type_id: str, full: Sequence[str], cfg: DescriptionConfig, draw_key: int
) -> ConceptDescription:
    """At most max_concepts concepts, in input order; over-full collections are
    subsampled by a generator keyed on (rng_seed, draw_key)."""
    if len(full) <= cfg.max_concepts:
        return ConceptDescription(type_id=type_id, concepts=tuple(full))
    rng = np.random.default_rng([cfg.rng_seed, draw_key])
    picked = sorted(rng.choice(len(full), size=cfg.max_concepts, replace=False).tolist())
    return ConceptDescription(type_id=type_id, concepts=tuple(full[i] for i in picked))


def fuse_mention_descriptions(
    per_type: Mapping[str, Sequence[MentionDescription]]
) -> DescriptionMap:
    """Union of concepts per type in first-seen order, excluding `other` and the
    type's own identifier."""
    out: DescriptionMap = {}
    for type_id, descriptions in per_type.items():
        fused: list[str] = []
        for desc in descriptions:
            for c in desc.concepts:
                if c != OTHER_TYPE and c != type_id and c not in fused:
                    fused.append(c)
        out[type_id] = tuple(fused)
    return out


def apply_filtering(
    per_type: Mapping[str, Sequence[MentionDescription]], cfg: DescriptionConfig
) -> tuple[DescriptionMap, FilterReport]:
    """Types whose other-frequency strictly exceeds the threshold map to the
    empty description (bare type name in prompts); the rest fuse their
    non-`other` descriptions."""
    out: DescriptionMap = {}
    frequencies: dict[str, float] = {}
    filtered: list[str] = []
    for type_id, descriptions in per_type.items():
        if not descriptions:
            raise ValueError(f"type {type_id!r} has no mention descriptions")
        freq = sum(1 for d in descriptions if d.concepts == (OTHER_TYPE,)) / len(descriptions)
        frequencies[type_id] = freq
        if freq > cfg.other_threshold:
            out[type_id] = ()
            filtered.append(type_id)
        else:
            kept = [d for d in descriptions if d.concepts != (OTHER_TYPE,)]
            out[type_id] = fuse_mention_descriptions({type_id: kept})[type_id]
    return out, FilterReport(frequencies=frequencies, filtered=tuple(filtered))


def describe_with_model(
    corpus: Iterable[AnnotatedSentence],
    generate_fn: GenerateFn,
    cfg: DescriptionConfig,
) -> tuple[DescriptionMap, FilterReport]:
    """Run the mention-describing task over gold mentions, in MD prompt order,
    and fuse the parsed concept descriptions per gold type, then filter."""
    per_type: dict[str, list[MentionDescription]] = {}
    for sent in corpus:
        surfaces = tuple(surface for surface, _ in ordered_unique_surfaces(sent))
        if not surfaces:
            continue
        prompt = serialize_prompt_md(PromptMD(targets=surfaces))
        parsed = parse_generated("MD", generate_fn(prompt, sent.text))
        described = {surface: labels for surface, labels in parsed.target.pairs}
        for m in sent.mentions:
            concepts = described.get(m.surface)
            if not concepts:
                continue
            for t in m.types:
                per_type.setdefault(t, []).append(
                    MentionDescription(surface=m.surface, concepts=concepts)
                )
    return apply_filtering(per_type, cfg)


def write_description_map(
    path: str | Path, desc_map: DescriptionMap, filtered: Iterable[str] = ()
) -> None:
    filtered_set = set(filtered)
    write_jsonl(path, (
        {"type": type_id, "concepts": list(concepts), "filtered": type_id in filtered_set}
        for type_id, concepts in desc_map.items()
    ))


def read_description_map(path: str | Path) -> tuple[DescriptionMap, set[str]]:
    rows = list(iter_jsonl(path, lambda r: (r["type"], string_list(r["concepts"], "concepts"),
                                            r.get("filtered"))))
    return {t: concepts for t, concepts, _ in rows}, {t for t, _, filtered in rows if filtered}
