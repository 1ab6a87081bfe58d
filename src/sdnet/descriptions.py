"""Type descriptions: co-occurrence mining, model-based describing, fusion and
other-frequency filtering. No random draws: sampling.py subsamples them."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .codec import is_name, parse_generated, read_entry, serialize_prompt_md
from .data import (OTHER_TYPE, AnnotatedSentence, RowError, distinct_ids, iter_jsonl, ordered_unique_surfaces,
                   string_field, string_list, write_jsonl)

DescriptionMap = dict[str, tuple[str, ...]]
# (prompts, source texts) -> one generated text per row; a bad row raises RowError
GenerateManyFn = Callable[[Sequence[str], Sequence[str]], list[str]]


@dataclass(frozen=True)
class DescriptionConfig:
    other_threshold: float = 0.5
    rng_seed: int = 0  # read by nothing; kept for callers that still pass it (perfbench)

    def __post_init__(self) -> None:
        if not (0.0 <= self.other_threshold <= 1.0):
            raise ValueError("other_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class FilterReport:
    frequencies: dict[str, float]
    filtered: tuple[str, ...]


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


def apply_filtering(
    per_type: Mapping[str, Sequence[tuple[str, ...]]], cfg: DescriptionConfig
) -> tuple[DescriptionMap, FilterReport]:
    """Fuse each type's mention descriptions (one concept tuple per described
    mention) into the union of their concepts, in first-seen order, without
    `other`, the type's own name, and generated concepts that are not names of
    the prompt grammar (`is_name`), which no description file may hold. A type
    whose other-frequency (the share of `other`-only descriptions) strictly
    exceeds the threshold maps to the empty description instead (bare type
    name in prompts)."""
    out: DescriptionMap = {}
    frequencies: dict[str, float] = {}
    filtered: list[str] = []
    for type_id, descriptions in per_type.items():
        if not descriptions or not all(descriptions):
            raise ValueError(f"type {type_id!r} has no mention descriptions or an empty one")
        freq = sum(1 for d in descriptions if d == (OTHER_TYPE,)) / len(descriptions)
        frequencies[type_id] = freq
        fused: dict[str, None] = {}
        if freq > cfg.other_threshold:
            filtered.append(type_id)
        else:
            for concepts in descriptions:
                for c in concepts:
                    if c != OTHER_TYPE and c != type_id and is_name(c):
                        fused.setdefault(c)
        out[type_id] = tuple(fused)
    return out, FilterReport(frequencies=frequencies, filtered=tuple(filtered))


def describe_with_model(
    corpus: Iterable[AnnotatedSentence],
    generate_fn: GenerateManyFn,
    cfg: DescriptionConfig,
) -> tuple[DescriptionMap, FilterReport]:
    """Run the mention-describing task over gold mentions, in MD prompt order,
    with one `generate_fn` call for every sentence that has a mention, and
    fuse the parsed concept descriptions per gold type, then filter. A row the
    generator rejects raises ValueError naming its sentence id."""
    described = [s for s in corpus if s.mentions]
    prompts = [serialize_prompt_md(tuple(surface for surface, _ in ordered_unique_surfaces(sent)))
               for sent in described]
    try:
        outputs = generate_fn(prompts, [s.text for s in described])
    except RowError as exc:
        raise ValueError(f"sentence {described[exc.row].id!r}: {exc.reason}") from exc
    per_type: dict[str, list[tuple[str, ...]]] = {}
    for sent, text in zip(described, outputs, strict=True):
        concepts_of = {surface: labels for surface, labels in parse_generated("MD", text).target.pairs}
        for m in sent.mentions:
            concepts = concepts_of.get(m.surface)
            if not concepts:
                continue
            for t in m.types:
                per_type.setdefault(t, []).append(concepts)
    return apply_filtering(per_type, cfg)


def write_description_map(
    path: str | Path, desc_map: DescriptionMap, filtered: Iterable[str] = ()
) -> None:
    filtered_set = set(filtered)
    write_jsonl(path, (
        {"type": type_id, "concepts": list(concepts), "filtered": type_id in filtered_set}
        for type_id, concepts in desc_map.items()
    ))


def _filtered_flag(raw: dict) -> bool:
    """The record's `filtered` field, a bool (absent reads as False); anything
    else raises TypeError naming the field, as "no" would otherwise read true."""
    value = raw.get("filtered", False)
    if not isinstance(value, bool):
        raise TypeError(f"field 'filtered' must be a bool, got {value!r}")
    return value


def _description_from_record(raw: dict) -> tuple[str, tuple[str, ...], bool]:
    """A record's type, concepts and filtered flag; an entry that
    `codec.read_entry` rejects raises ValueError."""
    entry = read_entry(string_field(raw["type"], "type"), string_list(raw["concepts"], "concepts"))
    return entry.type_id, entry.concepts, _filtered_flag(raw)


def read_description_map(path: str | Path) -> tuple[DescriptionMap, set[str]]:
    """A file's description map and filtered types; a repeated type, or a
    record `_description_from_record` rejects, is a format error naming
    `path:line`."""
    rows = list(iter_jsonl(path, distinct_ids(_description_from_record, itemgetter(0), "type")))
    return {t: concepts for t, concepts, _ in rows}, {t for t, _, filtered in rows if filtered}
