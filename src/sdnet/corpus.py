"""Corpus construction from simplified KB / wiki-page dumps.

Two passes: (1) build a type dictionary by counting distinct items per
(truncated) type label, (2) harvest anchor and self-label mentions per page,
split sentences, and emit AnnotatedSentence records. Both passes are pure per
record, so page-level parallelism with input-order merging is byte-stable.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .codec import surface_is_safe
from .data import (
    OTHER_TYPE,
    AnnotatedSentence,
    Sentence,
    TypeDictionary,
    TypedMention,
    mention_order_key,
)

PREPOSITION_STOPLIST = ("of", "in", "for", "on", "at", "by", "with", "from", "to")

ABBREVIATIONS = frozenset(
    {
        "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.", "Jr.", "Sr.", "Rev.",
        "J.K.", "U.S.", "U.K.", "U.N.", "E.U.", "D.C.",
        "e.g.", "i.e.", "etc.", "vs.", "cf.",
        "No.", "Vol.", "pp.", "Inc.", "Ltd.", "Co.", "Corp.",
    }
)


@dataclass(frozen=True)
class KbItem:
    item_id: str
    label: str
    aliases: tuple[str, ...] = ()
    instance_of: tuple[str, ...] = ()
    subclass_of: tuple[str, ...] = ()
    occupation: tuple[str, ...] = ()

    def claim_values(self) -> tuple[str, ...]:
        return self.instance_of + self.subclass_of + self.occupation


@dataclass(frozen=True)
class Anchor:
    surface: str
    target: str
    offset: int


@dataclass(frozen=True)
class WikiPage:
    title: str
    text: str
    anchors: tuple[Anchor, ...] = ()

    def __post_init__(self) -> None:
        for a in self.anchors:
            if self.text[a.offset : a.offset + len(a.surface)] != a.surface:
                raise ValueError(f"anchor {a.surface!r}@{a.offset} does not slice page text")


@dataclass(frozen=True)
class BuildConfig:
    min_type_instances: int = 5
    max_type_tokens: int = 3
    top_np_count: int = 3

    def __post_init__(self) -> None:
        if self.min_type_instances < 1 or self.max_type_tokens < 1 or self.top_np_count < 0:
            raise ValueError("bad corpus build config")


def truncate_type_name(name: str, cfg: BuildConfig) -> str:
    """Lower-case; names over max_type_tokens keep the prefix before the first
    stoplist preposition, clipped to max_type_tokens tokens."""
    tokens = name.lower().split()
    if not tokens:
        raise ValueError("empty type name")
    if len(tokens) <= cfg.max_type_tokens:
        return " ".join(tokens)
    prefix = tokens
    for i, tok in enumerate(tokens):
        if tok in PREPOSITION_STOPLIST:
            prefix = tokens[:i]
            break
    if not prefix:  # name starts with a preposition
        prefix = tokens
    return " ".join(prefix[: cfg.max_type_tokens])


def kb_from_record(raw: dict) -> KbItem:
    return KbItem(
        item_id=raw["id"],
        label=raw["label"],
        aliases=tuple(raw.get("aliases", ())),
        instance_of=tuple(raw.get("instance_of", ())),
        subclass_of=tuple(raw.get("subclass_of", ())),
        occupation=tuple(raw.get("occupation", ())),
    )


def page_from_record(raw: dict) -> WikiPage:
    anchors = tuple(
        Anchor(surface=a["surface"], target=a["target"], offset=a["offset"])
        for a in raw.get("anchors", ())
    )
    return WikiPage(title=raw["title"], text=raw["text"], anchors=anchors)


def read_kb_jsonl(path: str | Path, tally: Counter | None = None) -> dict[str, KbItem]:
    items: dict[str, KbItem] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                item = kb_from_record(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError):
                if tally is not None:
                    tally["malformed_kb_record"] += 1
                continue
            items[item.item_id] = item
    return items


def read_pages_jsonl(path: str | Path, tally: Counter | None = None) -> list[WikiPage]:
    pages: list[WikiPage] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                pages.append(page_from_record(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                if tally is not None:
                    tally["malformed_page_record"] += 1
    return pages


def build_type_dictionary(
    items: Iterable[KbItem], cfg: BuildConfig, label_of: Mapping[str, str] | None = None
) -> TypeDictionary:
    """Count distinct items per truncated type label; drop labels below the
    instance floor. Claim values naming a known item id resolve to that item's
    label, otherwise they are taken as literal type names."""
    counts: Counter[str] = Counter()
    for item in items:
        names = set()
        for value in item.claim_values():
            name = label_of.get(value, value) if label_of is not None else value
            if name.strip():
                names.add(truncate_type_name(name, cfg))
        counts.update(names)
    kept = {name: n for name, n in counts.items() if n >= cfg.min_type_instances}
    return TypeDictionary(entries=kept, min_count=cfg.min_type_instances, max_tokens=cfg.max_type_tokens)


def entity_types(
    item: KbItem | None,
    dictionary: TypeDictionary,
    cfg: BuildConfig,
    label_of: Mapping[str, str] | None = None,
) -> tuple[str, ...]:
    """Dictionary types claimed by the item, in claim order; `other` fallback."""
    if item is None:
        return (OTHER_TYPE,)
    out: list[str] = []
    for value in item.claim_values():
        name = label_of.get(value, value) if label_of is not None else value
        if not name.strip():
            continue
        t = truncate_type_name(name, cfg)
        if t in dictionary and t != OTHER_TYPE and t not in out:
            out.append(t)
    return tuple(out) if out else (OTHER_TYPE,)


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Sentence spans: boundary at .!? followed by whitespace and an
    uppercase/digit, unless the period closes a stoplisted abbreviation."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch in ".!?":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            boundary = j > i + 1 and j < n and (text[j].isupper() or text[j].isdigit())
            if boundary and ch == ".":
                tok_start = i
                while tok_start > 0 and not text[tok_start - 1].isspace():
                    tok_start -= 1
                if text[tok_start : i + 1] in ABBREVIATIONS:
                    boundary = False
            if boundary:
                spans.append((start, i + 1))
                start = j
                i = j
                continue
        i += 1
    if start < n:
        spans.append((start, n))
    trimmed: list[tuple[int, int]] = []
    for s, e in spans:
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if s < e:
            trimmed.append((s, e))
    return trimmed


def _self_label_occurrences(
    page: WikiPage, candidates: Iterable[str], top_np_count: int, taken: list[tuple[int, int]]
) -> list[tuple[int, str]]:
    """Occurrences of the page item's label/aliases, restricted to the
    top_np_count most frequent candidate phrases, skipping anchor overlaps."""
    occurrences: dict[str, list[int]] = {}
    for phrase in candidates:
        if not phrase or phrase in occurrences:
            continue
        found: list[int] = []
        pos = page.text.find(phrase)
        while pos >= 0:
            found.append(pos)
            pos = page.text.find(phrase, pos + len(phrase))
        if found:
            occurrences[phrase] = found
    ranked = sorted(occurrences, key=lambda p: (-len(occurrences[p]), occurrences[p][0], p))
    out: list[tuple[int, str]] = []
    for phrase in ranked[:top_np_count]:
        for pos in occurrences[phrase]:
            end = pos + len(phrase)
            if any(pos < te and ts < end for ts, te in taken):
                continue
            out.append((pos, phrase))
    return out


def harvest_mentions(
    page: WikiPage,
    dictionary: TypeDictionary,
    kb: Mapping[str, KbItem],
    cfg: BuildConfig,
    label_of: Mapping[str, str] | None = None,
    page_item: KbItem | None = None,
    tally: Counter | None = None,
) -> list[AnnotatedSentence]:
    def count(key: str) -> None:
        if tally is not None:
            tally[key] += 1

    located: list[tuple[int, str, tuple[str, ...]]] = []
    anchor_spans: list[tuple[int, int]] = []
    for a in page.anchors:
        target = kb.get(a.target)
        if target is None:
            count("unknown_anchor_target")
        located.append((a.offset, a.surface, entity_types(target, dictionary, cfg, label_of)))
        anchor_spans.append((a.offset, a.offset + len(a.surface)))
    if page_item is not None and cfg.top_np_count > 0:
        self_types = entity_types(page_item, dictionary, cfg, label_of)
        candidates = (page_item.label, *page_item.aliases)
        for pos, phrase in _self_label_occurrences(page, candidates, cfg.top_np_count, anchor_spans):
            located.append((pos, phrase, self_types))

    out: list[AnnotatedSentence] = []
    for idx, (s, e) in enumerate(split_sentences(page.text)):
        sent_text = page.text[s:e]
        mentions: list[TypedMention] = []
        for pos, surface, types in sorted(located, key=lambda m: m[0]):
            if not (s <= pos and pos + len(surface) <= e):
                if s < pos < e:  # starts inside but crosses the sentence end
                    count("cross_boundary_mention")
                continue
            if not surface_is_safe(surface):
                count("unsafe_surface_dropped")
                continue
            if not surface or surface != surface.strip():
                count("blank_surface_dropped")
                continue
            mentions.append(TypedMention(surface=surface, types=types))
        if not mentions:
            count("entity_free_sentence_dropped")
            continue
        mentions.sort(key=lambda m: mention_order_key(sent_text, m.surface))
        out.append(
            AnnotatedSentence(Sentence(id=f"{page.title}#{idx}", text=sent_text), tuple(mentions))
        )
    return out


@dataclass
class CorpusBuild:
    dictionary: TypeDictionary
    sentences: list[AnnotatedSentence]
    tally: Counter = field(default_factory=Counter)


def _harvest_chunk(args: tuple) -> tuple[list[AnnotatedSentence], Counter]:
    pages, dictionary, kb, cfg, label_of, page_item_ids = args
    tally: Counter = Counter()
    out: list[AnnotatedSentence] = []
    for page, item_id in zip(pages, page_item_ids):
        item = kb.get(item_id) if item_id is not None else None
        out.extend(harvest_mentions(page, dictionary, kb, cfg, label_of, item, tally))
    return out, tally


def build_corpus(
    kb_path: str | Path, pages_path: str | Path, cfg: BuildConfig, jobs: int = 1
) -> CorpusBuild:
    """Full pipeline; output is independent of `jobs` because pages are pure
    units of work merged in input order."""
    tally: Counter = Counter()
    kb = read_kb_jsonl(kb_path, tally)
    pages = read_pages_jsonl(pages_path, tally)
    label_of = {item.item_id: item.label for item in kb.values()}
    by_label: dict[str, str] = {}
    for item in kb.values():
        by_label.setdefault(item.label, item.item_id)
    dictionary = build_type_dictionary(kb.values(), cfg, label_of)

    page_item_ids = [by_label.get(p.title) for p in pages]
    if jobs <= 1 or len(pages) < 2:
        sentences, sub = _harvest_chunk((pages, dictionary, kb, cfg, label_of, page_item_ids))
        tally.update(sub)
    else:
        step = max(1, -(-len(pages) // jobs))
        chunks = [
            (pages[i : i + step], dictionary, kb, cfg, label_of, page_item_ids[i : i + step])
            for i in range(0, len(pages), step)
        ]
        sentences = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part, sub in pool.map(_harvest_chunk, chunks):
                sentences.extend(part)
                tally.update(sub)
    return CorpusBuild(dictionary=dictionary, sentences=sentences, tally=tally)
