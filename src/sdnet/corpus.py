"""Corpus construction from simplified KB / wiki-page dumps.

Two passes: (1) resolve each KB item's types once, into the type dictionary
and an item -> types table; (2) harvest anchor and self-label mentions per
page, typed by that table, into AnnotatedSentence records per sentence, in
page order. A build makes one TypedMention per (surface, types) and shares it
across every sentence that carries it: the records are frozen.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

from .codec import surface_is_safe
from .data import (
    OTHER_TYPE,
    AnnotatedSentence,
    Sentence,
    TypeDictionary,
    TypedMention,
    check_at_least,
    int_field,
    json_object,
    jsonl_lines,
    string_field,
    string_list,
)

T = TypeVar("T")

PREPOSITION_STOPLIST = ("of", "in", "for", "on", "at", "by", "with", "from", "to")

ABBREVIATIONS = frozenset(
    {
        "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.", "Jr.", "Sr.", "Rev.",
        "J.K.", "U.S.", "U.K.", "U.N.", "E.U.", "D.C.",
        "e.g.", "i.e.", "etc.", "vs.", "cf.",
        "No.", "Vol.", "pp.", "Inc.", "Ltd.", "Co.", "Corp.",
    }
)

# a candidate sentence end: .!? then whitespace (`\s` is exactly `str.isspace`)
_BOUNDARY = re.compile(r"[.!?]\s+")


@dataclass(frozen=True, slots=True)
class KbItem:
    item_id: str
    label: str
    aliases: tuple[str, ...] = ()
    instance_of: tuple[str, ...] = ()
    subclass_of: tuple[str, ...] = ()
    occupation: tuple[str, ...] = ()

    def claim_values(self) -> tuple[str, ...]:
        return self.instance_of + self.subclass_of + self.occupation


@dataclass(frozen=True, slots=True)
class Anchor:
    surface: str
    target: str
    offset: int


@dataclass(frozen=True, slots=True)
class WikiPage:
    title: str
    text: str
    anchors: tuple[Anchor, ...] = ()

    def __post_init__(self) -> None:
        for a in self.anchors:
            if a.offset < 0 or self.text[a.offset : a.offset + len(a.surface)] != a.surface:
                raise ValueError(f"anchor {a.surface!r}@{a.offset} does not slice page text")


@dataclass(frozen=True)
class BuildConfig:
    min_type_instances: int = 5
    max_type_tokens: int = 3
    top_np_count: int = 3

    def __post_init__(self) -> None:
        check_at_least(self, 1, "min_type_instances", "max_type_tokens")
        check_at_least(self, 0, "top_np_count")


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
    lists = {name: string_list(raw.get(name, ()), name)
             for name in ("aliases", "instance_of", "subclass_of", "occupation")}
    return KbItem(item_id=string_field(raw["id"], "id"), label=string_field(raw["label"], "label"),
                  **lists)


def page_from_record(raw: dict) -> WikiPage:
    anchors = tuple(
        Anchor(surface=string_field(a["surface"], "surface"),
               target=string_field(a["target"], "target"), offset=int_field(a["offset"], "offset"))
        for a in raw.get("anchors", ())
    )
    return WikiPage(title=string_field(raw["title"], "title"), text=string_field(raw["text"], "text"),
                    anchors=anchors)


def _read_dump(path: str | Path, tally: Counter, label: str, convert: Callable[[dict], T]) -> list[T]:
    """The records of a KB or page dump, each through `convert`; a line that is
    not a JSON object, or that `convert` rejects, is counted under `label`."""
    records: list[T] = []
    for _, line in jsonl_lines(path):
        try:
            records.append(convert(json_object(line)))
        except (KeyError, TypeError, ValueError):
            tally[label] += 1
    return records


def read_kb_jsonl(path: str | Path, tally: Counter) -> dict[str, KbItem]:
    return {item.item_id: item for item in _read_dump(path, tally, "malformed_kb_record", kb_from_record)}


def read_pages_jsonl(path: str | Path, tally: Counter) -> list[WikiPage]:
    return _read_dump(path, tally, "malformed_page_record", page_from_record)


def claimed_types(item: KbItem, cfg: BuildConfig, label_of: Mapping[str, str]) -> tuple[str, ...]:
    """The truncated type names the item claims, in claim order, each once. A
    claim value naming a known item id resolves to that item's label, otherwise
    it is taken as a literal type name; blank names are skipped."""
    names: dict[str, None] = {}
    for value in item.claim_values():
        name = label_of.get(value, value)
        if name.strip():
            names.setdefault(truncate_type_name(name, cfg))
    return tuple(names)


def build_type_dictionary(claims: Iterable[tuple[str, ...]], cfg: BuildConfig) -> TypeDictionary:
    """Count distinct items per claimed type name (one `claimed_types` tuple
    per item); drop names below the instance floor."""
    counts = Counter(name for names in claims for name in names)
    kept = {name: n for name, n in counts.items() if n >= cfg.min_type_instances}
    return TypeDictionary(entries=kept, min_count=cfg.min_type_instances, max_tokens=cfg.max_type_tokens)


def type_table(
    claims: Mapping[str, tuple[str, ...]], dictionary: TypeDictionary
) -> dict[str, tuple[str, ...]]:
    """Item id -> the claimed names that are dictionary types other than
    `other`, in claim order; an item with none is `other`."""
    return {
        item_id: tuple(t for t in names if t in dictionary and t != OTHER_TYPE) or (OTHER_TYPE,)
        for item_id, names in claims.items()
    }


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Sentence spans: boundary at .!? followed by whitespace and an
    uppercase/digit, unless the period closes a stoplisted abbreviation."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    for candidate in _BOUNDARY.finditer(text):
        i, j = candidate.start(), candidate.end()
        if j == n or not (text[j].isupper() or text[j].isdigit()):
            continue
        if text[i] == ".":
            tok_start = i
            while tok_start > 0 and not text[tok_start - 1].isspace():
                tok_start -= 1
            if text[tok_start : i + 1] in ABBREVIATIONS:
                continue
        spans.append((start, i + 1))
        start = j
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
    # [pos, end) overlaps a taken span iff one that starts before `end`
    # reaches past `pos`: the furthest reach among the spans starting before it
    spans = sorted(taken)
    starts = [ts for ts, _ in spans]
    reach = list(accumulate((te for _, te in spans), max))
    out: list[tuple[int, str]] = []
    for phrase in ranked[:top_np_count]:
        for pos in occurrences[phrase]:
            k = bisect_left(starts, pos + len(phrase))
            if k and reach[k - 1] > pos:
                continue
            out.append((pos, phrase))
    return out


MentionKey = tuple[str, tuple[str, ...]]


def harvest_mentions(
    page: WikiPage,
    types_of: Mapping[str, tuple[str, ...]],
    cfg: BuildConfig,
    tally: Counter,
    shared: dict[MentionKey, TypedMention],
    page_item: KbItem | None = None,
) -> list[AnnotatedSentence]:
    """The page's entity-bearing sentences, each mention typed by `types_of`
    (a `type_table`); an anchor whose target is not in it is `other`. Dropped
    and untyped mentions are counted in `tally`. Each (surface, types) is one
    mention object, taken from `shared` or added to it."""
    located: list[tuple[int, str, tuple[str, ...]]] = []
    anchor_spans: list[tuple[int, int]] = []
    for a in page.anchors:
        types = types_of.get(a.target)
        if types is None:
            tally["unknown_anchor_target"] += 1
            types = (OTHER_TYPE,)
        located.append((a.offset, a.surface, types))
        anchor_spans.append((a.offset, a.offset + len(a.surface)))
    if page_item is not None and cfg.top_np_count > 0:
        self_types = types_of.get(page_item.item_id, (OTHER_TYPE,))
        candidates = (page_item.label, *page_item.aliases)
        for pos, phrase in _self_label_occurrences(page, candidates, cfg.top_np_count, anchor_spans):
            located.append((pos, phrase, self_types))

    located.sort(key=lambda m: m[0])
    out: list[AnnotatedSentence] = []
    at = 0  # sentence spans are disjoint and in text order: each mention is visited once
    for idx, (s, e) in enumerate(split_sentences(page.text)):
        sent_text = page.text[s:e]
        while at < len(located) and located[at][0] < s:  # starts between sentences: not tallied
            at += 1
        mentions: list[TypedMention] = []
        while at < len(located) and located[at][0] < e:
            pos, surface, types = located[at]
            at += 1
            if pos + len(surface) > e:  # starts inside but crosses the sentence end
                tally["cross_boundary_mention"] += 1
                continue
            if not surface_is_safe(surface):
                tally["unsafe_surface_dropped"] += 1
                continue
            if not surface or surface != surface.strip():
                tally["blank_surface_dropped"] += 1
                continue
            mention = shared.get((surface, types))
            if mention is None:
                mention = shared[surface, types] = TypedMention(surface=surface, types=types)
            mentions.append(mention)
        if not mentions:
            tally["entity_free_sentence_dropped"] += 1
            continue
        out.append(
            AnnotatedSentence(Sentence(id=f"{page.title}#{idx}", text=sent_text), tuple(mentions))
        )
    return out


@dataclass
class CorpusBuild:
    dictionary: TypeDictionary
    sentences: list[AnnotatedSentence]
    tally: Counter


def build_corpus(
    kb_path: str | Path, pages_path: str | Path, cfg: BuildConfig,
    jobs: int = 1,  # read by nothing; kept for callers that still pass it (perfbench)
) -> CorpusBuild:
    """Full pipeline: each KB item's types are resolved once, into the table
    every page is typed by, then the pages are harvested in input order. Of
    the pages sharing a title only the first is harvested, since a title names
    its sentences; each later one is counted as `duplicate_page_title`."""
    tally: Counter = Counter()
    kb = read_kb_jsonl(kb_path, tally)
    pages: dict[str, WikiPage] = {}
    for page in read_pages_jsonl(pages_path, tally):
        if pages.setdefault(page.title, page) is not page:
            tally["duplicate_page_title"] += 1
    label_of = {item.item_id: item.label for item in kb.values()}
    claims = {item_id: claimed_types(item, cfg, label_of) for item_id, item in kb.items()}
    dictionary = build_type_dictionary(claims.values(), cfg)
    types_of = type_table(claims, dictionary)
    by_label = {item.label: item for item in reversed(kb.values())}  # the first item per label
    shared: dict[MentionKey, TypedMention] = {}
    sentences: list[AnnotatedSentence] = []
    for page in pages.values():
        sentences.extend(harvest_mentions(page, types_of, cfg, tally, shared, by_label.get(page.title)))
    return CorpusBuild(dictionary=dictionary, sentences=sentences, tally=tally)
