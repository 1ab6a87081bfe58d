"""Core domain types: sentences, typed mentions, prompts, targets, type dictionaries."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Literal

Task = Literal["MD", "EG"]

OTHER_TYPE = "other"


class SurfaceAbsentError(ValueError):
    """A mention surface does not occur in its sentence text."""


class CorpusFormatError(ValueError):
    """A JSONL corpus record is malformed or violates corpus-level invariants."""


def normalize_type_identifier(name: str) -> str:
    """Lower-case and collapse internal whitespace. Applied to KB-derived type names only;
    schema identifiers supplied by callers (e.g. "GPE") are kept verbatim."""
    return " ".join(name.lower().split())


@dataclass(frozen=True)
class Sentence:
    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError(f"sentence {self.id!r} has empty text")


@dataclass(frozen=True)
class TypedMention:
    surface: str
    types: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.surface or self.surface != self.surface.strip():
            raise ValueError(f"bad mention surface {self.surface!r}")
        if not self.types:
            raise ValueError(f"mention {self.surface!r} has no types")
        if len(set(self.types)) != len(self.types):
            raise ValueError(f"mention {self.surface!r} has duplicate types")


@dataclass(frozen=True)
class AnnotatedSentence:
    sentence: Sentence
    mentions: tuple[TypedMention, ...]

    @property
    def id(self) -> str:
        return self.sentence.id

    @property
    def text(self) -> str:
        return self.sentence.text


def mention_order_key(sentence_text: str, surface: str) -> tuple[int, int]:
    """(first occurrence index, -len(surface)): sort key for mention order, longer first on ties."""
    idx = sentence_text.find(surface)
    if idx < 0:
        raise SurfaceAbsentError(f"surface {surface!r} not found in sentence text")
    return (idx, -len(surface))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = ""
    offending_surface: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_annotated_sentence(candidate: AnnotatedSentence) -> ValidationReport:
    """Check surface presence and mention ordering. Violations are data, not faults."""
    text = candidate.sentence.text
    keys = []
    for mention in candidate.mentions:
        if mention.surface not in text:
            return ValidationReport(False, "surface not found in sentence text", mention.surface)
        keys.append(mention_order_key(text, mention.surface))
    for prev, cur, mention in zip(keys, keys[1:], candidate.mentions[1:]):
        if cur < prev:
            return ValidationReport(False, "mentions out of first-occurrence order", mention.surface)
    return ValidationReport(True)


@dataclass(frozen=True)
class TypeDictionary:
    """Type identifier -> distinct-item instance count, with the reserved `other` entry."""

    entries: dict[str, int]
    min_count: int = 5
    max_tokens: int = 3

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        entries.setdefault(OTHER_TYPE, 0)
        # canonical name order keeps serialized dictionaries byte-stable
        # regardless of construction order (or the process hash seed)
        object.__setattr__(self, "entries", dict(sorted(entries.items())))
        for name, count in entries.items():
            if name == OTHER_TYPE:
                continue
            if count < self.min_count:
                raise ValueError(f"type {name!r} has {count} instances, below {self.min_count}")
            if len(name.split()) > self.max_tokens:
                raise ValueError(f"type {name!r} exceeds {self.max_tokens} tokens")

    def __contains__(self, type_id: str) -> bool:
        return type_id in self.entries

    def types(self, include_other: bool = True) -> list[str]:
        names = list(self.entries)
        if not include_other:
            names = [n for n in names if n != OTHER_TYPE]
        return names

    def to_json(self) -> str:
        return json.dumps(
            {"min_count": self.min_count, "max_tokens": self.max_tokens, "entries": self.entries},
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "TypeDictionary":
        raw = json.loads(text)
        return cls(entries=raw["entries"], min_count=raw["min_count"], max_tokens=raw["max_tokens"])


@dataclass(frozen=True)
class ConceptDescription:
    """An entity type with its describing concepts; empty concepts mean: bare type name."""

    type_id: str
    concepts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.concepts)) != len(self.concepts):
            raise ValueError(f"duplicate concepts for type {self.type_id!r}")


@dataclass(frozen=True)
class PromptMD:
    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("mention-describing prompt needs at least one target mention")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target surfaces in mention-describing prompt")


@dataclass(frozen=True)
class PromptEG:
    entries: tuple[ConceptDescription, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("entity-generation prompt needs at least one type entry")
        ids = [e.type_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate type ids in entity-generation prompt")


@dataclass(frozen=True)
class TargetSequence:
    """Ordered (surface, labels) pairs; labels are concepts for MD, exactly one type for EG.

    The gold-construction paths additionally order EG pairs by first occurrence in the
    source sentence; parsed model output carries whatever order the model produced.
    """

    task: Task
    pairs: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        for surface, labels in self.pairs:
            if not labels:
                raise ValueError(f"target pair {surface!r} has no labels")
            if self.task == "EG" and len(labels) != 1:
                raise ValueError(f"EG target pair {surface!r} must have exactly one type")


# JSONL lingua franca between corpus-builder, instance-sampler and evaluator.


def annotated_to_record(sent: AnnotatedSentence) -> dict:
    return {
        "id": sent.sentence.id,
        "text": sent.sentence.text,
        "mentions": [{"surface": m.surface, "types": list(m.types)} for m in sent.mentions],
    }


def annotated_from_record(raw: dict) -> AnnotatedSentence:
    try:
        mentions = tuple(
            TypedMention(surface=m["surface"], types=tuple(m["types"])) for m in raw["mentions"]
        )
        return AnnotatedSentence(Sentence(id=raw["id"], text=raw["text"]), mentions)
    except (KeyError, TypeError) as exc:
        raise CorpusFormatError(f"malformed annotated-sentence record: {exc}") from exc


def write_annotated_jsonl(path: str | Path, sentences: Iterable[AnnotatedSentence]) -> None:
    write_jsonl(path, map(annotated_to_record, sentences))


def read_annotated_jsonl(path: str | Path) -> list[AnnotatedSentence]:
    out: list[AnnotatedSentence] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            sent = annotated_from_record(raw)
            if sent.id in seen:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate sentence id {sent.id!r}")
            seen.add(sent.id)
            out.append(sent)
    return out


def iter_jsonl(path: str | Path) -> Iterator[dict]:
    """The records of a JSONL file; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One record per line, UTF-8 kept as is, "\\n" line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")
