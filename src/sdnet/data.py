"""Core domain types: sentences, typed mentions, prompts, targets, type dictionaries."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Literal, TextIO, TypeVar

Task = Literal["MD", "EG"]

OTHER_TYPE = "other"

T = TypeVar("T")


class SurfaceAbsentError(ValueError):
    """A mention surface does not occur in its sentence text."""


class CorpusFormatError(ValueError):
    """A JSONL corpus record is malformed or violates corpus-level invariants."""


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


def ordered_unique_surfaces(s: AnnotatedSentence) -> list[tuple[str, tuple[str, ...]]]:
    """Unique surfaces in first-occurrence order, each with the union of the
    type sets of its mentions: the one order of MD prompt surfaces."""
    merged: dict[str, list[str]] = {}
    for m in s.mentions:
        types = merged.setdefault(m.surface, [])
        for t in m.types:
            if t not in types:
                types.append(t)
    surfaces = sorted(merged, key=lambda surf: mention_order_key(s.text, surf))
    return [(surf, tuple(merged[surf])) for surf in surfaces]


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
            if not name.strip():
                raise ValueError(f"blank type name {name!r}")
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
    def from_json(cls, text: str) -> TypeDictionary:
        raw = json.loads(text)
        return cls(raw["entries"], raw["min_count"], raw["max_tokens"])


def read_file(path: str | Path, convert: Callable[[str], T]) -> T:
    """The text of the UTF-8 file `path` passed through `convert`; bad JSON, a
    missing field or a bad value raises CorpusFormatError naming `path`."""
    try:
        return convert(Path(path).read_text(encoding="utf-8"))
    except (KeyError, TypeError, ValueError) as exc:
        raise _format_error(str(path), exc) from exc


@dataclass(frozen=True)
class ConceptDescription:
    """An entity type with its describing concepts; empty concepts mean: bare type name."""

    type_id: str
    concepts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.type_id.strip():
            raise ValueError(f"blank type name {self.type_id!r}")
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


def string_list(value: object, name: str) -> tuple[str, ...]:
    """Record field `name`, a list of strings, as a tuple; anything else raises
    TypeError naming the field (`tuple` would split a bare string into letters)."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"field {name!r} must be a list of strings, got {value!r}")
    return tuple(value)


def string_field(value: object, name: str) -> str:
    """Record field `name`, a string; anything else raises TypeError naming the
    field (a number would pass the record's checks and fail far from it)."""
    if not isinstance(value, str):
        raise TypeError(f"field {name!r} must be a string, got {value!r}")
    return value


def sentence_from_record(raw: dict) -> Sentence:
    return Sentence(id=string_field(raw["id"], "id"), text=string_field(raw["text"], "text"))


def annotated_from_record(raw: dict) -> AnnotatedSentence:
    mentions = tuple(
        TypedMention(surface=string_field(m["surface"], "surface"),
                     types=string_list(m["types"], "types"))
        for m in raw["mentions"]
    )
    return AnnotatedSentence(sentence_from_record(raw), mentions)


def write_annotated_jsonl(path: str | Path, sentences: Iterable[AnnotatedSentence]) -> None:
    write_jsonl(path, map(annotated_to_record, sentences))


def read_annotated_jsonl(path: str | Path) -> list[AnnotatedSentence]:
    """The sentences of a corpus file; a repeated sentence id or a mention surface
    absent from its sentence's text is a format error, mention order is not."""
    seen: set[str] = set()

    def convert(raw: dict) -> AnnotatedSentence:
        sent = annotated_from_record(raw)
        if sent.id in seen:
            raise CorpusFormatError(f"duplicate sentence id {sent.id!r}")
        seen.add(sent.id)
        for m in sent.mentions:
            if m.surface not in sent.text:
                raise CorpusFormatError(f"sentence {sent.id!r}: surface {m.surface!r} not in its text")
        return sent

    return list(iter_jsonl(path, convert))


def jsonl_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a UTF-8 text file, stripped, each with its line
    number (from 1)."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def _format_error(where: str, exc: Exception) -> CorpusFormatError:
    """The CorpusFormatError for a record at `where` that failed with `exc`:
    bad JSON, KeyError (a missing field) or another bad value."""
    if isinstance(exc, json.JSONDecodeError):
        return CorpusFormatError(f"{where}: invalid JSON: {exc}")
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return CorpusFormatError(f"{where}: {detail}")


def iter_jsonl(path: str | Path, convert: Callable[[dict], T]) -> Iterator[T]:
    """The records of a JSONL file, each passed through `convert`; blank lines
    are skipped. A line that is not JSON, or a record that `convert` rejects
    with KeyError (a missing field), TypeError or ValueError, raises
    CorpusFormatError naming `path:line`."""
    for lineno, line in jsonl_lines(path):
        try:
            value = convert(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise _format_error(f"{path}:{lineno}", exc) from exc
        yield value


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """An open file (UTF-8 text with "\\n" line ends, or bytes) whose contents
    replace `path` only when the block exits cleanly: it is a temp file in the
    same directory, renamed over `path` at the end and removed on error, so
    `path` never holds a half-written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with (open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="\n")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(dest: str | Path | TextIO, records: Iterable[dict]) -> None:
    """One record per line, UTF-8 kept as is, "\\n" line ends, into the file
    at path `dest` or into the open text stream `dest`."""
    if isinstance(dest, (str, Path)):
        with atomic_write(dest) as fh:
            write_jsonl(fh, records)
        return
    for record in records:
        dest.write(json.dumps(record, ensure_ascii=False))
        dest.write("\n")
