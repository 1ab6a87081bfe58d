"""Core domain types: sentences, typed mentions, type dictionaries, and the
JSONL records that carry them.

Input is checked where it is read, and the fault names where it came from
(`path:line`, the file, the flag). The constructors of `Sentence`,
`TypedMention`, `AnnotatedSentence` and `TypeDictionary` check, as the readers
build them from what they read: every mention surface and type name must be a
name of the prompt grammar (`codec.is_name`), so a corpus or dictionary file
that holds another is a data fault naming it (CLI exit 2). Prompt entries,
targets, training instances and spans are plain values that their builders make
valid by construction.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .codec import is_name

OTHER_TYPE = "other"

T = TypeVar("T")


class SurfaceAbsentError(ValueError):
    """A mention surface does not occur in its sentence text."""


class CorpusFormatError(ValueError):
    """A JSONL corpus record is malformed or violates corpus-level invariants."""


class RowError(ValueError):
    """Row `row` of a batched call cannot be processed, for `reason`."""

    def __init__(self, row: int, reason: str) -> None:
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


def check_at_least(config: object, floor: int, *names: str) -> None:
    """Raises ValueError naming the first field of `names` whose value in
    `config` is below `floor`, and that value."""
    for name in names:
        value = getattr(config, name)
        if value < floor:
            bound = "not be negative" if floor == 0 else f"be at least {floor}"
            raise ValueError(f"{name} must {bound}, got {value}")


@dataclass(frozen=True, slots=True)
class Sentence:
    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError(f"sentence {self.id!r} has empty text")


@dataclass(frozen=True, slots=True)
class TypedMention:
    surface: str
    types: tuple[str, ...]

    def __post_init__(self) -> None:
        if not is_name(self.surface):
            raise ValueError(f"bad mention surface {self.surface!r}")
        if not self.types:
            raise ValueError(f"mention {self.surface!r} has no types")
        bad = next((t for t in self.types if not is_name(t)), None)
        if bad is not None:
            raise ValueError(f"mention {self.surface!r} has a bad type name {bad!r}")
        if len(set(self.types)) != len(self.types):
            raise ValueError(f"mention {self.surface!r} has duplicate types")


@dataclass(frozen=True, slots=True)
class AnnotatedSentence:
    """A sentence and its mentions, held in text order (`_in_text_order`)."""

    sentence: Sentence
    mentions: tuple[TypedMention, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mentions", _in_text_order(self.sentence, self.mentions))

    @property
    def id(self) -> str:
        return self.sentence.id

    @property
    def text(self) -> str:
        return self.sentence.text


def _in_text_order(sentence: Sentence, mentions: Sequence[TypedMention]) -> tuple[TypedMention, ...]:
    """`mentions` sorted by the first index of their surface in the text, the
    longer surface first on a tie, then as given, so the order is stable; a
    surface absent from the text raises SurfaceAbsentError. One find per
    mention gives both."""
    keyed = []
    for i, m in enumerate(mentions):
        idx = sentence.text.find(m.surface)
        if idx < 0:
            raise SurfaceAbsentError(f"sentence {sentence.id!r}: surface {m.surface!r} not in its text")
        keyed.append((idx, -len(m.surface), i))
    return tuple(mentions[i] for *_, i in sorted(keyed))


def ordered_unique_surfaces(s: AnnotatedSentence) -> list[tuple[str, tuple[str, ...]]]:
    """Unique surfaces in text order, each with the union of the type sets of
    its mentions: the one order of MD prompt surfaces."""
    merged: dict[str, list[str]] = {}
    for m in s.mentions:
        types = merged.setdefault(m.surface, [])
        for t in m.types:
            if t not in types:
                types.append(t)
    return [(surf, tuple(types)) for surf, types in merged.items()]


def validate_annotated_sentence(s: AnnotatedSentence) -> bool:
    """Whether `s` holds its mentions in the order its constructor gives them,
    every surface in its text: false only for a sentence altered behind the
    constructor's back."""
    try:
        return _in_text_order(s.sentence, s.mentions) == s.mentions
    except SurfaceAbsentError:
        return False


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
            if not is_name(name):
                raise ValueError(f"bad type name {name!r}")
            if count < self.min_count:
                raise ValueError(f"type {name!r} has {count} instances, below {self.min_count}")
            if len(name.split()) > self.max_tokens:
                raise ValueError(f"type {name!r} exceeds {self.max_tokens} tokens")

    def __contains__(self, type_id: str) -> bool:
        return type_id in self.entries

    def types(self) -> list[str]:
        """The type names, in canonical order, without the reserved `other`."""
        return [n for n in self.entries if n != OTHER_TYPE]

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


def list_field(value: object, name: str) -> list[dict]:
    """Record field `name`, a list of objects; anything else raises TypeError
    naming the field (iterating a string or a dict would fail far from it)."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise TypeError(f"field {name!r} must be a list of objects, got {value!r}")
    return value


def string_field(value: object, name: str) -> str:
    """Record field `name`, a string; anything else raises TypeError naming the
    field (a number would pass the record's checks and fail far from it)."""
    if not isinstance(value, str):
        raise TypeError(f"field {name!r} must be a string, got {value!r}")
    return value


def int_field(value: object, name: str) -> int:
    """Record field `name`, an integer; anything else, a bool too, raises
    TypeError naming the field."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"field {name!r} must be an integer, got {value!r}")
    return value


def distinct_ids(convert: Callable[[dict], T], id_of: Callable[[T], str] = attrgetter("id"),
                 what: str = "sentence id") -> Callable[[dict], T]:
    """`convert` for `iter_jsonl`, except that a record whose id (`id_of` of
    its value) an earlier record had is a format error naming it as `what`."""
    seen: set[str] = set()

    def checked(raw: dict) -> T:
        value = convert(raw)
        key = id_of(value)
        if key in seen:
            raise CorpusFormatError(f"duplicate {what} {key!r}")
        seen.add(key)
        return value

    return checked


def sentence_from_record(raw: dict) -> Sentence:
    return Sentence(id=string_field(raw["id"], "id"), text=string_field(raw["text"], "text"))


def annotated_from_record(raw: dict) -> AnnotatedSentence:
    mentions = tuple(
        TypedMention(surface=string_field(m["surface"], "surface"),
                     types=string_list(m["types"], "types"))
        for m in list_field(raw["mentions"], "mentions")
    )
    return AnnotatedSentence(sentence_from_record(raw), mentions)


def write_annotated_jsonl(path: str | Path, sentences: Iterable[AnnotatedSentence]) -> None:
    write_jsonl(path, map(annotated_to_record, sentences))


def read_annotated_jsonl(path: str | Path) -> list[AnnotatedSentence]:
    """The sentences of a corpus file, mentions in text order; a repeated sentence
    id or a mention surface absent from its sentence's text is a format error."""
    return list(iter_jsonl(path, distinct_ids(annotated_from_record)))


def jsonl_lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """The non-blank lines of a file as stripped bytes, each with its line
    number (from 1); each is decoded where its record is handled."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def json_object(line: bytes) -> dict:
    """The JSON object the UTF-8 `line` holds; other JSON raises TypeError."""
    raw = json.loads(line.decode("utf-8"))
    if not isinstance(raw, dict):
        raise TypeError("record must be a JSON object")
    return raw


def _format_error(where: str, exc: Exception) -> CorpusFormatError:
    """The CorpusFormatError for a record at `where` that failed with `exc`:
    bad JSON, KeyError (a missing field) or another bad value."""
    if isinstance(exc, json.JSONDecodeError):
        return CorpusFormatError(f"{where}: invalid JSON: {exc}")
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return CorpusFormatError(f"{where}: {detail}")


def iter_jsonl(path: str | Path, convert: Callable[[dict], T]) -> Iterator[T]:
    """The records of a JSONL file, each passed through `convert`; blank lines
    are skipped. A line that is not a UTF-8 JSON object, or a record that
    `convert` rejects with KeyError (a missing field), TypeError or
    ValueError, raises CorpusFormatError naming `path:line`."""
    for lineno, line in jsonl_lines(path):
        try:
            value = convert(json_object(line))
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
