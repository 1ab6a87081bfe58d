"""Serialization and parsing of task prompts and target sequences.

The serialized forms are the wire format between the data pipeline and the
model, one grammar for both tasks:

    [MD] e1; e2
    [EG] t1: {c1, c2}; t2
    e1 is c1, c2; e2 is c3.

This module is the only place the grammar's literals are spelled, and the
values the grammar carries (`Task`, `ConceptDescription`, `TargetSequence`)
are defined here. Serializers emit SEPARATOR between clauses and a final
TERMINATOR; the parser of model output also accepts ALT_CLAUSE_SEPARATOR
between clauses.

Every mention surface, type and concept is a name (`is_name`): non-empty,
without blank space at either end, and, padded with one space on each side,
holding none of COPULA, SEPARATOR, CONCEPT_SEPARATOR or DESC_COLON. A name
reads back unchanged in every place the grammar puts it. Names are checked
where they enter: the constructors in `data`, the corpus builder, and the
readers of schema, description and prompt files, so a bad name in a file is a
data fault (CLI exit 2) naming the file, and its line for JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

Task = Literal["MD", "EG"]

DESCRIPTORS: dict[Task, str] = {"MD": "[MD]", "EG": "[EG]"}
SEPARATOR = "; "             # between prompt entries and between target clauses
ALT_CLAUSE_SEPARATOR = ". "  # also accepted between generated clauses
COPULA = " is "
CONCEPT_SEPARATOR = ", "
DESC_COLON = ": "
DESC_OPEN = "{"
DESC_CLOSE = "}"
TERMINATOR = "."


def is_name(text: str) -> bool:
    """Whether `text` can stand as a mention surface, type or concept. A name
    sits between the grammar's literals, so it is padded with a space on each
    side before the test: "Acme Inc;" would read as "; " before the copula, and
    the label "is x" would give "Rome is is x." a later copula. A bare "." is
    fine: the clause splitter only honors ALT_CLAUSE_SEPARATOR when the copula
    appears on both sides, so "J.K. Rowling" parses."""
    padded = f" {text} "
    return (bool(text) and text == text.strip() and COPULA not in padded and SEPARATOR not in padded
            and CONCEPT_SEPARATOR not in padded and DESC_COLON not in padded)


@dataclass(frozen=True)
class ConceptDescription:
    """An entity type with its describing concepts; empty concepts mean: bare type name."""

    type_id: str
    concepts: tuple[str, ...] = ()


@dataclass(frozen=True)
class TargetSequence:
    """Ordered (surface, labels) pairs; labels are concepts for MD, exactly one type for EG.

    Gold targets list their pairs in the text order an `AnnotatedSentence` holds its
    mentions in; parsed model output carries whatever order the model produced.
    """

    task: Task
    pairs: tuple[tuple[str, tuple[str, ...]], ...]


def serialize_prompt_md(targets: tuple[str, ...]) -> str:
    """The MD prompt listing `targets`, distinct mention surfaces in text order."""
    return DESCRIPTORS["MD"] + " " + SEPARATOR.join(targets)


def serialize_prompt_eg(entries: tuple[ConceptDescription, ...]) -> str:
    """The EG prompt listing `entries`, one per distinct type."""
    rendered = []
    for entry in entries:
        if entry.concepts:
            inner = CONCEPT_SEPARATOR.join(entry.concepts)
            rendered.append(entry.type_id + DESC_COLON + DESC_OPEN + inner + DESC_CLOSE)
        else:
            rendered.append(entry.type_id)
    return DESCRIPTORS["EG"] + " " + SEPARATOR.join(rendered)


def serialize_target(target: TargetSequence) -> str:
    if not target.pairs:
        return ""
    clauses = [surface + COPULA + CONCEPT_SEPARATOR.join(labels) for surface, labels in target.pairs]
    return SEPARATOR.join(clauses) + TERMINATOR


@dataclass
class ParseResult:
    target: TargetSequence
    diagnostics: list[str] = field(default_factory=list)


def _split_clauses(text: str) -> list[str]:
    """Split on SEPARATOR unconditionally; honor ALT_CLAUSE_SEPARATOR only when
    the copula appears on both sides, so abbreviation periods inside surfaces
    do not break clauses."""
    clauses: list[str] = []
    for piece in text.split(SEPARATOR):
        start = 0
        search = 0
        while True:
            j = piece.find(ALT_CLAUSE_SEPARATOR, search)
            if j < 0:
                break
            left = piece[start:j]
            rest = piece[j + len(ALT_CLAUSE_SEPARATOR):]
            if COPULA in left and COPULA in rest:
                clauses.append(left)
                start = j + len(ALT_CLAUSE_SEPARATOR)
                search = start
            else:
                search = j + 1
        clauses.append(piece[start:])
    return clauses


def parse_generated(task: Task, text: str) -> ParseResult:
    """Parse untrusted generated text into (surface, labels) pairs.

    Never raises: malformed clauses are dropped and reported, a fully
    unparseable text yields an empty target. Duplicate pairs are kept.
    """
    diagnostics: list[str] = []
    pairs: list[tuple[str, tuple[str, ...]]] = []
    body = text.strip()
    if body.endswith(TERMINATOR):
        body = body[: -len(TERMINATOR)]
    if body:
        for clause in _split_clauses(body):
            clause = clause.strip()
            if not clause:
                diagnostics.append("empty clause")
                continue
            cut = clause.rfind(COPULA)
            if cut < 0:
                diagnostics.append(f"no copula in clause {clause!r}")
                continue
            surface = clause[:cut]
            label_part = clause[cut + len(COPULA):]
            if not surface or not label_part:
                diagnostics.append(f"empty side in clause {clause!r}")
                continue
            if task == "MD":
                labels = tuple(l for l in label_part.split(CONCEPT_SEPARATOR) if l)
                if not labels:
                    diagnostics.append(f"no labels in clause {clause!r}")
                    continue
            else:
                labels = (label_part,)
            pairs.append((surface, labels))
    return ParseResult(TargetSequence(task=task, pairs=tuple(pairs)), diagnostics)


def prompt_body(task: Task, text: str) -> str:
    """The prompt text after its task descriptor and the space that follows it."""
    if task not in DESCRIPTORS:
        raise ValueError(f"unknown task {task!r}")
    prefix = DESCRIPTORS[task] + " "
    if not text.startswith(prefix):
        raise ValueError(f"{task} prompt must start with {prefix!r}")
    return text[len(prefix):]


def read_entry(type_id: str, concepts: tuple[str, ...]) -> ConceptDescription:
    """The prompt entry of a type and its concepts read from outside; a type
    or concept that is not a name (`is_name`), or a repeated concept, raises
    ValueError."""
    if not is_name(type_id):
        raise ValueError(f"bad type name {type_id!r}")
    bad = next((c for c in concepts if not is_name(c)), None)
    if bad is not None:
        raise ValueError(f"type {type_id!r} has a bad concept {bad!r}")
    if len(set(concepts)) != len(concepts):
        raise ValueError(f"duplicate concepts for type {type_id!r}")
    return ConceptDescription(type_id=type_id, concepts=concepts)


def parse_prompt_eg(text: str) -> tuple[ConceptDescription, ...]:
    """The entries of an EG prompt read from outside (`read_entry`); accepts
    both "type" and "type: {}" entry forms. A repeated type raises ValueError."""
    entries = []
    for chunk in prompt_body("EG", text).split(SEPARATOR):
        type_id, concepts = chunk, ()
        if DESC_COLON in chunk:
            type_id, desc = chunk.split(DESC_COLON, 1)
            if not (desc.startswith(DESC_OPEN) and desc.endswith(DESC_CLOSE)):
                raise ValueError(f"malformed type description in {chunk!r}")
            inner = desc[len(DESC_OPEN): -len(DESC_CLOSE)]
            concepts = tuple(inner.split(CONCEPT_SEPARATOR)) if inner else ()
        entries.append(read_entry(type_id, concepts))
    if len({e.type_id for e in entries}) != len(entries):
        raise ValueError("duplicate type ids in entity-generation prompt")
    return tuple(entries)
