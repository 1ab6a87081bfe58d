"""Serialization and parsing of task prompts and target sequences.

The serialized forms are the wire format between the data pipeline and the
model, one grammar for both tasks:

    [MD] e1; e2
    [EG] t1: {c1, c2}; t2
    e1 is c1, c2; e2 is c3.

This module is the only place the grammar's literals are spelled. Serializers
emit SEPARATOR between clauses and a final TERMINATOR; the parser of model
output also accepts ALT_CLAUSE_SEPARATOR between clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import ConceptDescription, PromptEG, PromptMD, TargetSequence, Task

DESCRIPTORS: dict[Task, str] = {"MD": "[MD]", "EG": "[EG]"}
SEPARATOR = "; "             # between prompt entries and between target clauses
ALT_CLAUSE_SEPARATOR = ". "  # also accepted between generated clauses
COPULA = " is "
CONCEPT_SEPARATOR = ", "
DESC_COLON = ": "
DESC_OPEN = "{"
DESC_CLOSE = "}"
TERMINATOR = "."

# Surfaces/labels containing these cannot survive a serialize->parse round trip;
# the corpus builder drops such mentions. A bare "." is fine: the clause splitter
# only honors ALT_CLAUSE_SEPARATOR when the copula appears on both sides, so
# "J.K. Rowling" parses.
UNSAFE_IN_SURFACE = (COPULA, SEPARATOR, CONCEPT_SEPARATOR)


def surface_is_safe(text: str) -> bool:
    """No separator occurs in the surface as it stands in a clause, that is,
    followed by the copula's leading space: "Acme Inc;" would read as "; "."""
    in_clause = text + COPULA[0]
    return not any(sep in in_clause for sep in UNSAFE_IN_SURFACE)


def serialize_prompt_md(prompt: PromptMD) -> str:
    return DESCRIPTORS["MD"] + " " + SEPARATOR.join(prompt.targets)


def serialize_prompt_eg(prompt: PromptEG) -> str:
    rendered = []
    for entry in prompt.entries:
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


def parse_prompt_md(text: str) -> PromptMD:
    return PromptMD(targets=tuple(prompt_body("MD", text).split(SEPARATOR)))


def parse_prompt_eg(text: str) -> PromptEG:
    """Accept both "type" and "type: {}" entry forms."""
    entries = []
    for chunk in prompt_body("EG", text).split(SEPARATOR):
        if DESC_COLON in chunk:
            type_id, desc = chunk.split(DESC_COLON, 1)
            if not (desc.startswith(DESC_OPEN) and desc.endswith(DESC_CLOSE)):
                raise ValueError(f"malformed type description in {chunk!r}")
            inner = desc[len(DESC_OPEN): -len(DESC_CLOSE)]
            concepts = tuple(c for c in inner.split(CONCEPT_SEPARATOR) if c) if inner else ()
            entries.append(ConceptDescription(type_id=type_id, concepts=concepts))
        else:
            entries.append(ConceptDescription(type_id=chunk))
    return PromptEG(entries=tuple(entries))
