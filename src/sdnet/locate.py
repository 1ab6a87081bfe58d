"""Character-offset span location via the i-th occurrence matching rule."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, TextIO

from .codec import TargetSequence
from .data import Sentence, distinct_ids, int_field, iter_jsonl, list_field, string_field, write_jsonl
from .model.tokenizer import token_bounds


@dataclass(frozen=True)
class SpanPrediction:
    """A typed span [start, end) of a sentence's text, 0 <= start < end."""

    surface: str
    type_id: str
    start: int
    end: int

    def key(self) -> tuple[str, int, int]:
        return (self.type_id, self.start, self.end)


def locate(
    sentence: Sentence, parsed: TargetSequence
) -> tuple[list[SpanPrediction], list[tuple[str, str]]]:
    """Assign the k-th appearance of each surface in the EG target `parsed` to
    the k-th occurrence of that surface in the sentence. An occurrence starts
    and ends on token boundaries (`token_bounds`), so "Rome" does not match
    inside "Romeo". Occurrences of the same surface never overlap; different
    surfaces are matched independently. Pairs that run out of occurrences are
    dropped and reported."""
    text = sentence.text
    bounds = token_bounds(text)
    next_start: dict[str, int] = {}
    spans: list[SpanPrediction] = []
    unlocated: list[tuple[str, str]] = []
    for surface, labels in parsed.pairs:
        type_id = labels[0]
        pos = text.find(surface, next_start.get(surface, 0))
        while pos >= 0 and not (pos in bounds and pos + len(surface) in bounds):
            pos = text.find(surface, pos + 1)
        if pos < 0:
            unlocated.append((surface, type_id))
            continue
        spans.append(SpanPrediction(surface=surface, type_id=type_id, start=pos, end=pos + len(surface)))
        next_start[surface] = pos + len(surface)
    return spans, unlocated


def spans_to_record(sentence_id: str, spans: Iterable[SpanPrediction]) -> dict:
    return {
        "id": sentence_id,
        "spans": [
            {"surface": s.surface, "type": s.type_id, "start": s.start, "end": s.end}
            for s in spans
        ],
    }


def _span_from_record(raw: dict) -> SpanPrediction:
    span = SpanPrediction(surface=string_field(raw["surface"], "surface"),
                          type_id=string_field(raw["type"], "type"),
                          start=int_field(raw["start"], "start"), end=int_field(raw["end"], "end"))
    if not 0 <= span.start < span.end:
        raise ValueError(f"bad span offsets [{span.start}, {span.end})")
    return span


def spans_from_record(raw: dict) -> tuple[str, list[SpanPrediction]]:
    """A record's sentence id and spans; a span whose offsets are not
    0 <= start < end raises ValueError."""
    spans = [_span_from_record(s) for s in list_field(raw["spans"], "spans")]
    return string_field(raw["id"], "id"), spans


def write_predictions_jsonl(
    dest: str | Path | TextIO, records: Iterable[tuple[str, list[SpanPrediction]]]
) -> None:
    write_jsonl(dest, itertools.starmap(spans_to_record, records))


def read_predictions_jsonl(path: str | Path) -> dict[str, list[SpanPrediction]]:
    """Each sentence id's predicted spans; a repeated id, or a field of the
    wrong kind, is a format error naming `path:line`."""
    return dict(iter_jsonl(path, distinct_ids(spans_from_record, itemgetter(0))))
