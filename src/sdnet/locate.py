"""Character-offset span location via the i-th occurrence matching rule."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .data import Sentence, TargetSequence


@dataclass(frozen=True)
class SpanPrediction:
    surface: str
    type_id: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad span offsets [{self.start}, {self.end})")

    def key(self) -> tuple[str, int, int]:
        return (self.type_id, self.start, self.end)


def locate(
    sentence: Sentence, parsed: TargetSequence
) -> tuple[list[SpanPrediction], list[tuple[str, str]]]:
    """Assign the k-th appearance of each surface in `parsed` to the k-th
    occurrence of that surface in the sentence. An occurrence starts and ends
    on token boundaries (`token_bounds`), so "Rome" does not match inside
    "Romeo". Occurrences of the same surface never overlap; different surfaces
    are matched independently. Pairs that run out of occurrences are dropped
    and reported."""
    from .model.tokenizer import token_bounds  # late import keeps `import sdnet` model-free

    if parsed.task != "EG":
        raise ValueError("locate expects an entity-generation target")
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


def spans_from_record(raw: dict) -> tuple[str, list[SpanPrediction]]:
    spans = [
        SpanPrediction(surface=s["surface"], type_id=s["type"], start=s["start"], end=s["end"])
        for s in raw["spans"]
    ]
    return raw["id"], spans


def write_predictions_jsonl(path: str | Path, records: Iterable[tuple[str, list[SpanPrediction]]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sentence_id, spans in records:
            fh.write(json.dumps(spans_to_record(sentence_id, spans), ensure_ascii=False))
            fh.write("\n")


def read_predictions_jsonl(path: str | Path) -> dict[str, list[SpanPrediction]]:
    out: dict[str, list[SpanPrediction]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            sentence_id, spans = spans_from_record(json.loads(line))
            out[sentence_id] = spans
    return out
