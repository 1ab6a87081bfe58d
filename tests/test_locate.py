"""Span assignment by the i-th occurrence rule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnet.codec import TargetSequence, parse_generated, serialize_target
from sdnet.data import Sentence
from sdnet.locate import (
    SpanPrediction,
    locate,
    read_predictions_jsonl,
    spans_from_record,
    spans_to_record,
    write_predictions_jsonl,
)
from helpers import on_token_boundaries


def _spans(text: str, pairs) -> tuple[list[SpanPrediction], list]:
    return locate(Sentence(id="s", text=text), TargetSequence(task="EG", pairs=tuple(pairs)))


def test_repeated_surface_maps_kth_appearance_to_kth_occurrence():
    text = "Rome saw Rome fight Rome."
    spans, unlocated = _spans(text, [("Rome", ("city",)), ("Rome", ("city",)), ("Rome", ("city",))])
    assert unlocated == []
    assert [(s.start, s.end) for s in spans] == [(0, 4), (9, 13), (20, 24)]
    assert all(text[s.start:s.end] == "Rome" for s in spans)


def test_distinct_surfaces_scan_independently():
    # per-surface cursors: "Paris" may land inside an earlier "Paris Region"
    text = "Paris Region is near Paris."
    spans, unlocated = _spans(text, [("Paris Region", ("area",)), ("Paris", ("city",))])
    assert unlocated == []
    assert [(s.surface, s.start, s.end) for s in spans] == [
        ("Paris Region", 0, 12), ("Paris", 0, 5)]


def test_matches_start_and_end_on_token_boundaries():
    parsed = parse_generated("EG", "Rome is city.")
    spans, unlocated = locate(Sentence(id="s", text="Romeo met Rome."), parsed.target)
    assert [(s.start, s.end) for s in spans] == [(10, 14)]
    assert unlocated == []
    # opening and trailing marks split off as tokens; other punctuation does not
    spans, unlocated = _spans("(Rome), U.S. army.", [("Rome", ("city",)), ("U.S", ("gpe",)), ("U", ("x",)),
                                                    ("S", ("x",)), ("arm", ("x",))])
    assert [(s.surface, s.start, s.end) for s in spans] == [("Rome", 1, 5), ("U.S", 8, 11)]
    assert unlocated == [("U", "x"), ("S", "x"), ("arm", "x")]


def test_exhausted_occurrences_are_reported_unlocated():
    spans, unlocated = _spans("Rome is old.", [("Rome", ("city",)), ("Rome", ("city",))])
    assert [(s.start, s.end) for s in spans] == [(0, 4)]
    assert unlocated == [("Rome", "city")]


def test_absent_surface_is_unlocated():
    spans, unlocated = _spans("Alice met Bob.", [("Carol", ("person",))])
    assert spans == []
    assert unlocated == [("Carol", "person")]


@pytest.mark.parametrize("start, end", [(3, 3), (-1, 2), (4, 2)])
def test_span_prediction_validates_offsets(start, end):
    record = {"id": "s", "spans": [{"surface": "x", "type": "t", "start": start, "end": end}]}
    with pytest.raises(ValueError, match=fr"^bad span offsets \[{start}, {end}\)$"):
        spans_from_record(record)


def test_prediction_record_round_trip(tmp_path):
    rows = [
        ("s0", [SpanPrediction(surface="Rome", type_id="city", start=0, end=4)]),
        ("s1", []),
    ]
    rec = spans_to_record(*rows[0])
    assert spans_from_record(rec) == rows[0]
    path = tmp_path / "pred.jsonl"
    write_predictions_jsonl(path, rows)
    assert read_predictions_jsonl(path) == dict(rows)


def _oracle_spans(text: str, pairs):
    """Independent i-th occurrence bookkeeping via per-surface occurrence
    lists: every offset is tried, left to right, skipping overlaps."""
    occurrences: dict[str, list[int]] = {}
    taken: dict[str, int] = {}
    expected = []
    for surface, types in pairs:
        if surface not in occurrences:
            found: list[int] = []
            for at in range(len(text)):
                if (text.startswith(surface, at) and (not found or at >= found[-1] + len(surface))
                        and on_token_boundaries(text, at, at + len(surface))):
                    found.append(at)
            occurrences[surface] = found
        i = taken.get(surface, 0)
        taken[surface] = i + 1
        if i < len(occurrences[surface]):
            start = occurrences[surface][i]
            expected.append((surface, types[0], start, start + len(surface)))
    return expected


def test_locate_matches_brute_force_oracle_on_random_sentences():
    rng = np.random.default_rng(42)
    words = ["Rome", "Alice", "Bob", "river", "Danube", "met", "saw", "the", "a", "Ro"]
    for _ in range(300):
        n = int(rng.integers(3, 12))
        text = " ".join(words[i] for i in rng.integers(0, len(words), size=n)) + "."
        k = int(rng.integers(1, 6))
        pairs = tuple(
            (words[int(rng.integers(0, len(words)))], (f"t{int(rng.integers(0, 3))}",))
            for _ in range(k)
        )
        spans, unlocated = _spans(text, pairs)
        expected = _oracle_spans(text, pairs)
        assert [(s.surface, s.type_id, s.start, s.end) for s in spans] == expected
        assert len(spans) + len(unlocated) == len(pairs)


_WORDS = ["Rome", "Romeo", "Ro", "me", "U.S", "a", "aa", "Bob"]


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.tuples(st.sampled_from(["", "(", "[", "(("]), st.sampled_from(_WORDS),
                                st.sampled_from(["", ".", ",", ").", ";", "'s"])),
                      min_size=1, max_size=8),
       cuts=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 8)), min_size=1, max_size=5))
def test_locate_matches_token_boundary_oracle(words, cuts):
    text = " ".join(lead + word + tail for lead, word, tail in words)
    # surfaces: pieces of the text, most of them cutting through tokens
    starts = [at % len(text) for at, _ in cuts]
    pieces = [text[a:a + n].strip() for a, (_, n) in zip(starts, cuts)]
    pairs = [(piece, ("t",)) for piece in pieces if piece]
    spans, unlocated = _spans(text, pairs)
    assert [(s.surface, s.type_id, s.start, s.end) for s in spans] == _oracle_spans(text, pairs)
    assert len(spans) + len(unlocated) == len(pairs)
    for s in spans:
        assert on_token_boundaries(text, s.start, s.end)
    assert spans_from_record(spans_to_record("s", spans)) == ("s", spans)


def test_generated_text_round_trip_through_parse_and_locate():
    text = "Alice met Alice near the Danube."
    target = TargetSequence(task="EG", pairs=(
        ("Alice", ("person",)), ("Alice", ("person",)), ("Danube", ("river",))))
    parsed = parse_generated("EG", serialize_target(target))
    spans, unlocated = locate(Sentence(id="s", text=text), parsed.target)
    assert unlocated == []
    assert [(s.start, s.end) for s in spans] == [(0, 5), (10, 15), (25, 31)]
