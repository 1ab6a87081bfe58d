"""Core record types, ordering keys, and JSONL round-trips."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from sdnet.data import (
    AnnotatedSentence,
    CorpusFormatError,
    OTHER_TYPE,
    Sentence,
    TargetSequence,
    TypeDictionary,
    TypedMention,
    annotated_from_record,
    annotated_to_record,
    atomic_write,
    mention_order_key,
    read_annotated_jsonl,
    read_file,
    validate_annotated_sentence,
    write_annotated_jsonl,
    write_jsonl,
)
from sdnet.descriptions import read_description_map
from sdnet.locate import read_predictions_jsonl
from sdnet.sampling import read_instances_jsonl
from helpers import sent


def test_mention_order_key_sorts_by_first_index_then_longer_first():
    text = "Paris Region is near Paris."
    assert mention_order_key(text, "Paris") == (0, -5)
    assert mention_order_key(text, "Paris Region") == (0, -12)
    ordered = sorted(["Paris", "Paris Region", "near"], key=lambda s: mention_order_key(text, s))
    assert ordered == ["Paris Region", "Paris", "near"]


def test_mention_order_key_absent_surface_raises():
    with pytest.raises(ValueError):
        mention_order_key("Alice met Bob.", "Carol")


def test_typed_mention_rejects_empty_fields():
    with pytest.raises(ValueError):
        TypedMention(surface="", types=("person",))
    with pytest.raises(ValueError):
        TypedMention(surface="Alice", types=())


def test_validate_annotated_sentence_flags_absent_surface():
    bad = AnnotatedSentence(
        sentence=Sentence(id="s0", text="Alice met Bob."),
        mentions=(TypedMention(surface="Carol", types=("person",)),),
    )
    report = validate_annotated_sentence(bad)
    assert not report
    assert report.offending_surface == "Carol"
    good = sent("s1", "Alice met Bob.", [("Alice", ("person",))])
    assert validate_annotated_sentence(good)


def test_type_dictionary_always_contains_other():
    d = TypeDictionary(entries={"person": 10, "city": 7})
    assert OTHER_TYPE in d
    assert d.types() == ["city", "other", "person"]
    assert d.types(include_other=False) == ["city", "person"]


def test_type_dictionary_json_round_trip(tmp_path):
    d = TypeDictionary(entries={"person": 10, "state award": 6}, min_count=5, max_tokens=3)
    path = tmp_path / "dict.json"
    path.write_text(d.to_json(), encoding="utf-8")
    d2 = read_file(path, TypeDictionary.from_json)
    assert d2.entries == d.entries
    assert d2.min_count == d.min_count
    assert d2.max_tokens == d.max_tokens


def test_eg_target_pairs_carry_exactly_one_label():
    TargetSequence(task="EG", pairs=(("Alice", ("person",)),))
    with pytest.raises(ValueError):
        TargetSequence(task="EG", pairs=(("Alice", ("person", "writer")),))


def test_annotated_record_round_trip():
    s = sent("doc#0", "Alice met Bob in Paris.",
             [("Alice", ("person",)), ("Bob", ("person", "other")), ("Paris", ("city",))])
    assert annotated_from_record(annotated_to_record(s)) == s


def test_annotated_jsonl_round_trip(tmp_path):
    rows = [
        sent("a#0", "Alice met Bob.", [("Alice", ("person",)), ("Bob", ("person",))]),
        sent("b#1", "The Danube is long.", [("Danube", ("river",))]),
    ]
    path = tmp_path / "corpus.jsonl"
    write_annotated_jsonl(path, rows)
    assert read_annotated_jsonl(path) == rows


def test_annotated_jsonl_rejects_duplicate_ids(tmp_path):
    rows = [
        sent("dup", "Alice met Bob.", [("Alice", ("person",))]),
        sent("dup", "Bob met Alice.", [("Bob", ("person",))]),
    ]
    path = tmp_path / "corpus.jsonl"
    write_annotated_jsonl(path, rows)
    with pytest.raises(CorpusFormatError):
        read_annotated_jsonl(path)


@pytest.mark.parametrize("read, record", [
    (read_annotated_jsonl, {"id": "s", "text": "Alice rests.", "mentions": []}),
    (read_instances_jsonl, {"task": "MD", "prompt": "[MD] Alice", "input": "Alice rests.",
                            "target": "Alice is person."}),
    (read_description_map, {"type": "person", "concepts": ["writer"], "filtered": False}),
    (read_predictions_jsonl, {"id": "s", "spans": []}),
])
def test_jsonl_readers_name_the_line_of_bad_json(tmp_path, read, record):
    path = tmp_path / "records.jsonl"
    # blank lines are skipped but still counted
    path.write_text(json.dumps(record) + "\n\n   \n" + '{"id": "s",\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:4: invalid JSON"):
        read(path)
    key = next(iter(record))
    missing = {k: v for k, v in record.items() if k != key}
    path.write_text(json.dumps(record) + "\n\n" + json.dumps(missing) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:3: missing field '{key}'"):
        read(path)
    path.write_text(json.dumps(record) + "\n\n", encoding="utf-8")
    read(path)


_INSTANCE = {"task": "MD", "prompt": "[MD] Alice", "input": "Alice rests.", "target": "Alice is person."}


@pytest.mark.parametrize("read, record, field, kind", [
    (read_annotated_jsonl, {"id": "s", "text": "Alice rests.",
                            "mentions": [{"surface": "Alice", "types": "person"}]}, "types",
     "a list of strings"),
    (read_annotated_jsonl, {"id": "s", "text": "Alice rests.",
                            "mentions": [{"surface": "Alice", "types": ["person", 7]}]}, "types",
     "a list of strings"),
    (read_description_map, {"type": "person", "concepts": "writer"}, "concepts", "a list of strings"),
    (read_annotated_jsonl, {"id": "s", "text": 5, "mentions": []}, "text", "a string"),
    (read_annotated_jsonl, {"id": 7, "text": "Alice rests.", "mentions": []}, "id", "a string"),
    (read_annotated_jsonl, {"id": "s", "text": "Alice rests.",
                            "mentions": [{"surface": 5, "types": ["person"]}]}, "surface", "a string"),
    (read_instances_jsonl, {**_INSTANCE, "prompt": 5}, "prompt", "a string"),
    (read_instances_jsonl, {**_INSTANCE, "input": ["Alice rests."]}, "input", "a string"),
    (read_description_map, {"type": 5, "concepts": ["writer"]}, "type", "a string"),
])
def test_jsonl_readers_reject_a_field_of_the_wrong_kind(tmp_path, read, record, field, kind):
    path = tmp_path / "records.jsonl"
    path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(path))}:2: field '{field}' must be {kind}, got"):
        read(path)


def test_annotated_jsonl_rejects_a_surface_absent_from_its_text(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_annotated_jsonl(path, [sent("a#0", "Alice met Bob.", [("Alice", ("person",))]),
                                 sent("b#0", "Bob waved.", [("Zed", ("person",))])])
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(path))}:2: sentence 'b#0': surface 'Zed'"):
        read_annotated_jsonl(path)
    # mentions out of first-occurrence order are data, not a format error
    rows = [sent("c#0", "Alice met Bob.", [("Bob", ("person",)), ("Alice", ("person",))])]
    write_annotated_jsonl(path, rows)
    assert read_annotated_jsonl(path) == rows


_word = st.text(alphabet="abcdefgDEF", min_size=1, max_size=6)


@st.composite
def _sentences(draw):
    words = draw(st.lists(_word, min_size=2, max_size=8))
    text = " ".join(words) + "."
    k = draw(st.integers(1, min(3, len(words))))
    mentions = tuple(
        TypedMention(surface=w, types=tuple(draw(st.lists(_word, min_size=1, max_size=2, unique=True))))
        for w in words[:k]
    )
    return AnnotatedSentence(sentence=Sentence(id=draw(st.uuids()).hex, text=text), mentions=mentions)


@given(_sentences())
def test_record_round_trip_property(s):
    assert annotated_from_record(annotated_to_record(s)) == s


def _records_then_fail():
    yield {"id": "a"}
    raise RuntimeError("source failed mid-write")


def test_write_jsonl_failing_midway_leaves_no_file(tmp_path):
    dest = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError):
        write_jsonl(dest, _records_then_fail())
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_failing_midway_keeps_the_old_file(tmp_path):
    dest = tmp_path / "model.npz"
    dest.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(dest, binary=True) as fh:
            fh.write(b"new, half written")
            raise RuntimeError("crash")
    assert dest.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [dest]
    with atomic_write(dest) as fh:
        fh.write("caf\u00e9\n")
    assert dest.read_bytes() == "caf\u00e9\n".encode("utf-8")
    assert list(tmp_path.iterdir()) == [dest]
