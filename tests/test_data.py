"""Core record types, ordering keys, and JSONL round-trips."""

from __future__ import annotations

import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from sdnet.data import (
    AnnotatedSentence,
    CorpusFormatError,
    OTHER_TYPE,
    Sentence,
    SurfaceAbsentError,
    TargetSequence,
    TypeDictionary,
    TypedMention,
    annotated_from_record,
    annotated_to_record,
    atomic_write,
    ordered_unique_surfaces,
    read_annotated_jsonl,
    read_file,
    validate_annotated_sentence,
    write_annotated_jsonl,
    write_jsonl,
)
from sdnet.codec import parse_generated
from sdnet.descriptions import build_cooccurrence_descriptions, read_description_map
from sdnet.evaluation import corpus_schema, gold_spans
from sdnet.locate import read_predictions_jsonl
from sdnet.sampling import (SamplerConfig, build_pretrain_instances, eg_pairs, instance_to_record,
                            read_instances_jsonl)
from helpers import sent


def test_mention_order_sorts_by_first_index_then_longer_first():
    # "Paris" and "Paris Region" both start at index 0: the longer comes first
    s = sent("o0", "Paris Region is near Paris.",
             [("Paris", ("city",)), ("near", ("x",)), ("Paris Region", ("region",))])
    assert [m.surface for m in s.mentions] == ["Paris Region", "Paris", "near"]


def test_mention_order_absent_surface_raises():
    with pytest.raises(SurfaceAbsentError):
        sent("o1", "Alice met Bob.", [("Carol", ("person",))])


def test_validation_fails_a_sentence_reordered_behind_the_constructors_back():
    s = sent("o2", "Alice met Bob.", [("Alice", ("person",)), ("Bob", ("person",))])
    assert validate_annotated_sentence(s)
    object.__setattr__(s, "mentions", s.mentions[::-1])
    assert not validate_annotated_sentence(s)


def test_typed_mention_rejects_empty_fields():
    with pytest.raises(ValueError):
        TypedMention(surface="", types=("person",))
    with pytest.raises(ValueError):
        TypedMention(surface="Alice", types=())
    with pytest.raises(ValueError, match="^mention 'Alice' has a blank type name$"):
        TypedMention(surface="Alice", types=("person", " "))


def test_validate_annotated_sentence_flags_absent_surface():
    # a sentence whose surface is absent from its text cannot be made at all
    with pytest.raises(SurfaceAbsentError, match="^sentence 's0': surface 'Carol' not in its text$"):
        AnnotatedSentence(
            sentence=Sentence(id="s0", text="Alice met Bob."),
            mentions=(TypedMention(surface="Carol", types=("person",)),),
        )
    good = sent("s1", "Alice met Bob.", [("Alice", ("person",))])
    assert validate_annotated_sentence(good)


def test_type_dictionary_always_contains_other():
    d = TypeDictionary(entries={"person": 10, "city": 7})
    assert OTHER_TYPE in d
    assert list(d.entries) == ["city", "other", "person"]
    assert d.types() == ["city", "person"]


def test_type_dictionary_json_round_trip(tmp_path):
    d = TypeDictionary(entries={"person": 10, "state award": 6}, min_count=5, max_tokens=3)
    path = tmp_path / "dict.json"
    path.write_text(d.to_json(), encoding="utf-8")
    d2 = read_file(path, TypeDictionary.from_json)
    assert d2.entries == d.entries
    assert d2.min_count == d.min_count
    assert d2.max_tokens == d.max_tokens


def test_eg_target_pairs_carry_exactly_one_label():
    # EG targets come from `eg_pairs` and `parse_generated`, which give each pair one label
    s = sent("a#0", "Alice met Bob.", [("Alice", ("person", "writer")), ("Bob", ("person",))])
    assert eg_pairs(s, ["writer", "person"]) == (
        ("Alice", ("writer",)), ("Alice", ("person",)), ("Bob", ("person",)))
    assert parse_generated("EG", "Alice is person, writer.").target == TargetSequence(
        task="EG", pairs=(("Alice", ("person, writer",)),))


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


def test_prediction_jsonl_rejects_duplicate_ids(tmp_path):
    # a second line for one sentence would replace the first line's spans
    path = tmp_path / "pred.jsonl"
    span = {"surface": "Alice", "type": "person", "start": 0, "end": 5}
    write_jsonl(path, [{"id": "dup", "spans": [span]}, {"id": "other", "spans": []},
                       {"id": "dup", "spans": []}])
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:3: duplicate sentence id 'dup'$"):
        read_predictions_jsonl(path)


_READ_RECORDS = [  # each JSONL reader with a record it accepts
    (read_annotated_jsonl, {"id": "s", "text": "Alice rests.", "mentions": []}),
    (read_instances_jsonl, {"task": "MD", "prompt": "[MD] Alice", "input": "Alice rests.",
                            "target": "Alice is person."}),
    (read_description_map, {"type": "person", "concepts": ["writer"], "filtered": False}),
    (read_predictions_jsonl, {"id": "s", "spans": []}),
]


@pytest.mark.parametrize("read, record", _READ_RECORDS)
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


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "5", "null"])
@pytest.mark.parametrize("read, record", _READ_RECORDS)
def test_jsonl_readers_name_the_line_that_is_not_an_object(tmp_path, read, record, line):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:2: record must be a JSON object$"):
        read(path)


@pytest.mark.parametrize("read, record", _READ_RECORDS)
def test_jsonl_readers_name_the_line_that_is_not_utf8_and_read_crlf_line_ends(tmp_path, read, record):
    path = tmp_path / "records.jsonl"
    line = json.dumps(record).encode("utf-8")
    path.write_bytes(line + b"\n" + '{"id": "café"}'.encode("latin-1") + b"\n")
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(path))}:2: 'utf-8' codec can't decode byte 0xe9"):
        read(path)
    path.write_bytes(line + b"\n")
    lf = read(path)
    path.write_bytes(b"\r\n" + line + b"\r\n")
    assert read(path) == lf


_INSTANCE = {"task": "MD", "prompt": "[MD] Alice", "input": "Alice rests.", "target": "Alice is person."}
_SPAN = {"surface": "Alice", "type": "person", "start": 0, "end": 5}


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
    (read_annotated_jsonl, {"id": "s", "text": "Alice rests.", "mentions": "Alice"}, "mentions",
     "a list of objects"),
    (read_annotated_jsonl, {"id": "s", "text": "Alice rests.",
                            "mentions": {"surface": "Alice", "types": ["person"]}}, "mentions",
     "a list of objects"),
    (read_predictions_jsonl, {"id": 7, "spans": []}, "id", "a string"),
    (read_predictions_jsonl, {"id": "s", "spans": "ab"}, "spans", "a list of objects"),
    (read_predictions_jsonl, {"id": "s", "spans": {"surface": 1}}, "spans", "a list of objects"),
    (read_predictions_jsonl, {"id": "s", "spans": ["ab"]}, "spans", "a list of objects"),
    (read_predictions_jsonl, {"id": "s", "spans": [{**_SPAN, "surface": ["Alice"]}]}, "surface", "a string"),
    (read_predictions_jsonl, {"id": "s", "spans": [{**_SPAN, "type": 9}]}, "type", "a string"),
    (read_predictions_jsonl, {"id": "s", "spans": [{**_SPAN, "start": 0.5}]}, "start", "an integer"),
    (read_predictions_jsonl, {"id": "s", "spans": [{**_SPAN, "end": "5"}]}, "end", "an integer"),
    (read_predictions_jsonl, {"id": "s", "spans": [{**_SPAN, "end": True}]}, "end", "an integer"),
])
def test_jsonl_readers_reject_a_field_of_the_wrong_kind(tmp_path, read, record, field, kind):
    path = tmp_path / "records.jsonl"
    path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(path))}:2: field '{field}' must be {kind}, got"):
        read(path)


def _record(sid: str, text: str, mentions: list[tuple[str, list[str]]]) -> dict:
    return {"id": sid, "text": text, "mentions": [{"surface": s, "types": t} for s, t in mentions]}


def test_annotated_jsonl_rejects_a_surface_absent_from_its_text(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [_record("a#0", "Alice met Bob.", [("Alice", ["person"])]),
                       _record("b#0", "Bob waved.", [("Zed", ["person"])])])
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(path))}:2: sentence 'b#0': surface 'Zed'"):
        read_annotated_jsonl(path)
    # mentions out of first-occurrence order are data, not a format error:
    # the sentence read holds them in text order
    write_jsonl(path, [_record("c#0", "Alice met Bob.", [("Bob", ["person"]), ("Alice", ["city"])])])
    (got,) = read_annotated_jsonl(path)
    assert got.mentions == (TypedMention("Alice", ("city",)), TypedMention("Bob", ("person",)))


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


_ALICE = ("Alice visited Paris near the Seine with Bob.",
          [("Alice", ("person", "writer")), ("Paris", ("city", "capital")), ("Seine", ("river",)),
           ("Bob", ("person",))])


@st.composite
def _permuted_mentions(draw):
    """A text, mentions of distinct surfaces in a drawn order, and the same
    mentions in another drawn order."""
    words = draw(st.lists(_word, min_size=2, max_size=8))
    surfaces = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4, unique=True))
    types = st.lists(st.sampled_from(["person", "writer", "city", "river", OTHER_TYPE]),
                     min_size=1, max_size=3, unique=True)
    mentions = [(surface, tuple(draw(types))) for surface in surfaces]
    return " ".join(words) + ".", mentions, draw(st.permutations(mentions))


def _pretrain_bytes(s: AnnotatedSentence, dictionary: TypeDictionary, cfg: SamplerConfig) -> str:
    buf = io.StringIO()
    instances = build_pretrain_instances([s], dictionary, build_cooccurrence_descriptions([s]), cfg)
    write_jsonl(buf, map(instance_to_record, instances))
    return buf.getvalue()


@settings(max_examples=60)
@given(_permuted_mentions())
@example((_ALICE[0], _ALICE[1], _ALICE[1][::-1]))
def test_mentions_given_in_any_order_make_the_same_sentence(case):
    """Mentions are held in text order, so every MD and EG target built from
    a sentence is the same whatever order its mentions were listed in."""
    text, mentions, permuted = case
    s, p = sent("s#0", text, mentions), sent("s#0", text, permuted)
    assert p == s
    assert annotated_to_record(p) == annotated_to_record(s)
    assert ordered_unique_surfaces(p) == ordered_unique_surfaces(s)
    # dict equality ignores key order, and the order of the types matters here
    assert (list(build_cooccurrence_descriptions([p]).items())
            == list(build_cooccurrence_descriptions([s]).items()))
    schema = corpus_schema([s])
    assert gold_spans(p, schema) == gold_spans(s, schema)
    dictionary = TypeDictionary({t: 5 for t in schema})
    for cfg in (SamplerConfig(), SamplerConfig(md_target_fraction=0.5)):
        assert _pretrain_bytes(p, dictionary, cfg) == _pretrain_bytes(s, dictionary, cfg)


def test_cooccurrence_descriptions_follow_text_order_whatever_the_listed_order():
    text, mentions = _ALICE
    s = sent("s#0", text, mentions[::-1])
    assert [m.surface for m in s.mentions] == ["Alice", "Paris", "Seine", "Bob"]
    assert list(build_cooccurrence_descriptions([s]).items()) == [
        ("person", ("writer",)), ("writer", ("person",)), ("city", ("capital",)), ("capital", ("city",)),
        ("river", ())]


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
