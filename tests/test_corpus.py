"""Distant-supervision corpus construction from KB and page dumps."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from sdnet.corpus import (
    ABBREVIATIONS,
    Anchor,
    BuildConfig,
    KbItem,
    WikiPage,
    build_corpus,
    build_type_dictionary,
    claimed_types,
    harvest_mentions,
    read_kb_jsonl,
    read_pages_jsonl,
    split_sentences,
    truncate_type_name,
    type_table,
)
from sdnet.data import (OTHER_TYPE, TypeDictionary, annotated_to_record, read_annotated_jsonl,
                        validate_annotated_sentence, write_annotated_jsonl)
from helpers import (FIXTURES, reference_build_type_dictionary, reference_entity_types,
                     reference_split_sentences)

CFG = BuildConfig()


# ---- type name truncation ----

def test_truncation_clips_at_first_preposition():
    assert truncate_type_name("state award of the Republic of Moldova", CFG) == "state award"
    assert truncate_type_name("mountain range in Europe", CFG) == "mountain range"


def test_truncation_clips_to_token_budget_without_preposition():
    assert truncate_type_name("first second third fourth", CFG) == "first second third"


def test_truncation_keeps_short_names_unchanged():
    assert truncate_type_name("association football player", CFG) == "association football player"
    assert truncate_type_name("city", CFG) == "city"


def test_truncation_lowercases():
    assert truncate_type_name("Book Series", CFG) == "book series"


def test_truncation_of_a_blank_name_is_the_empty_string():
    assert truncate_type_name(" \t ", CFG) == ""


def test_truncation_of_name_starting_with_preposition_keeps_token_prefix():
    # an empty pre-preposition prefix would erase the name; fall back to the budget
    assert truncate_type_name("of mice and men and more", CFG) == "of mice and"


# ---- sentence splitting ----

def _texts(text: str) -> list[str]:
    return [text[a:b] for a, b in split_sentences(text)]


def test_split_on_terminator_followed_by_uppercase():
    assert _texts("Dr. Kohl came to Beijing. He left.") == [
        "Dr. Kohl came to Beijing.", "He left."]


def test_split_abbreviations_do_not_break_sentences():
    assert _texts("J.K. Rowling wrote books. Mr. Smith read them.") == [
        "J.K. Rowling wrote books.", "Mr. Smith read them."]
    assert _texts("The U.S. Navy sailed. It returned.") == [
        "The U.S. Navy sailed.", "It returned."]


def test_split_on_question_and_exclamation():
    assert _texts("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]


def test_split_before_digit():
    assert _texts("It sold well. 1990 was better.") == ["It sold well.", "1990 was better."]


def test_no_split_before_lowercase():
    assert _texts("It was cheap. really cheap.") == ["It was cheap. really cheap."]


def test_split_spans_index_into_original_text():
    text = "  Alice met Bob.   Bob waved. "
    spans = split_sentences(text)
    assert [text[a:b] for a, b in spans] == ["Alice met Bob.", "Bob waved."]


# upper case and digits beyond ASCII, whitespace that is not ASCII ("\x1c" and
# "\x85" are `str.isspace`), runs of terminators, and stoplisted abbreviations
_SPLIT_PIECES = st.one_of(
    st.text(alphabet="aZ9.!? \n\t\x1c\x85\xa0\u2003\u3000\xc9\u03a9\xe9\u0663\u2167", max_size=4),
    st.sampled_from(sorted(ABBREVIATIONS)),
    st.sampled_from(["...", "?!", ". ", ".\u3000", "Dr.", "x.y.", "\u00b2"]),
)


@settings(max_examples=500)
@given(st.lists(_SPLIT_PIECES, max_size=12).map("".join))
@example("Dr. Kohl came. \u3000Se\xf1or left!  9 went?\x85\xc9t\xe9. U.S. Navy...  Yes")
def test_split_sentences_matches_the_per_character_scan(text):
    assert split_sentences(text) == reference_split_sentences(text)


# ---- type dictionary ----

def _item(i, label, instance_of=(), occupation=(), subclass_of=(), aliases=()):
    return KbItem(item_id=i, label=label, aliases=tuple(aliases),
                  instance_of=tuple(instance_of), subclass_of=tuple(subclass_of),
                  occupation=tuple(occupation))


def _claims(items, label_of, cfg=CFG, tally=None) -> dict[str, tuple[str, ...]]:
    tally = Counter() if tally is None else tally
    return {it.item_id: claimed_types(it, cfg, label_of, tally) for it in items}


def _types_of(items, d) -> dict[str, tuple[str, ...]]:
    label_of = {it.item_id: it.label for it in items}
    return type_table(_claims(items, label_of), d)


def test_dictionary_counts_distinct_items_and_drops_rare_types():
    items = {}
    items["T1"] = _item("T1", "city")
    items["T2"] = _item("T2", "asteroid family")
    for i in range(5):
        items[f"Q{i}"] = _item(f"Q{i}", f"c{i}", instance_of=("T1",))
    for i in range(4):
        items[f"A{i}"] = _item(f"A{i}", f"a{i}", instance_of=("T2",))
    label_of = {k: v.label for k, v in items.items()}
    d = build_type_dictionary(_claims(items.values(), label_of).values(), CFG)
    assert d.entries.get("city") == 5
    assert "asteroid family" not in d
    assert OTHER_TYPE in d


def test_dictionary_merges_truncated_names():
    items = [_item("T1", "state award of the Republic of Moldova")]
    items += [_item(f"Q{i}", f"m{i}", instance_of=("T1",)) for i in range(6)]
    label_of = {it.item_id: it.label for it in items}
    d = build_type_dictionary(_claims(items, label_of).values(), CFG)
    assert d.entries.get("state award") == 6
    assert "state award of the republic of moldova" not in d


def test_a_claimed_type_that_is_not_a_name_is_no_dictionary_type_and_is_tallied():
    # "city; capital" would prompt two types and "Oslo is city; capital." two clauses
    items = [_item("T1", "City; Capital"), _item("T2", "city"), _item("T3", "x is y of z")]
    items += [_item(f"Q{i}", f"o{i}", instance_of=("T1", "T2", "T3", " ")) for i in range(5)]
    label_of = {it.item_id: it.label for it in items}
    tally = Counter()
    claims = _claims(items, label_of, tally=tally)
    d = build_type_dictionary(claims.values(), CFG)
    assert d.types() == ["city"]
    assert claims["Q0"] == ("city",)
    assert tally == Counter(unsafe_type_dropped=15)


def test_build_corpus_drops_and_tallies_a_kb_claim_that_is_not_a_name(tmp_path):
    kb_path = tmp_path / "kb.jsonl"
    kb = [json.loads(line) for line in (FIXTURES / "kb_items.jsonl").read_text(encoding="utf-8").splitlines()]
    kb[0] = {**kb[0], "instance_of": [*kb[0].get("instance_of", ()), "city; capital"]}
    kb_path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in kb), encoding="utf-8")
    build = build_corpus(kb_path, FIXTURES / "pages.jsonl", CFG)
    golden = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl", CFG)
    assert "city; capital" not in build.dictionary
    assert build.dictionary == golden.dictionary and build.sentences == golden.sentences
    assert build.tally - golden.tally == Counter(unsafe_type_dropped=1)


def test_entity_types_resolved_in_claim_order_with_other_fallback():
    label_of = {"T1": "human", "T4": "writer", "T5": "novelist"}
    d = TypeDictionary(entries={"human": 9, "writer": 9, "novelist": 9})
    item = _item("Q1", "X", instance_of=("T1",), occupation=("T4", "T5"))
    unknown = _item("Q2", "Y", instance_of=("T9",))
    types_of = type_table(_claims([item, unknown], label_of), d)
    assert types_of["Q1"] == ("human", "writer", "novelist")
    assert types_of["Q2"] == (OTHER_TYPE,)
    # an anchor whose target is not in the table
    tally = Counter()
    [zed] = harvest_mentions(_page("P", "Zed waved.", [("Zed", "Q9")]), types_of, CFG,
                             tally=tally, shared={})
    assert zed.mentions[0].types == (OTHER_TYPE,)
    assert tally["unknown_anchor_target"] == 1


# "of" and "in" are stoplist prepositions; "is" and "b;" make names that are not names of the grammar
_WORDS = ["a", "B", "x", "other", "of", "in", "is", "b;"]
_name = st.one_of(
    st.sampled_from(["", " ", "\t ", "other", "Other", "mountain range in Europe"]),
    st.builds(lambda words, sep: sep.join(words),
              st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5), st.sampled_from([" ", "  "])),
)


@st.composite
def _kbs(draw):
    """Items whose claims name other items (by id) or literal names: blank,
    over the token budget with and without a preposition, `other`, repeated."""
    ids = [f"Q{i}" for i in range(draw(st.integers(1, 10)))]
    value = st.one_of(st.sampled_from(ids + ["Q99"]), _name)  # no item has id Q99
    claims = st.lists(value, max_size=4).map(tuple)
    items = [KbItem(item_id=i, label=draw(_name), instance_of=draw(claims),
                    subclass_of=draw(claims), occupation=draw(claims)) for i in ids]
    cfg = BuildConfig(min_type_instances=draw(st.integers(1, 3)), max_type_tokens=draw(st.integers(1, 3)))
    return items, cfg


@given(_kbs())
@example(([
    _item("Q0", "first second third fourth", instance_of=("Q1", "other", "  ")),
    _item("Q1", "mountain range in Europe", instance_of=("Q0", "Q0"), occupation=("Q0", "Q2")),
    _item("Q2", "", subclass_of=("Q2", "mountain range of Asia", "Q1")),
], BuildConfig(min_type_instances=1)))
def test_claimed_types_give_the_reference_dictionary_and_entity_types(kb):
    items, cfg = kb
    label_of = {it.item_id: it.label for it in items}
    claims = _claims(items, label_of, cfg)
    d = build_type_dictionary(claims.values(), cfg)
    ref = reference_build_type_dictionary(items, cfg, label_of)
    assert d.to_json() == ref.to_json()
    assert type_table(claims, d) == {it.item_id: reference_entity_types(it, ref, cfg, label_of)
                                     for it in items}


# ---- harvesting ----

def _page(title: str, text: str, anchors: list[tuple[str, str]]) -> WikiPage:
    cursor: dict[str, int] = {}
    rows = []
    for surface, target in anchors:
        at = text.find(surface, cursor.get(surface, 0))
        assert at >= 0
        cursor[surface] = at + len(surface)
        rows.append(Anchor(surface=surface, target=target, offset=at))
    return WikiPage(title=title, text=text, anchors=tuple(rows))


def _mini_world():
    items = {
        "T1": _item("T1", "human"),
        "T2": _item("T2", "city"),
        "Q1": _item("Q1", "Ada Byron", instance_of=("T1",), aliases=("Countess",)),
        "Q2": _item("Q2", "Velgrad", instance_of=("T2",)),
    }
    for i in range(5):
        items[f"H{i}"] = _item(f"H{i}", f"h{i}", instance_of=("T1",))
        items[f"C{i}"] = _item(f"C{i}", f"c{i}", instance_of=("T2",))
    label_of = {k: v.label for k, v in items.items()}
    d = build_type_dictionary(_claims(items.values(), label_of).values(), CFG)
    return items, d


def test_harvest_anchors_and_self_label_occurrences():
    items, d = _mini_world()
    page = _page("Ada Byron", "Ada Byron lived in Velgrad. Ada Byron wrote programs.",
                 [("Velgrad", "Q2")])
    sents = harvest_mentions(page, _types_of(items.values(), d), CFG, Counter(), {},
                             page_item=items["Q1"])
    assert [s.id for s in sents] == ["Ada Byron#0", "Ada Byron#1"]
    assert [(m.surface, m.types) for m in sents[0].mentions] == [
        ("Ada Byron", ("human",)), ("Velgrad", ("city",))]
    assert [(m.surface, m.types) for m in sents[1].mentions] == [("Ada Byron", ("human",))]
    for s in sents:
        assert validate_annotated_sentence(s)


def test_harvest_skips_self_label_occurrence_overlapping_anchor():
    items, d = _mini_world()
    page = _page("Ada Byron", "Ada Byron met Ada Byron.", [("Ada Byron", "Q1")])
    sents = harvest_mentions(page, _types_of(items.values(), d), CFG, Counter(), {},
                             page_item=items["Q1"])
    # the anchored occurrence is kept once; the free occurrence comes from harvesting
    assert len(sents) == 1
    assert [(m.surface,) for m in sents[0].mentions] == [("Ada Byron",), ("Ada Byron",)]


def test_harvest_skips_self_label_occurrence_inside_an_earlier_longer_anchor():
    items, d = _mini_world()
    # "Ada Byron" at 4 lies inside the anchor at 0, not inside the later-starting one at 1
    page = WikiPage("Ada Byron", "The Ada Byron Prize went to Ada Byron.",
                    (Anchor("The Ada Byron Prize", "Q2", 0), Anchor("he", "Q2", 1)))
    tally = Counter()
    [s] = harvest_mentions(page, _types_of(items.values(), d), CFG, tally, {}, page_item=items["Q1"])
    assert [m.surface for m in s.mentions] == ["The Ada Byron Prize", "he", "Ada Byron"]
    assert not tally


def test_harvest_drops_entity_free_sentences_and_unsafe_surfaces():
    items, d = _mini_world()
    items = dict(items)
    items["Q3"] = _item("Q3", "Velgrad, Northern Side", instance_of=("T2",))
    tally = Counter()
    # a separator inside, and blank space at an end, are both not a name
    page = _page("Ada Byron",
                 "Velgrad, Northern Side is cold. Nothing here at all. Ada Byron naps. Velgrad rests.",
                 [("Velgrad, Northern Side", "Q3"), ("Velgrad ", "Q2")])
    sents = harvest_mentions(page, _types_of(items.values(), d), CFG, page_item=items["Q1"],
                             tally=tally, shared={})
    assert [s.id for s in sents] == ["Ada Byron#2"]
    assert tally["unsafe_surface_dropped"] == 2
    assert tally["entity_free_sentence_dropped"] >= 1


def test_harvest_tallies_every_mention_that_crosses_its_sentence_end():
    items, d = _mini_world()
    # both anchors start inside "Alpha Beta." and end in the next sentence;
    # the first starts at the sentence's first character
    page = WikiPage("A", "Alpha Beta. Gamma delta.",
                    (Anchor("Alpha Beta. Gamma", "Q2", 0), Anchor("Beta. Gamma", "Q2", 6)))
    tally = Counter()
    assert harvest_mentions(page, _types_of(items.values(), d), CFG, tally=tally, shared={}) == []
    assert tally["cross_boundary_mention"] == 2


def test_harvest_neither_keeps_nor_tallies_a_mention_starting_between_sentences():
    items, d = _mini_world()
    # " Velgrad" starts in the whitespace after "Alpha rests.", outside every sentence span
    page = WikiPage("A", "Alpha rests.  Velgrad sleeps.", (Anchor(" Velgrad", "Q2", 13),))
    tally = Counter()
    assert harvest_mentions(page, _types_of(items.values(), d), CFG, tally, {}) == []
    assert tally == {"entity_free_sentence_dropped": 2}


# ---- file-level builds ----

def test_read_kb_and_pages_tally_malformed_lines(tmp_path):
    kb_path = tmp_path / "kb.jsonl"
    kb_path.write_text(
        json.dumps({"id": "T1", "label": "city"}) + "\n"
        + "{not json}\n"
        + json.dumps({"label": "missing id"}) + "\n"
        + json.dumps({"id": "Q1", "label": "Ada", "instance_of": "Q5"}) + "\n"
        + json.dumps({"id": "Q2", "label": "Bo", "aliases": ["Bob", None]}) + "\n"
        + json.dumps({"id": "T2", "label": 5}) + "\n"
        + json.dumps({"id": 7, "label": "Cy"}) + "\n",
        encoding="utf-8")
    tally = Counter()
    items = read_kb_jsonl(kb_path, tally)
    assert list(items) == ["T1"]
    assert tally["malformed_kb_record"] == 6

    pages_path = tmp_path / "pages.jsonl"
    pages_path.write_text(
        json.dumps({"title": "A", "text": "A rests.", "anchors": []}) + "\n"
        + json.dumps({"title": "B", "text": "B.", "anchors": [
            {"surface": "zzz", "target": "Q1", "offset": 0}]}) + "\n"
        + json.dumps({"title": "C", "text": 5, "anchors": []}) + "\n"
        + json.dumps({"title": "D", "text": "D rests.", "anchors": [
            {"surface": "D", "target": 1, "offset": 0}]}) + "\n"
        + json.dumps({"title": "E", "text": "Alice rests.", "anchors": [
            {"surface": "Alice", "target": "Q1", "offset": False}]}) + "\n"
        + json.dumps({"title": "F", "text": "Alice rests.", "anchors": [  # slices to "Alice"
            {"surface": "Alice", "target": "Q1", "offset": -len("Alice rests.")}]}) + "\n",
        encoding="utf-8")
    tally = Counter()
    pages = read_pages_jsonl(pages_path, tally)
    assert [p.title for p in pages] == ["A"]
    assert tally["malformed_page_record"] == 5


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "5", "null"])
def test_a_kb_or_page_line_that_is_not_an_object_is_tallied_malformed(tmp_path, line):
    kb_path, pages_path = tmp_path / "kb.jsonl", tmp_path / "pages.jsonl"
    kb_path.write_text(line + "\n" + (FIXTURES / "kb_items.jsonl").read_text(encoding="utf-8"),
                       encoding="utf-8")
    pages_path.write_text((FIXTURES / "pages.jsonl").read_text(encoding="utf-8") + line + "\n",
                          encoding="utf-8")
    build = build_corpus(kb_path, pages_path, CFG)
    golden = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl", CFG)
    assert build.sentences == golden.sentences
    assert build.tally - golden.tally == Counter(malformed_kb_record=1, malformed_page_record=1)


def test_a_kb_or_page_line_that_is_not_utf8_is_tallied_and_the_build_keeps_its_golden_bytes(tmp_path):
    kb_path, pages_path, out = tmp_path / "kb.jsonl", tmp_path / "pages.jsonl", tmp_path / "corpus.jsonl"
    kb_path.write_bytes(b'{"id": "Q\xff", "label": "x"}\n' + (FIXTURES / "kb_items.jsonl").read_bytes())
    pages_path.write_bytes((FIXTURES / "pages.jsonl").read_bytes()
                           + b'{"title": "\xff", "text": "x", "anchors": []}\n')
    build = build_corpus(kb_path, pages_path, CFG)
    write_annotated_jsonl(out, build.sentences)
    assert out.read_bytes() == (FIXTURES / "golden_corpus.jsonl").read_bytes()
    assert (build.dictionary.to_json() + "\n").encode("utf-8") == (FIXTURES / "golden_dict.json").read_bytes()
    golden = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl", CFG)
    assert build.tally - golden.tally == Counter(malformed_kb_record=1, malformed_page_record=1)


def test_a_repeated_page_title_is_tallied_and_only_its_first_page_harvested(tmp_path):
    pages_path, out = tmp_path / "pages.jsonl", tmp_path / "corpus.jsonl"
    first, second = (FIXTURES / "pages.jsonl").read_text(encoding="utf-8").splitlines()[:2]
    # the second page's text under the first page's title: its sentences would reuse the first's ids
    repeat = {**json.loads(second), "title": json.loads(first)["title"]}
    pages_path.write_text((FIXTURES / "pages.jsonl").read_text(encoding="utf-8")
                          + json.dumps(repeat, ensure_ascii=False) + "\n", encoding="utf-8")
    build = build_corpus(FIXTURES / "kb_items.jsonl", pages_path, CFG)
    golden = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl", CFG)
    assert build.tally - golden.tally == Counter(duplicate_page_title=1)
    write_annotated_jsonl(out, build.sentences)
    assert read_annotated_jsonl(out) == golden.sentences


def test_fixture_build_matches_golden_corpus():
    build = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl", CFG)
    got = "".join(json.dumps(annotated_to_record(s), ensure_ascii=False) + "\n"
                  for s in build.sentences)
    assert got == (FIXTURES / "golden_corpus.jsonl").read_text(encoding="utf-8")
    assert build.dictionary.to_json() + "\n" == (FIXTURES / "golden_dict.json").read_text(
        encoding="utf-8")


def test_fixture_build_shares_one_mention_per_surface_and_types(tmp_path):
    build = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl", CFG)
    mentions = [m for s in build.sentences for m in s.mentions]
    pairs = {(m.surface, m.types) for m in mentions}
    assert len({id(m) for m in mentions}) == len(pairs) < len(mentions)
    path = tmp_path / "corpus.jsonl"
    write_annotated_jsonl(path, build.sentences)
    assert path.read_bytes() == (FIXTURES / "golden_corpus.jsonl").read_bytes()


def test_fixture_build_dictionary_cases():
    build = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl", CFG)
    d = build.dictionary
    assert "state award" in d
    assert "state award of the republic of moldova" not in d
    assert "asteroid family" not in d


def test_fixture_rowling_page_shape():
    build = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl", CFG)
    rows = [s for s in build.sentences if s.id.startswith("J.K. Rowling#")]
    assert len(rows) == 3
    assert sum(len(s.mentions) for s in rows) == 5
    assert rows[0].mentions[0].surface == "J.K. Rowling"


def test_abbreviation_stoplist_is_usable():
    assert "Dr." in ABBREVIATIONS
    assert "J.K." in ABBREVIATIONS
