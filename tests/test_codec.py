"""Prompt/target serialization and the tolerant parser."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from sdnet.codec import (
    ALT_CLAUSE_SEPARATOR,
    SEPARATOR,
    UNSAFE_IN_SURFACE,
    parse_generated,
    parse_prompt_eg,
    parse_prompt_md,
    serialize_prompt_eg,
    serialize_prompt_md,
    serialize_target,
    surface_is_safe,
)
from sdnet.data import ConceptDescription, PromptEG, PromptMD, TargetSequence


def test_md_prompt_format():
    p = PromptMD(targets=("J.K. Rowling", "London"))
    assert serialize_prompt_md(p) == "[MD] J.K. Rowling; London"


def test_eg_prompt_with_and_without_concepts():
    entries = (
        ConceptDescription(type_id="person", concepts=("actor", "writer")),
        ConceptDescription(type_id="city", concepts=()),
    )
    assert serialize_prompt_eg(PromptEG(entries=entries)) == "[EG] person: {actor, writer}; city"


def test_target_serialization_separators_and_terminator():
    t = TargetSequence(task="EG", pairs=(("Alice", ("person",)), ("Paris", ("city",))))
    assert serialize_target(t) == "Alice is person; Paris is city."
    md = TargetSequence(task="MD", pairs=(("J.K. Rowling", ("person", "writer")),))
    assert serialize_target(md) == "J.K. Rowling is person, writer."


def test_empty_target_serializes_to_empty_string():
    assert serialize_target(TargetSequence(task="EG", pairs=())) == ""
    r = parse_generated("EG", "")
    assert r.target.pairs == ()
    assert r.diagnostics == []


def test_parse_accepts_period_clause_separation():
    r = parse_generated("EG", "China is GPE. a few days ago is date.")
    assert r.diagnostics == []
    assert r.target.pairs == (("China", ("GPE",)), ("a few days ago", ("date",)))


def test_parse_accepts_semicolon_clause_separation():
    r = parse_generated("EG", "China is GPE; a few days ago is date.")
    assert r.target.pairs == (("China", ("GPE",)), ("a few days ago", ("date",)))
    assert r.diagnostics == []


def test_period_inside_surface_does_not_split_clause():
    r = parse_generated("EG", "J.K. Rowling is person.")
    assert r.diagnostics == []
    assert r.target.pairs == (("J.K. Rowling", ("person",)),)


def test_md_clause_carries_concept_list():
    r = parse_generated("MD", "J.K. Rowling is person, writer.")
    assert r.diagnostics == []
    assert r.target.pairs == (("J.K. Rowling", ("person", "writer")),)


def test_rightmost_copula_wins_when_surface_contains_is_like_text():
    # "What is is" style: the split point is the last " is " of the clause
    r = parse_generated("EG", "The island of is is place.")
    assert r.target.pairs == (("The island of is", ("place",)),)


def test_parser_never_raises_and_reports_diagnostics():
    r = parse_generated("EG", "complete gibberish with no copula")
    assert r.target.pairs == ()
    assert r.diagnostics
    r2 = parse_generated("EG", "Alice is person; broken clause; Bob is person.")
    assert r2.target.pairs == (("Alice", ("person",)), ("Bob", ("person",)))
    assert r2.diagnostics


def test_prompt_parsing_round_trip():
    md = PromptMD(targets=("Alice", "Bob Smith"))
    assert parse_prompt_md(serialize_prompt_md(md)) == md
    eg = PromptEG(entries=(
        ConceptDescription(type_id="person", concepts=("actor",)),
        ConceptDescription(type_id="city", concepts=()),
    ))
    assert parse_prompt_eg(serialize_prompt_eg(eg)) == eg


def test_eg_prompt_parse_accepts_empty_braces():
    assert parse_prompt_eg("[EG] city: {}") == PromptEG(
        entries=(ConceptDescription(type_id="city", concepts=()),))


@pytest.mark.parametrize("text", ["[EG] person; ; city", "[EG] : {}", "[EG]  "])
def test_eg_prompt_parse_rejects_a_blank_type_entry(text):
    with pytest.raises(ValueError, match="blank type name"):
        parse_prompt_eg(text)
    with pytest.raises(ValueError, match="blank type name"):
        ConceptDescription(type_id=" ")


def test_surface_safety():
    assert surface_is_safe("J.K. Rowling")
    assert surface_is_safe("a few days ago")
    for marker in UNSAFE_IN_SURFACE:
        assert not surface_is_safe(f"x{marker}y")
    # "Acme Inc; is company." would split on "; "
    assert not surface_is_safe("Acme Inc;")


_safe_word = st.text(alphabet="abcdefghXYZ0123456789", min_size=1, max_size=8)
# surfaces may carry the grammar's punctuation and the copula's word
_surface_word = st.one_of(st.text(alphabet="abcXYZ0189.;,:{}", min_size=1, max_size=8),
                          st.just("is"))

_safe_surface = st.lists(_surface_word, min_size=1, max_size=3).map(" ".join).filter(surface_is_safe)


@st.composite
def _targets(draw):
    task = draw(st.sampled_from(["MD", "EG"]))
    n = draw(st.integers(0, 5))
    pairs = []
    for _ in range(n):
        surface = draw(_safe_surface)
        k = 1 if task == "EG" else draw(st.integers(1, 3))
        labels = tuple(draw(st.lists(_safe_word, min_size=k, max_size=k, unique=True)))
        pairs.append((surface, labels))
    return TargetSequence(task=task, pairs=tuple(pairs))


@given(_targets())
def test_serialize_parse_round_trip_property(target):
    text = serialize_target(target)
    # generated text may also separate clauses with ". "
    for variant in (text, text.replace(SEPARATOR, ALT_CLAUSE_SEPARATOR)):
        r = parse_generated(target.task, variant)
        assert r.diagnostics == []
        assert r.target == target


@given(st.lists(_safe_surface, min_size=1, max_size=5, unique=True))
def test_md_prompt_round_trip_property(surfaces):
    p = PromptMD(targets=tuple(surfaces))
    assert parse_prompt_md(serialize_prompt_md(p)) == p


@given(st.lists(st.tuples(_safe_word, st.lists(_safe_word, max_size=3, unique=True)),
                min_size=1, max_size=4, unique_by=lambda row: row[0]))
def test_eg_prompt_round_trip_property(rows):
    p = PromptEG(entries=tuple(
        ConceptDescription(type_id=t, concepts=tuple(cs)) for t, cs in rows))
    assert parse_prompt_eg(serialize_prompt_eg(p)) == p
