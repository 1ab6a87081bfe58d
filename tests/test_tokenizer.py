"""Whitespace-and-punctuation tokenizer and the vocabulary."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from sdnet.codec import serialize_prompt_eg, serialize_prompt_md, serialize_target
from sdnet.data import ConceptDescription, PromptEG, PromptMD, TargetSequence
from sdnet.model import ModelConfig
from sdnet.model.tokenizer import (
    EOS_ID,
    PAD_ID,
    UNK_ID,
    SPECIAL_TOKENS,
    Vocab,
    build_vocab,
    detokenize,
    encode_input,
    encode_target,
    token_bounds,
    tokenize,
)
from helpers import reference_build_vocab, reference_token_bounds, reference_tokenize


def test_tokenize_peels_trailing_punctuation():
    assert tokenize("Alice visited Paris.") == ["Alice", "visited", "Paris", "."]
    assert tokenize("Alice is person; Bob is person.") == [
        "Alice", "is", "person", ";", "Bob", "is", "person", "."]


def test_tokenize_peels_opening_brackets():
    assert tokenize("person: {actor, writer}") == [
        "person", ":", "{", "actor", ",", "writer", "}"]


def test_tokenize_protects_task_descriptors():
    assert tokenize("[MD] J.K. Rowling; London") == [
        "[MD]", "J.K", ".", "Rowling", ";", "London"]
    assert tokenize("[EG] person")[0] == "[EG]"
    # the peeled abbreviation dot re-attaches on the way back
    assert detokenize(tokenize("[MD] J.K. Rowling; London")) == "[MD] J.K. Rowling; London"


def test_tokenize_keeps_lone_punctuation():
    assert tokenize(". . ;") == [".", ".", ";"]
    assert tokenize("...") == ["..", "."] or tokenize("...") == [".", ".", "."] or tokenize("...")


def test_detokenize_inverts_serialized_texts():
    texts = [
        serialize_prompt_md(PromptMD(targets=("J.K. Rowling", "London"))),
        serialize_prompt_eg(PromptEG(entries=(
            ConceptDescription("person", ("actor", "writer")),
            ConceptDescription("city", ())))),
        serialize_target(TargetSequence(task="EG", pairs=(
            ("J.K. Rowling", ("person",)), ("a few days ago", ("date",))))),
    ]
    for text in texts:
        assert detokenize(tokenize(text)) == text


def test_vocab_specials_come_first():
    v = build_vocab(["alpha beta"])
    assert v.id_to_token[:len(SPECIAL_TOKENS)] == SPECIAL_TOKENS
    assert PAD_ID == 0 and UNK_ID == 1 and EOS_ID == 2


def test_vocab_encode_decode_with_unk():
    v = build_vocab(["alpha beta gamma"])
    ids = v.encode(["alpha", "zeta"])
    assert ids[1] == UNK_ID
    assert v.decode(v.encode(["beta", "gamma"])) == ["beta", "gamma"]


def test_vocab_json_round_trip():
    v = build_vocab(["alpha beta. gamma;"])
    v2 = Vocab.from_json(v.to_json())
    assert v2.id_to_token == v.id_to_token


def test_encode_input_concatenates_prompt_and_input():
    v = build_vocab(["[MD] Alice", "Alice rests."])
    ids = encode_input("[MD] Alice", "Alice rests.", v, ModelConfig.max_len)
    assert v.decode(ids) == ["[MD]", "Alice", "Alice", "rests", "."]


def test_encode_target_appends_eos():
    v = build_vocab(["Alice is person."])
    ids = encode_target("Alice is person.", v, ModelConfig.max_len)
    assert ids[-1] == EOS_ID
    assert encode_target("", v, ModelConfig.max_len) == [EOS_ID]


def test_encode_rejects_over_length():
    v = build_vocab(["w"])
    with pytest.raises(ValueError):
        encode_input("w " * 300, "w", v, max_len=16)
    with pytest.raises(ValueError):
        encode_target("w " * 300, v, max_len=16)


_word = st.text(alphabet="abcXYZ09", min_size=1, max_size=6)
_token = st.one_of(_word, st.sampled_from([".", ",", ";", ":", "(", ")", "{", "}", "[MD]", "[EG]"]))


@given(st.lists(_word, min_size=1, max_size=10))
def test_plain_word_round_trip_property(words):
    text = " ".join(words)
    assert detokenize(tokenize(text)) == text


@given(st.lists(st.tuples(_word, st.sampled_from([".", ";", ",", ":"])),
                min_size=1, max_size=8))
def test_word_punctuation_round_trip_property(rows):
    text = " ".join(f"{w}{p}" for w, p in rows)
    tokens = tokenize(text)
    assert detokenize(tokens) == text


_MARKS = "([{.,;:!?)]}"
_core = st.one_of(st.text(alphabet="abcXYZ09.", min_size=1, max_size=6),
                  st.sampled_from(SPECIAL_TOKENS), st.just(""))
_chunk = st.builds(lambda lead, core, tail: lead + core + tail,
                   st.text(alphabet=_MARKS, max_size=3), _core,
                   st.text(alphabet=_MARKS, max_size=3)).filter(bool)
_space = st.sampled_from([" ", "  ", "\t", "\n", " \n\t "])
_text = st.builds(lambda head, rows: head + "".join(c + w for c, w in rows),
                  st.sampled_from(["", " ", "\n"]), st.lists(st.tuples(_chunk, _space), max_size=8))


def _walked_bounds(text: str) -> set[int]:
    """Start and end offsets of the reference tokens, found left to right."""
    bounds: set[int] = set()
    pos = 0
    for tok in reference_tokenize(text):
        start = text.index(tok, pos)
        pos = start + len(tok)
        bounds.update((start, pos))
    return bounds


def test_tokenize_lone_and_repeated_marks():
    assert tokenize("... ((x x.) ( [EG] [EG].") == [
        ".", ".", ".", "(", "(", "x", "x", ".", ")", "(", "[EG]", "[", "EG", "]", "."]


@given(st.lists(_text, max_size=5))
def test_tokenizer_matches_reference_property(texts):
    for text in texts:
        assert tokenize(text) == reference_tokenize(text)
        assert token_bounds(text) == _walked_bounds(text)
        assert token_bounds(text) == reference_token_bounds(text)
    assert build_vocab(texts).id_to_token == reference_build_vocab(texts).id_to_token
