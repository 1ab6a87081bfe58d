"""Tests for the seeded synthetic corpus of `perfbench/gen.py`, as
`scripts/memorization.py` reads it for the memorization experiment."""

from __future__ import annotations

import hashlib
import json

import pytest

from sdnet.data import annotated_to_record, validate_annotated_sentence
from sdnet.model.tokenizer import tokenize
from helpers import memorization_script

SCHEMA_TYPES = memorization_script().gen.SCHEMA
generate_synthetic_corpus = memorization_script().generate_synthetic_corpus


@pytest.mark.parametrize("n_sentences, seed, digest", [
    (200, 0, "8a2d9c56b78e20daf4a8d0311a022c791444bcdd65c7f17c7ead4ef90842adc7"),
    # the CLI tests' corpus
    (10, 3, "027f2510f88a842515da0acecc57b631f44226a3566b0ba48c89c7b94ee879b8"),
])
def test_corpus_bytes_are_pinned(n_sentences, seed, digest):
    """SHA-256 of the corpus as JSONL: an edit to the generator cannot change
    a memorization input without notice."""
    corpus, _ = generate_synthetic_corpus(n_sentences, seed=seed)
    jsonl = "".join(json.dumps(annotated_to_record(s), ensure_ascii=False) + "\n" for s in corpus)
    assert hashlib.sha256(jsonl.encode("utf-8")).hexdigest() == digest


def test_default_corpus_size_and_schema():
    corpus, types = generate_synthetic_corpus()
    assert len(corpus) == 200
    assert types == SCHEMA_TYPES
    assert len(SCHEMA_TYPES) == 8


def test_same_seed_reproduces_identical_corpus():
    a, _ = generate_synthetic_corpus(n_sentences=50, seed=7)
    b, _ = generate_synthetic_corpus(n_sentences=50, seed=7)
    assert [(s.id, s.text, s.mentions) for s in a] == [(s.id, s.text, s.mentions) for s in b]


def test_different_seeds_differ():
    a, _ = generate_synthetic_corpus(n_sentences=50, seed=0)
    b, _ = generate_synthetic_corpus(n_sentences=50, seed=1)
    assert [s.text for s in a] != [s.text for s in b]


def test_every_sentence_validates():
    corpus, _ = generate_synthetic_corpus()
    for sent in corpus:
        assert validate_annotated_sentence(sent), sent.id


def test_each_surface_occurs_exactly_once():
    # Single occurrences keep the i-th occurrence rule trivial, so scoring
    # failures can only come from the model, not from span ambiguity.
    corpus, _ = generate_synthetic_corpus()
    for sent in corpus:
        for m in sent.mentions:
            assert sent.text.count(m.surface) == 1, (sent.id, m.surface)


def test_mentions_are_single_typed_within_schema():
    corpus, _ = generate_synthetic_corpus()
    for sent in corpus:
        for m in sent.mentions:
            assert len(m.types) == 1
            assert m.types[0] in SCHEMA_TYPES


def test_every_type_appears_in_default_corpus():
    corpus, _ = generate_synthetic_corpus()
    seen = {t for sent in corpus for m in sent.mentions for t in m.types}
    assert seen == set(SCHEMA_TYPES)


def test_token_vocabulary_stays_small():
    corpus, _ = generate_synthetic_corpus()
    tokens: set[str] = set()
    for sent in corpus:
        tokens.update(tokenize(sent.text))
    tokens.update(SCHEMA_TYPES)
    assert len(tokens) <= 500
