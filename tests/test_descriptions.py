"""Type description construction: co-occurrence, fusion, filtering."""

from __future__ import annotations

import itertools
import re
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from sdnet.data import OTHER_TYPE, CorpusFormatError
from sdnet.descriptions import (
    DescriptionConfig,
    apply_filtering,
    build_cooccurrence_descriptions,
    describe_with_model,
    read_description_map,
    write_description_map,
)
from sdnet.model import generate_many
from sdnet.sampling import SamplerConfig, make_md_instance
from helpers import sent, tiny_setup


def _pairwise_oracle(corpus):
    """Brute force: for each ordered type pair (t, u), t describes u iff some
    mention's type set contains both; order follows the first such mention."""
    out: dict[str, list[str]] = {}
    for s in corpus:
        for m in s.mentions:
            for t in m.types:
                if t == OTHER_TYPE:
                    continue
                out.setdefault(t, [])
                for u in m.types:
                    if u != t and u != OTHER_TYPE and u not in out[t]:
                        out[t].append(u)
    return {t: tuple(v) for t, v in out.items()}


def test_cooccurrence_on_multi_type_mentions():
    corpus = [
        sent("s0", "Steve Jobs founded a company.",
             [("Steve Jobs", ("person", "entrepreneur", "businessperson"))]),
        sent("s1", "Beethoven composed here.",
             [("Beethoven", ("person", "composer", "pianist"))]),
    ]
    desc = build_cooccurrence_descriptions(corpus)
    assert desc["person"] == ("entrepreneur", "businessperson", "composer", "pianist")
    assert desc["composer"] == ("person", "pianist")
    assert desc["entrepreneur"] == ("person", "businessperson")


def test_cooccurrence_excludes_other_and_self():
    corpus = [sent("s0", "X rests.", [("X", ("a", "other", "a-like"))])]
    desc = build_cooccurrence_descriptions(corpus)
    assert desc["a"] == ("a-like",)
    assert OTHER_TYPE not in desc
    assert all(OTHER_TYPE not in v for v in desc.values())


_type_names = st.sampled_from(["a", "b", "c", "d", "e", OTHER_TYPE])


@st.composite
def _corpora(draw):
    n = draw(st.integers(1, 20))
    corpus = []
    for i in range(n):
        k = draw(st.integers(1, 3))
        mentions = []
        for j in range(k):
            types = draw(st.lists(_type_names, min_size=1, max_size=4, unique=True))
            mentions.append((f"m{j}", tuple(types)))
        text = " ".join(f"m{j}" for j in range(k)) + "."
        corpus.append(sent(f"s{i}", text, mentions))
    return corpus


@settings(max_examples=150)
@given(_corpora())
def test_cooccurrence_matches_pairwise_oracle(corpus):
    assert build_cooccurrence_descriptions(corpus) == _pairwise_oracle(corpus)


@given(_corpora())
def test_cooccurrence_never_contains_other_or_self(corpus):
    desc = build_cooccurrence_descriptions(corpus)
    for t, concepts in desc.items():
        assert t != OTHER_TYPE
        assert t not in concepts
        assert OTHER_TYPE not in concepts


def test_fusion_unions_in_first_seen_order():
    per_type = {
        "person": [
            ("writer", "actor"),
            ("actor", "politician", "person"),
            (OTHER_TYPE,),
        ],
    }
    fused, _ = apply_filtering(per_type, DescriptionConfig(other_threshold=1.0))
    assert fused["person"] == ("writer", "actor", "politician")


def test_filtering_threshold_is_strictly_greater_than():
    # 2 of 4 descriptions are `other`-only: frequency exactly 0.5
    rows = [(OTHER_TYPE,), (OTHER_TYPE,), ("writer",), ("actor",)]
    for threshold, expect_filtered in [(0.4, True), (0.5, False), (0.6, False)]:
        cfg = DescriptionConfig(other_threshold=threshold)
        out, report = apply_filtering({"person": rows}, cfg)
        assert report.frequencies["person"] == pytest.approx(0.5)
        assert (("person" in report.filtered) is expect_filtered), threshold
        if expect_filtered:
            assert out["person"] == ()
        else:
            assert out["person"] == ("writer", "actor")


def test_filtering_counts_other_only_descriptions():
    rows = [(OTHER_TYPE, "writer"), ("actor",)]
    out, report = apply_filtering({"t": rows}, DescriptionConfig(other_threshold=0.3))
    # neither description is `other`-only: per-description frequency 0
    assert report.frequencies["t"] == 0.0
    assert "t" not in report.filtered


@pytest.mark.parametrize("rows", [[], [("writer",), ()]])
def test_filtering_rejects_a_type_without_descriptions_or_with_an_empty_one(rows):
    with pytest.raises(ValueError, match="no mention descriptions or an empty one"):
        apply_filtering({"t": rows}, DescriptionConfig())


@st.composite
def _mention_descriptions(draw):
    per_type = {}
    for t in draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=1, max_size=3, unique=True)):
        rows = []
        for _ in range(draw(st.integers(1, 6))):
            if draw(st.booleans()):
                rows.append((OTHER_TYPE,))
            else:
                concepts = draw(st.lists(st.sampled_from(["x", "y", t, OTHER_TYPE]),
                                         min_size=1, max_size=3, unique=True))
                rows.append(tuple(concepts))
        per_type[t] = rows
    return per_type


@given(_mention_descriptions())
def test_threshold_one_filters_nothing(per_type):
    out, report = apply_filtering(per_type, DescriptionConfig(other_threshold=1.0))
    assert report.filtered == ()
    for t, concepts in out.items():
        assert t not in concepts
        assert OTHER_TYPE not in concepts


@given(_mention_descriptions())
def test_threshold_zero_filters_every_type_with_an_other_only_description(per_type):
    _, report = apply_filtering(per_type, DescriptionConfig(other_threshold=0.0))
    for t, rows in per_type.items():
        has_other_only = any(d == (OTHER_TYPE,) for d in rows)
        assert ((t in report.filtered) is has_other_only)


def test_describe_with_model_collects_per_gold_type():
    corpus = [
        sent("s0", "Alice met Bob.", [("Alice", ("person",)), ("Bob", ("person", "actor"))]),
        sent("s1", "Rome stands.", [("Rome", ("city",))]),
        sent("s2", "Nothing here.", []),
    ]
    replies = {
        "Alice met Bob.": "Alice is writer; Bob is actor, writer.",
        "Rome stands.": "Rome is capital.",
    }

    calls = []

    def fake_generate(prompts: list[str], texts: list[str]) -> list[str]:
        calls.append(texts)
        assert all(prompt.startswith("[MD] ") for prompt in prompts)
        return [replies[text] for text in texts]

    desc_map, report = describe_with_model(corpus, fake_generate, DescriptionConfig())
    # one call for the whole corpus, without the sentence that has no mention
    assert calls == [["Alice met Bob.", "Rome stands."]]
    assert desc_map["person"] == ("writer", "actor")
    assert desc_map["actor"] == ("writer",)  # own name excluded by fusion
    assert desc_map["city"] == ("capital",)
    assert report.filtered == ()


def test_describe_with_model_lists_surfaces_in_the_pretraining_md_order():
    # Stored out of text order, the mentions are still prompted as pretraining's
    # MD instances list them: by first occurrence in the text.
    s = sent("s0", "Alice met Bob.", [("Bob", ("person",)), ("Alice", ("person",))])
    prompts = []

    def fake_generate(prompts_: list[str], texts: list[str]) -> list[str]:
        prompts.extend(prompts_)
        return ["Alice is writer; Bob is actor."] * len(texts)

    describe_with_model([s], fake_generate, DescriptionConfig())
    md_instance = make_md_instance(s, SamplerConfig(), draw_key=0)
    assert prompts == [md_instance.prompt_text] == ["[MD] Alice; Bob"]


def test_describe_with_model_names_the_sentence_of_a_rejected_row():
    # s1 encodes to more ids than the model's max_len: the batched engine
    # rejects its row before decoding, and the error names the sentence
    insts, vocab, cfg, params = tiny_setup()
    long_text = " ".join(["Alice"] * cfg.max_len) + "."
    corpus = [sent("s0", "Alice rests.", [("Alice", ("person",))]),
              sent("s1", long_text, [("Alice", ("person",))])]
    with pytest.raises(ValueError, match=r"^sentence 's1': encoded input length \d+ exceeds cap 64$"):
        describe_with_model(corpus, partial(generate_many, params, cfg, vocab), DescriptionConfig())


def test_description_map_file_round_trip(tmp_path):
    desc = {"person": ("writer", "actor"), "city": ()}
    path = tmp_path / "desc.jsonl"
    write_description_map(path, desc, filtered={"city"})
    loaded, filtered = read_description_map(path)
    assert loaded == desc
    assert filtered == {"city"}


def test_description_map_rejects_a_repeated_type_naming_the_line(tmp_path):
    # the second row would replace the first, and `writer` would be lost unsaid
    path = tmp_path / "desc.jsonl"
    path.write_text('{"type": "person", "concepts": ["writer"]}\n'
                    '{"type": "city", "concepts": []}\n'
                    '{"type": "person", "concepts": ["actor"], "filtered": true}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:3: duplicate type 'person'$"):
        read_description_map(path)


def test_description_map_filtered_field_is_a_bool(tmp_path):
    path = tmp_path / "desc.jsonl"
    path.write_text('{"type": "person", "concepts": []}\n'
                    '{"type": "city", "concepts": [], "filtered": "no"}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"desc\.jsonl:2: field 'filtered' must be a bool"):
        read_description_map(path)
    path.write_text('{"type": "person", "concepts": []}\n', encoding="utf-8")
    assert read_description_map(path) == ({"person": ()}, set())
