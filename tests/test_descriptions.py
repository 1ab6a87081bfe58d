"""Type description construction: co-occurrence, sampling, fusion, filtering."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from sdnet.data import OTHER_TYPE
from sdnet.descriptions import (
    DescriptionConfig,
    MentionDescription,
    apply_filtering,
    build_cooccurrence_descriptions,
    describe_with_model,
    fuse_mention_descriptions,
    read_description_map,
    sample_concepts,
    stable_draw_key,
    write_description_map,
)
from sdnet.sampling import SamplerConfig, make_md_instance
from helpers import sent


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


def test_sample_concepts_identity_when_under_budget():
    cfg = DescriptionConfig(max_concepts=10)
    got = sample_concepts("t", ("a", "b", "c"), cfg, draw_key=7)
    assert got.type_id == "t"
    assert got.concepts == ("a", "b", "c")


def test_sample_concepts_subsamples_preserving_input_order():
    cfg = DescriptionConfig(max_concepts=3, rng_seed=5)
    full = tuple(f"c{i}" for i in range(12))
    got = sample_concepts("t", full, cfg, draw_key=1)
    assert len(got.concepts) == 3
    assert list(got.concepts) == sorted(got.concepts, key=full.index)
    # keyed determinism: same (seed, key) -> same draw; different key -> may differ
    again = sample_concepts("t", full, cfg, draw_key=1)
    assert got == again


def test_stable_draw_key_is_process_stable():
    assert stable_draw_key("a#1", "MD") == stable_draw_key("a#1", "MD")
    assert stable_draw_key("a#1", "MD") != stable_draw_key("a#1", "EG")
    assert isinstance(stable_draw_key("x", 3), int)


def test_fusion_unions_in_first_seen_order():
    per_type = {
        "person": [
            MentionDescription(surface="A", concepts=("writer", "actor")),
            MentionDescription(surface="B", concepts=("actor", "politician", "person")),
            MentionDescription(surface="C", concepts=(OTHER_TYPE,)),
        ],
    }
    fused = fuse_mention_descriptions(per_type)
    assert fused["person"] == ("writer", "actor", "politician")


def test_filtering_threshold_is_strictly_greater_than():
    # 2 of 4 descriptions are `other`-only: frequency exactly 0.5
    rows = [
        MentionDescription(surface="A", concepts=(OTHER_TYPE,)),
        MentionDescription(surface="B", concepts=(OTHER_TYPE,)),
        MentionDescription(surface="C", concepts=("writer",)),
        MentionDescription(surface="D", concepts=("actor",)),
    ]
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
    rows = [
        MentionDescription(surface="A", concepts=(OTHER_TYPE, "writer")),
        MentionDescription(surface="B", concepts=("actor",)),
    ]
    out, report = apply_filtering({"t": rows}, DescriptionConfig(other_threshold=0.3))
    # neither description is `other`-only: per-description frequency 0
    assert report.frequencies["t"] == 0.0
    assert "t" not in report.filtered


@st.composite
def _mention_descriptions(draw):
    per_type = {}
    for t in draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=1, max_size=3, unique=True)):
        rows = []
        for i in range(draw(st.integers(1, 6))):
            if draw(st.booleans()):
                rows.append(MentionDescription(surface=f"m{i}", concepts=(OTHER_TYPE,)))
            else:
                concepts = draw(st.lists(st.sampled_from(["x", "y", t, OTHER_TYPE]),
                                         min_size=1, max_size=3, unique=True))
                rows.append(MentionDescription(surface=f"m{i}", concepts=tuple(concepts)))
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
        has_other_only = any(d.concepts == (OTHER_TYPE,) for d in rows)
        assert ((t in report.filtered) is has_other_only)


def test_describe_with_model_collects_per_gold_type():
    corpus = [
        sent("s0", "Alice met Bob.", [("Alice", ("person",)), ("Bob", ("person", "actor"))]),
        sent("s1", "Rome stands.", [("Rome", ("city",))]),
    ]
    replies = {
        "Alice met Bob.": "Alice is writer; Bob is actor, writer.",
        "Rome stands.": "Rome is capital.",
    }

    def fake_generate(prompt: str, text: str) -> str:
        assert prompt.startswith("[MD] ")
        return replies[text]

    desc_map, report = describe_with_model(corpus, fake_generate, DescriptionConfig())
    assert desc_map["person"] == ("writer", "actor")
    assert desc_map["actor"] == ("writer",)  # own name excluded by fusion
    assert desc_map["city"] == ("capital",)
    assert report.filtered == ()


def test_describe_with_model_lists_surfaces_in_the_pretraining_md_order():
    # Stored out of text order, the mentions are still prompted as pretraining's
    # MD instances list them: by first occurrence in the text.
    s = sent("s0", "Alice met Bob.", [("Bob", ("person",)), ("Alice", ("person",))])
    prompts = []

    def fake_generate(prompt: str, text: str) -> str:
        prompts.append(prompt)
        return "Alice is writer; Bob is actor."

    describe_with_model([s], fake_generate, DescriptionConfig())
    md_instance = make_md_instance(s, SamplerConfig(), draw_key=0)
    assert prompts == [md_instance.prompt_text] == ["[MD] Alice; Bob"]


def test_description_map_file_round_trip(tmp_path):
    desc = {"person": ("writer", "actor"), "city": ()}
    path = tmp_path / "desc.jsonl"
    write_description_map(path, desc, filtered={"city"})
    loaded, filtered = read_description_map(path)
    assert loaded == desc
    assert filtered == {"city"}
