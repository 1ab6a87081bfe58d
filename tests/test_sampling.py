"""Training-instance construction and k-shot support sampling."""

from __future__ import annotations

import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from sdnet.codec import parse_generated, parse_prompt_eg, parse_prompt_md
from sdnet.data import OTHER_TYPE, TypeDictionary, read_annotated_jsonl, read_file, write_jsonl
from sdnet.descriptions import build_cooccurrence_descriptions
from sdnet.sampling import (
    KShotSample,
    SamplerConfig,
    TrainingInstance,
    build_finetune_instances,
    build_pretrain_instances,
    eg_pairs,
    instance_from_record,
    instance_to_record,
    make_eg_instance,
    make_finetune_instance,
    make_md_instance,
    read_instances_jsonl,
    sample_kshot,
    write_instances_jsonl,
)
from helpers import FIXTURES, sent

CFG = SamplerConfig(rng_seed=0)

DICT = TypeDictionary(entries={
    "person": 9, "writer": 9, "city": 9, "river": 9, "animal": 9,
    "metal": 9, "game": 9, "fruit": 9, "color": 9, "capital": 9,
})

ROWLING = sent("r#0", "J.K. Rowling wrote books in Edinburgh.",
               [("J.K. Rowling", ("person", "writer")), ("Edinburgh", ("city",))])


def test_md_instance_lists_surfaces_and_concepts():
    inst = make_md_instance(ROWLING, CFG, draw_key=1)
    assert inst.task == "MD"
    assert inst.prompt_text == "[MD] J.K. Rowling; Edinburgh"
    assert inst.input_text == ROWLING.text
    assert inst.target_text == "J.K. Rowling is person, writer; Edinburgh is city."


def test_md_single_target_example():
    s = sent("r#1", "J.K. Rowling wrote books.", [("J.K. Rowling", ("person", "writer"))])
    inst = make_md_instance(s, CFG, draw_key=1)
    assert inst.prompt_text == "[MD] J.K. Rowling"
    assert inst.target_text == "J.K. Rowling is person, writer."


def test_md_fraction_subsamples_with_ceiling():
    s = sent("s#0", "Alice met Bob in Rome.",
             [("Alice", ("person",)), ("Bob", ("person",)), ("Rome", ("city",))])
    cfg = SamplerConfig(rng_seed=3, md_target_fraction=0.5)
    inst = make_md_instance(s, cfg, draw_key=9)
    prompt = parse_prompt_md(inst.prompt_text)
    assert len(prompt.targets) == 2  # ceil(0.5 * 3)
    # surfaces keep textual order
    order = {"Alice": 0, "Bob": 1, "Rome": 2}
    picked = [order[t] for t in prompt.targets]
    assert picked == sorted(picked)


def test_md_merges_duplicate_surfaces():
    s = sent("s#1", "Rome saw Rome.", [("Rome", ("city",)), ("Rome", ("city", "capital"))])
    inst = make_md_instance(s, CFG, draw_key=0)
    assert inst.prompt_text == "[MD] Rome"
    assert inst.target_text == "Rome is city, capital."


def test_eg_instance_prompt_types_and_target():
    inst = make_eg_instance(ROWLING, DICT, {"person": ("writer",)}, CFG, draw_key=4)
    assert inst.task == "EG"
    prompt = parse_prompt_eg(inst.prompt_text)
    prompt_types = [e.type_id for e in prompt.entries]
    sentence_types = {"person", "writer", "city"}
    positives = [t for t in prompt_types if t in sentence_types]
    negatives = [t for t in prompt_types if t not in sentence_types]
    assert 1 <= len(positives) <= 5
    assert len(negatives) <= 3
    assert OTHER_TYPE not in prompt_types
    for t in negatives:
        assert t in DICT  # negatives are drawn from the dictionary
    parsed = parse_generated("EG", inst.target_text)
    assert parsed.diagnostics == []
    target_types = {t for _, ts in parsed.target.pairs for t in ts}
    assert target_types <= set(positives)


def test_eg_negatives_disjoint_from_sentence_types_across_keys():
    for key in range(40):
        inst = make_eg_instance(ROWLING, DICT, {}, CFG, draw_key=key)
        prompt_types = [e.type_id for e in parse_prompt_eg(inst.prompt_text).entries]
        for t in prompt_types:
            assert t != OTHER_TYPE
            if t not in ("person", "writer", "city"):
                assert t in DICT


def test_eg_rejects_sentence_with_only_other_mentions():
    s = sent("s#2", "Thing rests.", [("Thing", (OTHER_TYPE,))])
    with pytest.raises(ValueError):
        make_eg_instance(s, DICT, {}, CFG, draw_key=0)


def test_eg_pairs_orders_mentions_then_positive_types():
    s = sent("s#3", "Bob met Alice in Rome and Rome again.",
             [("Rome", ("city",)), ("Bob", ("person",)), ("Alice", ("person",)),
              ("Rome", ("city",))])
    assert eg_pairs(s, ["person", "city"]) == (
        ("Bob", ("person",)), ("Alice", ("person",)),
        ("Rome", ("city",)), ("Rome", ("city",)))
    # a mention matching two positives emits one clause per matched type, in
    # positive-type order
    s2 = sent("s#4", "J.K. Rowling writes.", [("J.K. Rowling", ("person", "writer"))])
    assert eg_pairs(s2, ["writer", "person"]) == (
        ("J.K. Rowling", ("writer",)), ("J.K. Rowling", ("person",)))


def test_finetune_instance_full_schema_and_empty_target():
    inst = make_finetune_instance(ROWLING, ["person", "city"], {"person": ("writer",)})
    assert inst.prompt_text == "[EG] person: {writer}; city"
    assert inst.target_text == "J.K. Rowling is person; Edinburgh is city."
    miss = make_finetune_instance(ROWLING, ["river"], {})
    assert miss.prompt_text == "[EG] river"
    assert miss.target_text == ""


def test_training_instance_validates_descriptor_and_target():
    def record(task, prompt, target):
        return {"task": task, "prompt": prompt, "input": "x.", "target": target}

    with pytest.raises(ValueError):
        instance_from_record(record("MD", "[EG] person", ""))
    with pytest.raises(ValueError):
        instance_from_record(record("EG", "[EG] person", "no copula here"))
    assert instance_from_record(record("EG", "[EG] person", "Alice is person.")) == TrainingInstance(
        task="EG", prompt_text="[EG] person", input_text="x.", target_text="Alice is person.")


def test_build_pretrain_instances_is_deterministic_and_paired():
    corpus = [ROWLING,
              sent("r#1", "The Danube flows.", [("Danube", ("river",))]),
              sent("r#2", "Thing rests.", [("Thing", (OTHER_TYPE,))])]
    a = build_pretrain_instances(corpus, DICT, {"person": ("writer",)}, CFG)
    b = build_pretrain_instances(corpus, DICT, {"person": ("writer",)}, CFG)
    assert a == b
    # two full sentences give MD+EG; the other-only sentence gives MD only
    assert [i.task for i in a] == ["MD", "EG", "MD", "EG", "MD"]


@pytest.mark.parametrize("overrides, digest", [
    ({}, "bce6439bc41880536d5212dd7cccfd5f55d02365cb4da4acad805db129a859a8"),
    # every description of two or more concepts is over-full: keyed subsampling
    ({"max_concepts": 1}, "7a78a247c298eddf358d2b5aa42e7828e8e695e09a01181c4d5415469a86c8c9"),
    # the keyed MD draw as well
    ({"max_concepts": 2, "md_target_fraction": 0.5},
     "5c3ebfe6519bc5ccdda8dd68f636f2794da251b194c2f51052c21cedada155a1"),
])
def test_build_pretrain_instances_golden_bytes(overrides, digest):
    """SHA-256 of the fixture corpus's pretraining instances as JSONL, pinned
    so that a faster sampler cannot change a single draw."""
    corpus = read_annotated_jsonl(FIXTURES / "golden_corpus.jsonl")
    dictionary = read_file(FIXTURES / "golden_dict.json", TypeDictionary.from_json)
    desc = build_cooccurrence_descriptions(corpus)
    instances = build_pretrain_instances(corpus, dictionary, desc, SamplerConfig(**overrides))
    buf = io.StringIO()
    write_jsonl(buf, map(instance_to_record, instances))
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


def test_build_finetune_instances_covers_corpus():
    corpus = [ROWLING, sent("r#1", "The Danube flows.", [("Danube", ("river",))])]
    rows = build_finetune_instances(corpus, ["person", "city", "river"], {})
    assert len(rows) == 2
    assert all(r.task == "EG" for r in rows)
    assert all(r.prompt_text == "[EG] person; city; river" for r in rows)


def _kshot_corpus():
    rows = []
    for i in range(30):
        t = ["person", "city", "river"][i % 3]
        rows.append(sent(f"s#{i}", f"Entity{i} rests.", [(f"Entity{i}", (t,))]))
    return rows


def test_sample_kshot_reaches_k_per_type():
    corpus = _kshot_corpus()
    got = sample_kshot(corpus, 3, ["person", "city", "river"], rng_seed=0)
    assert got.unsatisfied == ()
    assert all(c >= 3 for c in got.counts.values())
    # greedy rule: every kept sentence raised a then-deficient count
    assert len(got.sentences) <= 9


def test_sample_kshot_reports_unsatisfied_types():
    corpus = _kshot_corpus()
    got = sample_kshot(corpus, 3, ["person", "metal"], rng_seed=0)
    assert got.unsatisfied == ("metal",)
    assert got.counts["metal"] == 0


def test_sample_kshot_is_seed_deterministic():
    corpus = _kshot_corpus()
    a = sample_kshot(corpus, 2, ["person", "city"], rng_seed=5)
    b = sample_kshot(corpus, 2, ["person", "city"], rng_seed=5)
    assert [s.id for s in a.sentences] == [s.id for s in b.sentences]


def test_instance_record_round_trip(tmp_path):
    rows = build_pretrain_instances([ROWLING], DICT, {}, CFG)
    for inst in rows:
        assert instance_from_record(instance_to_record(inst)) == inst
    path = tmp_path / "instances.jsonl"
    write_instances_jsonl(path, rows)
    assert read_instances_jsonl(path) == rows


@st.composite
def _random_sentence(draw):
    words = draw(st.lists(st.sampled_from(["Ada", "Bo", "Cy", "Dee", "rests", "met"]),
                          min_size=2, max_size=6))
    text = " ".join(words) + "."
    surfaces = sorted(set(words[:draw(st.integers(1, len(words)))]))
    types = ["person", "city", "river", "animal"]
    mentions = [(w, (draw(st.sampled_from(types)),)) for w in surfaces]
    return sent("h#0", text, mentions)


@settings(max_examples=60)
@given(_random_sentence(), st.integers(0, 10_000))
def test_pretrain_instances_reparse_cleanly(s, key):
    md = make_md_instance(s, CFG, draw_key=key)
    assert parse_generated("MD", md.target_text).diagnostics == []
    eg = make_eg_instance(s, DICT, {}, CFG, draw_key=key)
    assert parse_generated("EG", eg.target_text).diagnostics == []
    prompt_types = [e.type_id for e in parse_prompt_eg(eg.prompt_text).entries]
    assert len(prompt_types) == len(set(prompt_types))
