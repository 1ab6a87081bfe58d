"""Span scoring, the gold pipeline identity, and the episode protocol."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from sdnet.evaluation import (
    EpisodeReport,
    gold_spans,
    predict_spans,
    run_episodes,
    schema_prompt,
    score,
)
from sdnet.data import read_annotated_jsonl
from sdnet.locate import SpanPrediction
from helpers import FIXTURES, gold_echo_episodes, sent


def _sp(type_id: str, start: int, end: int) -> SpanPrediction:
    return SpanPrediction(surface="x" * (end - start), type_id=type_id, start=start, end=end)


def test_perfect_prediction_scores_one():
    gold = {"s0": [_sp("a", 0, 2), _sp("b", 3, 5)]}
    rep = score(gold, {"s0": list(gold["s0"])})
    assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)
    assert rep.per_type["a"].f1 == 1.0


def test_duplicate_predictions_count_as_false_positives():
    gold = {"s0": [_sp("a", 0, 2)]}
    rep = score(gold, {"s0": [_sp("a", 0, 2), _sp("a", 0, 2)]})
    assert rep.matched == 1
    assert rep.predicted == 2
    assert rep.precision == pytest.approx(0.5)
    assert rep.recall == 1.0


def test_duplicate_gold_spans_need_duplicate_predictions():
    gold = {"s0": [_sp("a", 0, 2), _sp("a", 0, 2)]}
    rep = score(gold, {"s0": [_sp("a", 0, 2)]})
    assert rep.matched == 1
    assert rep.recall == pytest.approx(0.5)


def test_unknown_sentence_id_is_a_fault():
    with pytest.raises(ValueError):
        score({"s0": []}, {"ghost": []})


def test_missing_prediction_rows_count_as_empty():
    gold = {"s0": [_sp("a", 0, 2)], "s1": [_sp("b", 0, 2)]}
    rep = score(gold, {"s0": [_sp("a", 0, 2)]})
    assert rep.matched == 1
    assert rep.recall == pytest.approx(0.5)
    assert rep.per_type["b"].predicted == 0


def test_per_type_counts_sum_to_totals():
    gold = {"s0": [_sp("a", 0, 2), _sp("b", 3, 5)], "s1": [_sp("a", 1, 4)]}
    pred = {"s0": [_sp("a", 0, 2), _sp("a", 3, 5)], "s1": [_sp("b", 1, 4)]}
    rep = score(gold, pred)
    assert sum(t.gold for t in rep.per_type.values()) == rep.gold
    assert sum(t.predicted for t in rep.per_type.values()) == rep.predicted
    assert sum(t.matched for t in rep.per_type.values()) == rep.matched


def _oracle_matched(gold_rows, pred_rows):
    """Maximum one-to-one matching by brute force over injections."""
    best = 0
    g_keys = [s.key() for s in gold_rows]
    p_keys = [s.key() for s in pred_rows]
    n = min(len(g_keys), len(p_keys))
    for k in range(n, 0, -1):
        for g_idx in itertools.permutations(range(len(g_keys)), k):
            for p_idx in itertools.combinations(range(len(p_keys)), k):
                if all(g_keys[a] == p_keys[b] for a, b in zip(g_idx, p_idx)):
                    return k
    return best


_span = st.builds(
    _sp,
    st.sampled_from(["a", "b"]),
    st.integers(0, 3),
    st.integers(4, 6),
)


@settings(max_examples=120)
@given(st.lists(_span, max_size=5), st.lists(_span, max_size=5))
def test_matched_count_equals_max_matching_oracle(gold_rows, pred_rows):
    rep = score({"s": gold_rows}, {"s": pred_rows})
    assert rep.matched == _oracle_matched(gold_rows, pred_rows)


def test_gold_spans_follow_ith_occurrence_rule():
    s = sent("g#0", "Rome saw Rome.", [("Rome", ("city",)), ("Rome", ("city",))])
    spans = gold_spans(s, ["city"])
    assert [(x.start, x.end) for x in spans] == [(0, 4), (9, 13)]


def test_gold_spans_respect_schema_restriction():
    s = sent("g#1", "Alice met Rome.", [("Alice", ("person",)), ("Rome", ("city",))])
    spans = gold_spans(s, schema_types=["city"])
    assert [(x.type_id, x.start) for x in spans] == [("city", 10)]


def test_gold_spans_keep_one_clause_per_occurrence_for_multi_type_mentions():
    # One occurrence of the surface but two matching types: the serialized
    # target repeats the surface, so only the first clause has an offset.
    s = sent("g#2", "Alice writes.", [("Alice", ("person", "writer"))])
    spans = gold_spans(s, ["person", "writer"])
    assert [(x.surface, x.type_id, x.start) for x in spans] == [("Alice", "person", 0)]
    # With two occurrences the second clause lands on the second occurrence.
    s2 = sent("g#3", "Alice met Alice.", [("Alice", ("person", "writer"))])
    spans2 = gold_spans(s2, ["person", "writer"])
    assert [(x.type_id, x.start) for x in spans2] == [("person", 0), ("writer", 10)]


def test_schema_prompt_uses_descriptions():
    assert schema_prompt(["person", "city"], {"person": ("writer",)}) == \
        "[EG] person: {writer}; city"


def test_predict_spans_runs_generation_output_through_parse_and_locate():
    s = sent("p#0", "Alice met Rome.", [("Alice", ("person",)), ("Rome", ("city",))])
    fn = lambda prompt, text: "Alice is person; Rome is city."
    spans, diagnostics, unlocated = predict_spans(fn, s.sentence, "[EG] person; city")
    assert [(x.surface, x.type_id, x.start) for x in spans] == [
        ("Alice", "person", 0), ("Rome", "city", 10)]
    assert diagnostics == [] and unlocated == []
    # a clause without a copula is a parse diagnostic; a surface the sentence
    # does not hold is an unlocated pair; both come back with the spans
    fn = lambda prompt, text: "Alice is person; Bob is person; garbage."
    spans, diagnostics, unlocated = predict_spans(fn, s.sentence, "[EG] person; city")
    assert [(x.surface, x.type_id, x.start) for x in spans] == [("Alice", "person", 0)]
    assert diagnostics == ["no copula in clause 'garbage'"]
    assert unlocated == [("Bob", "person")]


def test_gold_pipeline_identity_on_fixture_corpus():
    corpus = read_annotated_jsonl(FIXTURES / "golden_corpus.jsonl")
    for episodes in gold_echo_episodes(corpus, k=1, runs=2):
        assert episodes.failures == () and len(episodes.per_run) == 2
        for rep in episodes.per_run:
            assert rep.f1 == 1.0
            assert rep.precision == 1.0 and rep.recall == 1.0


def _toy_eval_world():
    """A 12-sentence training split, a held-out 4-sentence test split and their schema."""
    corpus = [
        sent(f"e#{i}", f"Entity{i} met Rome.",
             [(f"Entity{i}", ("person",)), ("Rome", ("city",))])
        for i in range(16)
    ]
    return corpus[:12], corpus[12:], ["person", "city"]


def _gold_echo_factory(support, schema_types, run_seed):
    def fn(prompt, text):
        ent = text.split()[0]
        return f"{ent} is person; Rome is city."
    return fn, {}


def test_run_episodes_constant_model_mean_equals_single_run():
    corpus, test, schema = _toy_eval_world()
    rep = run_episodes(corpus, test, schema, k=2, runs=5, base_seed=11,
                       episode_factory=_gold_echo_factory)
    assert rep.failures == ()
    assert len(rep.per_run) == 5
    single = rep.per_run[0].f1
    assert all(abs(f - single) <= 1e-12 for f in rep.f1_values)
    assert abs(rep.mean_f1 - single) <= 1e-12
    assert rep.std_f1 == pytest.approx(0.0, abs=1e-12)


def test_run_episodes_isolates_failing_runs():
    corpus, test, schema = _toy_eval_world()
    calls = {"n": 0}

    def flaky(support, schema_types, run_seed):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return _gold_echo_factory(support, schema_types, run_seed)

    rep = run_episodes(corpus, test, schema, k=1, runs=3, base_seed=0,
                       episode_factory=flaky)
    assert len(rep.failures) == 1
    assert rep.failures[0].run == 0
    assert "boom" in rep.failures[0].message
    assert len(rep.per_run) == 2
    assert rep.mean_f1 == pytest.approx(1.0)


def _no_run(support, schema_types, run_seed):
    raise AssertionError("no run may start")


@pytest.mark.parametrize("k", [0, -1])
def test_run_episodes_rejects_k_below_one_before_any_run(k):
    corpus, test, schema = _toy_eval_world()
    with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
        run_episodes(corpus, test, schema, k=k, runs=2, base_seed=0, episode_factory=_no_run)


@pytest.mark.parametrize("empty", ["train", "test"])
def test_run_episodes_rejects_an_empty_split_before_any_run(empty):
    corpus, test, schema = _toy_eval_world()
    splits = {"train": corpus, "test": test, empty: []}
    with pytest.raises(ValueError, match=f"^{empty}_corpus is empty$"):
        run_episodes(splits["train"], splits["test"], schema, k=1, runs=2, base_seed=0,
                     episode_factory=_no_run)


def test_run_episodes_rejects_a_training_sentence_in_the_test_split_before_any_run():
    corpus, test, schema = _toy_eval_world()
    with pytest.raises(ValueError, match=r"^test_corpus holds training sentence 'e#3' \(same id and text\)$"):
        run_episodes(corpus, [*test, corpus[3], corpus[5]], schema, k=1, runs=2, base_seed=0,
                     episode_factory=_no_run)
    # a training text under another id, or a training id with another text, is held out
    other_id = sent("t#3", corpus[3].text, [("Entity3", ("person",)), ("Rome", ("city",))])
    other_text = sent("e#3", "Entity99 met Rome.", [("Entity99", ("person",)), ("Rome", ("city",))])
    rep = run_episodes(corpus, [other_id, other_text], schema, k=1, runs=1, base_seed=0,
                       episode_factory=_gold_echo_factory)
    assert rep.failures == () and rep.f1_values == (1.0,)


def test_run_episodes_is_seed_deterministic():
    corpus, test, schema = _toy_eval_world()
    a = run_episodes(corpus, test, schema, k=2, runs=3, base_seed=4,
                     episode_factory=_gold_echo_factory)
    b = run_episodes(corpus, test, schema, k=2, runs=3, base_seed=4,
                     episode_factory=_gold_echo_factory)
    assert a.f1_values == b.f1_values
    assert a.to_dict() == b.to_dict()


def test_episode_report_serializes():
    corpus, test, schema = _toy_eval_world()
    rep = run_episodes(corpus, test, schema, k=1, runs=2, base_seed=0,
                       episode_factory=_gold_echo_factory)
    d = rep.to_dict()
    assert d["k"] == 1 and d["runs"] == 2
    assert len(d["per_run"]) == 2
    assert isinstance(d["mean_f1"], float) and isinstance(d["std_f1"], float)
