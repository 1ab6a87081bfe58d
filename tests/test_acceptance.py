"""Acceptance gate: one test per release criterion, each at its stated
tolerance and time budget. `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    FIXTURES,
    batch_of,
    fd_gradient_check,
    gold_echo_episodes,
    memorization_script,
    on_token_boundaries,
    reference_generate,
    sent,
    synthetic_test_split,
    tiny_setup,
)
import sdnet
from sdnet.cli import main as cli_main
from sdnet.codec import parse_generated, serialize_prompt_eg, serialize_target
from sdnet.data import (
    ConceptDescription,
    OTHER_TYPE,
    Sentence,
    TargetSequence,
    TypeDictionary,
    read_annotated_jsonl,
    read_file,
    write_annotated_jsonl,
)
from sdnet.descriptions import (
    DescriptionConfig,
    apply_filtering,
    build_cooccurrence_descriptions,
)
from sdnet.evaluation import run_episodes, schema_prompt
from sdnet.locate import locate
from sdnet.model import PRETRAIN, generate, train

# ---- 1. codec round-trip volume ----

_WORDS = ("Rome", "Bob", "Paris", "Anna", "Berlin", "fox", "owl", "Danube",
          "amber", "chess", "copper", "mango", "K2", "Prague", "Lisbon", "hawk")
_LABELS = ("person", "city", "animal", "color", "fruit", "metal", "river",
           "game", "GPE", "date", "actor", "writer")


def _random_surface(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))


def _random_target(rng: random.Random) -> TargetSequence:
    if rng.random() < 0.5:
        n = rng.randint(1, 4)
        surfaces: list[str] = []
        while len(surfaces) < n:
            s = _random_surface(rng)
            if s not in surfaces:
                surfaces.append(s)
        pairs = tuple(
            (s, tuple(rng.sample(_LABELS, rng.randint(1, 3)))) for s in surfaces
        )
        return TargetSequence(task="MD", pairs=pairs)
    n = rng.randint(0, 4)
    pairs = tuple(
        (_random_surface(rng), (rng.choice(_LABELS),)) for _ in range(n)
    )
    return TargetSequence(task="EG", pairs=pairs)


def test_codec_round_trips_10k_targets_under_5s():
    rng = random.Random(0)
    targets = [_random_target(rng) for _ in range(10_000)]
    started = time.perf_counter()
    for target in targets:
        parsed = parse_generated(target.task, serialize_target(target))
        assert parsed.diagnostics == []
        assert parsed.target == target
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"10k round-trips took {elapsed:.2f}s"


# ---- 2. canonical grammar strings ----

def test_grammar_fixture_strings_serialize_and_parse_exactly():
    prompt = (ConceptDescription(type_id="person", concepts=("actor", "writer")),)
    assert serialize_prompt_eg(prompt) == "[EG] person: {actor, writer}"

    single = TargetSequence(task="EG", pairs=(("J.K. Rowling", ("person",)),))
    assert serialize_target(single) == "J.K. Rowling is person."
    assert parse_generated("EG", "J.K. Rowling is person.").target == single

    # Clauses separated by ". " instead of "; " must parse identically.
    dotted = parse_generated("EG", "China is GPE. a few days ago is date.")
    assert dotted.diagnostics == []
    assert dotted.target.pairs == (("China", ("GPE",)), ("a few days ago", ("date",)))

    md = TargetSequence(task="MD", pairs=(("J.K. Rowling", ("person", "writer")),))
    assert serialize_target(md) == "J.K. Rowling is person, writer."
    assert parse_generated("MD", "J.K. Rowling is person, writer.").target == md


# ---- 3. locator vs brute-force oracle ----

def _occurrence_starts(text: str, surface: str) -> list[int]:
    starts, pos = [], 0
    while True:
        idx = text.find(surface, pos)
        if idx < 0:
            return starts
        if not on_token_boundaries(text, idx, idx + len(surface)):
            pos = idx + 1
            continue
        starts.append(idx)
        pos = idx + len(surface)


def _oracle_locate(text: str, pairs) -> tuple[list, list]:
    spans, unlocated, used = [], [], {}
    for surface, labels in pairs:
        starts = _occurrence_starts(text, surface)
        k = used.get(surface, 0)
        if k < len(starts):
            used[surface] = k + 1
            spans.append((surface, labels[0], starts[k], starts[k] + len(surface)))
        else:
            unlocated.append((surface, labels[0]))
    return spans, unlocated


def test_locator_matches_brute_force_oracle_on_1000_random_sentences():
    rng = random.Random(7)
    pool = ["Rome", "Bob", "Paris", "fox", "ab", "aba", "K2", "owl"]
    for case in range(1_000):
        words = [rng.choice(pool) for _ in range(rng.randint(4, 12))]
        text = " ".join(words) + "."
        pairs = []
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            if roll < 0.6:
                surface = rng.choice(words)
            elif roll < 0.85 and len(words) >= 2:
                i = rng.randrange(len(words) - 1)
                surface = f"{words[i]} {words[i + 1]}"
            else:
                surface = "zebra"  # absent from the pool
            pairs.append((surface, (rng.choice(("t1", "t2", "t3")),)))
        target = TargetSequence(task="EG", pairs=tuple(pairs))
        spans, unlocated = locate(Sentence(id=f"r{case}", text=text), target)
        got = [(s.surface, s.type_id, s.start, s.end) for s in spans]
        want_spans, want_unlocated = _oracle_locate(text, pairs)
        assert got == want_spans, f"case {case}: {text!r} {pairs}"
        assert unlocated == want_unlocated, f"case {case}: {text!r} {pairs}"


# ---- 4. corpus builder golden build, pretraining instances ----

# runs a and b in this interpreter; the hash-seed runs in fresh ones, where set
# and dict-of-str iteration orders differ
HASH_SEED_RUNS = (("a", None), ("b", None), ("c", "1"), ("d", "2"))


def _run_cli(argv: list[str], hash_seed: str | None) -> None:
    if hash_seed is None:
        assert cli_main(argv) == 0
        return
    src = str(Path(sdnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-m", "sdnet.cli", *argv], env=env, check=True)


def test_corpus_build_is_byte_identical_across_runs_and_hash_seeds(tmp_path, capsys):
    kb = FIXTURES / "kb_items.jsonl"
    pages = FIXTURES / "pages.jsonl"
    assert kb.stat().st_size >= 50 * 1024
    assert sum(1 for line in pages.read_text(encoding="utf-8").splitlines() if line) >= 20

    golden_corpus = (FIXTURES / "golden_corpus.jsonl").read_bytes()
    golden_dict = (FIXTURES / "golden_dict.json").read_bytes()
    for run, hash_seed in HASH_SEED_RUNS:
        out = tmp_path / f"corpus-{run}.jsonl"
        dict_out = tmp_path / f"dict-{run}.json"
        _run_cli(["build-corpus", "--kb", str(kb), "--pages", str(pages),
                  "--out", str(out), "--dict-out", str(dict_out)], hash_seed)
        assert out.read_bytes() == golden_corpus, f"corpus bytes differ (run {run})"
        assert dict_out.read_bytes() == golden_dict, f"dictionary bytes differ (run {run})"
    capsys.readouterr()

    dictionary = read_file(FIXTURES / "golden_dict.json", TypeDictionary.from_json)
    # Long type names truncate at the head words before the first preposition.
    assert "state award" in dictionary.entries
    assert all("state award of" not in name for name in dictionary.entries)
    # Types claimed by fewer than five items are dropped.
    assert "asteroid family" not in dictionary.entries
    assert all(count >= 5 for name, count in dictionary.entries.items() if name != OTHER_TYPE)


def test_pretrain_instances_are_byte_identical_across_runs_and_hash_seeds(tmp_path, capsys):
    """Every keyed draw (MD subset, EG positives, negatives and order, over-full
    concepts) is made in fresh interpreters under two hash seeds."""
    corpus = FIXTURES / "golden_corpus.jsonl"
    desc = tmp_path / "desc.jsonl"
    assert cli_main(["build-descriptions", "--corpus", str(corpus), "--out", str(desc)]) == 0
    outputs = []
    for run, hash_seed in HASH_SEED_RUNS:
        out = tmp_path / f"pretrain-{run}.jsonl"
        _run_cli(["make-pretrain-data", "--corpus", str(corpus), "--dict", str(FIXTURES / "golden_dict.json"),
                  "--desc", str(desc), "--out", str(out), "--md-fraction", "0.5", "--max-concepts", "1",
                  "--seed", "3"], hash_seed)
        outputs.append(out.read_bytes())
    assert outputs[0]
    for (run, _), data in zip(HASH_SEED_RUNS, outputs):
        assert data == outputs[0], f"instance bytes differ (run {run})"
    capsys.readouterr()


# ---- 5. description builder oracle and filtering ----

def _oracle_cooccurrence(corpus) -> dict[str, tuple[str, ...]]:
    out: dict[str, list[str]] = {}
    for s in corpus:
        for m in s.mentions:
            for t in m.types:
                if t == OTHER_TYPE:
                    continue
                bucket = out.setdefault(t, [])
                for u in m.types:
                    if u not in (t, OTHER_TYPE) and u not in bucket:
                        bucket.append(u)
    return {t: tuple(v) for t, v in out.items()}


def test_description_cooccurrence_matches_oracle_and_filter_thresholds():
    rng = random.Random(3)
    types = ("ta", "tb", "tc", "td", OTHER_TYPE)
    for case in range(300):
        corpus = []
        for i in range(rng.randint(1, 20)):
            n = rng.randint(1, 3)
            surfaces = [f"w{i}x{j}" for j in range(n)]
            mentions = [
                (surfaces[j], tuple(rng.sample(types, rng.randint(1, 3))))
                for j in range(n)
            ]
            corpus.append(sent(f"c{case}s{i}", " ".join(surfaces), mentions))
        assert build_cooccurrence_descriptions(corpus) == _oracle_cooccurrence(corpus)

    # Other-frequency filtering is strict: exactly half `other` survives.
    cfg = DescriptionConfig()
    for n_other, n_total, expect_filtered in ((2, 5, False), (3, 6, False), (3, 5, True)):
        descriptions = [(OTHER_TYPE,) for i in range(n_other)]
        descriptions += [("ta",) for i in range(n_total - n_other)]
        desc_map, report = apply_filtering({"tb": descriptions}, cfg)
        assert report.frequencies["tb"] == pytest.approx(n_other / n_total)
        if expect_filtered:
            assert desc_map["tb"] == () and report.filtered == ("tb",)
        else:
            assert desc_map["tb"] == ("ta",) and report.filtered == ()


# ---- 6. gradient correctness ----

def test_gradients_match_central_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(3):
        insts, vocab, cfg, params = tiny_setup(d_model=8, n_layers=1, n_heads=2,
                                               dtype="float64", seed=trial + 1)
        picked = [insts[int(i)] for i in rng.choice(len(insts), size=3, replace=False)]
        rows = fd_gradient_check(params, cfg, batch_of(picked, vocab, cfg))
        worst = max(worst, max(r[4] for r in rows))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---- 7. loss decomposition ----

def test_pretrain_loss_equals_sum_of_task_terms_each_step():
    insts, vocab, cfg, params = tiny_setup(dtype="float64", seed=2)
    tcfg = replace(PRETRAIN, batch_size=4, lr=1e-3, steps=40, seed=3)
    log = train(params, insts, vocab, cfg, tcfg)
    assert len(log) == 40
    for step in log:
        r = step.report
        rel = abs(r.total - (r.md_term + r.eg_term)) / max(1.0, abs(r.total))
        assert rel <= 1e-9, f"step {step.step}: total deviates by {rel:.2e}"


# ---- 8 & 9. end-to-end memorization, prompt controllability, cached decoding ----

@pytest.fixture(scope="module")
def memorized():
    """The memorization script's recipe at its defaults, trained once and
    timed; the memorization and controllability criteria both read from it."""
    started = time.perf_counter()
    run = memorization_script().memorize()
    return run, time.perf_counter() - started


def _per_call(run):
    return partial(generate, run.params, run.cfg, run.vocab, max_len=memorization_script().MAX_GEN)


def test_memorization_reaches_f1_095_within_five_minutes(memorized):
    run, train_seconds = memorized
    assert len(run.corpus) == 200 and len(run.schema) == 8
    assert len(run.vocab.id_to_token) <= 500

    started = time.perf_counter()
    report = run.full_schema_report()
    elapsed = train_seconds + (time.perf_counter() - started)

    assert report.f1 >= 0.95, f"micro-F1 {report.f1:.4f}"
    assert elapsed <= 300.0, f"pipeline took {elapsed:.0f}s"


def test_memorization_script_runs_at_a_tiny_size(capsys):
    script = memorization_script()
    assert script.main(["--sentences", "16", "--pretrain-steps", "5", "--finetune-epochs", "1",
                        "--d-model", "8"]) == 0
    assert "full-schema micro-F1 = " in capsys.readouterr().out


def test_prompts_control_which_types_are_generated(memorized):
    conformant, checked = memorized[0].controllability()
    assert checked >= 5
    assert conformant >= 5, f"{conformant}/{checked} sentences prompt-conformant"


def _memorized_probes(run) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The (prompt, text) rows of the memorization criterion (the full schema
    over every sentence) and of the controllability criterion (single types)."""
    full_prompt = schema_prompt(run.schema, run.desc)
    full = [(full_prompt, s.text) for s in run.corpus]
    single = [(prompt, text) for _, prompt, text in run.control_probes()]
    return full, single


def test_cached_decoding_matches_full_recompute_on_the_memorized_model(memorized):
    run, _ = memorized
    full, single = _memorized_probes(run)
    probes = full + single
    gen = _per_call(run)
    mismatched = [
        (prompt, text) for prompt, text in probes
        if gen(prompt, text) != reference_generate(
            run.params, run.cfg, run.vocab, prompt, text, max_len=memorization_script().MAX_GEN)
    ]
    assert not mismatched, f"{len(mismatched)}/{len(probes)} differ, first: {mismatched[0]}"


@pytest.mark.parametrize("which", [0, 1], ids=["full-schema", "single-type"])
def test_batched_decoding_matches_per_call_decoding_on_the_memorized_model(memorized, which):
    run, _ = memorized
    probes = _memorized_probes(run)[which]
    assert len(probes) >= 10
    prompts, texts = zip(*probes)
    batched = run.decode(list(prompts), list(texts))
    gen = _per_call(run)
    per_call = [gen(prompt, text) for prompt, text in probes]
    mismatched = [(row, got, want) for row, (got, want) in enumerate(zip(batched, per_call, strict=True))
                  if got != want]
    assert not mismatched, f"{len(mismatched)}/{len(probes)} differ, first: {mismatched[0]}"


# ---- 10. gold-pipeline plumbing identity ----

def test_gold_pipeline_scores_one_on_the_fixture_corpus():
    corpus = read_annotated_jsonl(FIXTURES / "golden_corpus.jsonl")
    for episodes in gold_echo_episodes(corpus, k=1, runs=2):
        assert episodes.failures == () and len(episodes.per_run) == 2
        for report in episodes.per_run:
            assert report.precision == 1.0
            assert report.recall == 1.0
            assert report.f1 == 1.0


# ---- 11. episode protocol ----

def _constant_output_factory(sample, schema_types, run_seed):
    return (lambda prompt, text: "Alice is person."), {}


def test_episode_protocol_is_deterministic_and_averages_exactly(tmp_path, capsys):
    corpus, schema = memorization_script().generate_synthetic_corpus(200, seed=0)
    test_split = synthetic_test_split(200, 40, seed=0)

    # A constant-output model makes every run identical: the mean must equal
    # the single-run F1 exactly and the spread must vanish.
    many = run_episodes(corpus, test_split, schema, k=5, runs=10, base_seed=123,
                        episode_factory=_constant_output_factory)
    again = run_episodes(corpus, test_split, schema, k=5, runs=10, base_seed=123,
                         episode_factory=_constant_output_factory)
    one = run_episodes(corpus, test_split, schema, k=5, runs=1, base_seed=123,
                       episode_factory=_constant_output_factory)
    assert many.to_dict() == again.to_dict()
    assert len(many.f1_values) == 10 and many.failures == ()
    assert abs(many.mean_f1 - one.f1_values[0]) <= 1e-12
    assert abs(many.std_f1) <= 1e-12

    # The command-line loop with a real (tiny) model is reproducible per seed.
    corpus_path = tmp_path / "corpus.jsonl"
    test_path = tmp_path / "test.jsonl"
    write_annotated_jsonl(corpus_path, corpus)
    write_annotated_jsonl(test_path, test_split[:12])
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(list(schema)), encoding="utf-8")
    desc_path = tmp_path / "desc.jsonl"
    inst_path = tmp_path / "inst.jsonl"
    ckpt = tmp_path / "base.ckpt"
    assert cli_main(["build-descriptions", "--corpus", str(corpus_path),
                     "--out", str(desc_path)]) == 0
    assert cli_main(["make-finetune-data", "--corpus", str(corpus_path),
                     "--schema", str(schema_path), "--desc", str(desc_path),
                     "--out", str(inst_path)]) == 0
    assert cli_main(["pretrain", "--data", str(inst_path), "--out", str(ckpt),
                     "--steps", "2", "--batch", "4", "--d-model", "8",
                     "--layers", "1", "--heads", "2", "--max-len", "64"]) == 0
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = cli_main(["run-episodes", "--corpus", str(corpus_path), "--model", str(ckpt),
                       "--test", str(test_path), "--schema", str(schema_path),
                       "--out", str(out), "--k", "5", "--runs", "10",
                       "--epochs", "1", "--batch", "4", "--seed", "9"])
        assert rc == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    payload = json.loads(reports[0])
    assert payload["runs"] == 10 and len(payload["f1_values"]) == 10
    assert "mean_f1" in payload and "std_f1" in payload
    capsys.readouterr()
