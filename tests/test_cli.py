"""CLI contract tests: exit codes, run manifests, seeds, and a miniature
end-to-end pipeline over a tiny synthetic corpus."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sdnet.cli import build_parser, main
from sdnet.corpus import BuildConfig
from sdnet.data import AnnotatedSentence, TypedMention, read_annotated_jsonl, write_annotated_jsonl
from sdnet.descriptions import DescriptionConfig, read_description_map
from sdnet.evaluation import corpus_schema, gold_spans
from sdnet.locate import spans_to_record
from sdnet.model import (FINETUNE, PRETRAIN, ModelConfig, build_vocab, generate, init_params,
                         save_checkpoint, train)
from sdnet.model.tokenizer import tokenize
from sdnet.sampling import (SamplerConfig, TrainingInstance, make_md_instance,
                            read_instances_jsonl, write_instances_jsonl)
from helpers import BAD_CHECKPOINT_META, FIXTURES, memorization_script, rewrite_checkpoint_meta


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-world")
    corpus, _ = memorization_script().generate_synthetic_corpus(n_sentences=10, seed=3)
    corpus_path = root / "corpus.jsonl"
    write_annotated_jsonl(corpus_path, corpus)
    present = sorted({t for s in corpus for m in s.mentions for t in m.types})
    schema_path = root / "schema.json"
    schema_path.write_text(json.dumps(present), encoding="utf-8")
    return root, corpus, present


def _manifest_of(out_path: Path) -> dict:
    return json.loads(Path(str(out_path) + ".manifest.json").read_text(encoding="utf-8"))


def _untrained_checkpoint(path: Path, texts: list[str]) -> None:
    """A d=8 model with max_len 64 over the vocabulary of `texts`."""
    vocab = build_vocab(texts)
    mcfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, max_len=64,
                       dtype="float32", seed=0)
    save_checkpoint(path, init_params(mcfg), mcfg, vocab)


# ---- exit codes ----


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error_naming_the_token(capsys):
    rc = main(["sample-kshot", "--corpus", "c", "--out", "o", "--k", "1", "--bogus"])
    assert rc == 1
    assert "--bogus" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error_naming_the_flag(capsys):
    assert main(["sample-kshot", "--corpus", "whatever.jsonl"]) == 1
    err = capsys.readouterr().err
    assert "--out" in err and "--k" in err


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "sdnet" in capsys.readouterr().out


def test_missing_input_file_is_data_fault(tmp_path, capsys):
    rc = main(["build-descriptions", "--corpus", str(tmp_path / "absent.jsonl"),
               "--out", str(tmp_path / "d.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_schema_is_data_fault(world, tmp_path, capsys):
    root, _, _ = world
    bad = tmp_path / "schema.json"
    bad.write_text("{}", encoding="utf-8")
    rc = main(["sample-kshot", "--corpus", str(root / "corpus.jsonl"),
               "--out", str(tmp_path / "s.jsonl"), "--k", "1", "--schema", str(bad)])
    assert rc == 2
    assert "schema" in capsys.readouterr().err


def test_schema_that_is_not_json_is_data_fault_naming_the_file(world, tmp_path, capsys):
    root, _, _ = world
    bad = tmp_path / "schema.json"
    bad.write_text("{", encoding="utf-8")
    rc = main(["sample-kshot", "--corpus", str(root / "corpus.jsonl"),
               "--out", str(tmp_path / "s.jsonl"), "--k", "1", "--schema", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON")


@pytest.mark.parametrize("prompt, detail", [
    ("not a prompt", "EG prompt must start with"),
    ("[MD] China", "EG prompt must start with"),
    ("[EG] person; ; city", "blank type name"),
])
def test_predict_rejects_a_prompt_file_that_is_not_an_eg_prompt(tmp_path, capsys, monkeypatch,
                                                               prompt, detail):
    import sdnet.cli as cli_module

    monkeypatch.setattr(cli_module, "load_checkpoint", lambda path: (None, None, None, {}))
    monkeypatch.setattr(cli_module, "generate_many", lambda *a, **k: ["China is GPE."] * len(a[4]))
    prompt_path = tmp_path / "prompt.txt"
    prompt_path.write_text(prompt + "\n", encoding="utf-8")
    sentences_path = tmp_path / "sentences.jsonl"
    sentences_path.write_text(json.dumps({"id": "t0", "text": "Zoë met China."}) + "\n",
                              encoding="utf-8")
    ckpt = tmp_path / "fake.ckpt"
    ckpt.write_text("{}", encoding="utf-8")
    rc = main(["predict", "--model", str(ckpt), "--prompt-file", str(prompt_path),
               "--sentences", str(sentences_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {prompt_path}: {detail}")
    assert captured.out == ""


@pytest.mark.parametrize("cmd, record", [
    ("sample-kshot", {"id": "a", "text": 5, "mentions": []}),
    ("sample-kshot", {"id": "a", "text": "Ada rests.", "mentions": [{"surface": 5, "types": ["x"]}]}),
    ("sample-kshot", {"id": 7, "text": "Ada rests.", "mentions": []}),
    ("pretrain", {"task": "MD", "prompt": 5, "input": "Ada rests.", "target": "Ada is x."}),
    ("predict", {"id": "t0", "text": 5}),
])
def test_a_record_field_that_is_not_a_string_is_data_fault_naming_the_line(tmp_path, capsys,
                                                                           monkeypatch, cmd, record):
    import sdnet.cli as cli_module

    monkeypatch.setattr(cli_module, "load_checkpoint", lambda path: (None, None, None, {}))
    data = tmp_path / "records.jsonl"
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    prompt = tmp_path / "prompt.txt"
    prompt.write_text("[EG] x\n", encoding="utf-8")
    ckpt = tmp_path / "fake.ckpt"
    ckpt.write_text("{}", encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {"sample-kshot": ["--corpus", str(data), "--out", out, "--k", "1"],
            "pretrain": ["--data", str(data), "--out", out],
            "predict": ["--model", str(ckpt), "--prompt-file", str(prompt), "--sentences", str(data)]}
    assert main([cmd] + argv[cmd]) == 2
    assert capsys.readouterr().err.startswith(f"error: {data}:1: field ")


@pytest.mark.parametrize("schema", [[""], ["person", "  "]])
def test_blank_schema_type_is_data_fault_naming_the_file(world, tmp_path, capsys, schema):
    root, _, _ = world
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(schema), encoding="utf-8")
    desc = tmp_path / "desc.jsonl"
    desc.write_text("", encoding="utf-8")
    rc = main(["make-finetune-data", "--corpus", str(root / "corpus.jsonl"), "--schema", str(bad),
               "--desc", str(desc), "--out", str(tmp_path / "ft.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: schema must be")


@pytest.mark.parametrize("text, detail", [
    ('{"min_count": 5}', "missing field 'entries'"),
    ('{"entries": {}', "invalid JSON"),
    ('{"min_count": 5, "max_tokens": 3, "entries": {" ": 6, "person": 6}}', "blank type name ' '"),
])
def test_bad_type_dictionary_is_data_fault_naming_the_file(world, tmp_path, capsys, text, detail):
    root, _, _ = world
    bad = tmp_path / "d.json"
    bad.write_text(text, encoding="utf-8")
    desc = tmp_path / "desc.jsonl"
    desc.write_text("", encoding="utf-8")
    rc = main(["make-pretrain-data", "--corpus", str(root / "corpus.jsonl"), "--dict", str(bad),
               "--desc", str(desc), "--out", str(tmp_path / "inst.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {detail}")


def test_manifest_is_written_before_outputs(world, tmp_path, capsys):
    # A corrupt checkpoint faults after the manifest is on disk but before the
    # output exists: the manifest records intent, not success.
    root, _, _ = world
    bad_ckpt = tmp_path / "broken.ckpt"
    bad_ckpt.write_text("not a checkpoint", encoding="utf-8")
    out = tmp_path / "tuned.ckpt"
    rc = main(["finetune", "--data", str(root / "corpus.jsonl"),
               "--model", str(bad_ckpt), "--out", str(out), "--epochs", "1"])
    assert rc == 2
    assert not out.exists()
    manifest = _manifest_of(out)
    assert manifest["subcommand"] == "finetune"
    capsys.readouterr()


def test_mention_describing_without_a_model_faults_before_any_manifest(world, tmp_path, capsys):
    root, _, _ = world
    out = tmp_path / "desc.jsonl"
    assert main(["build-descriptions", "--corpus", str(root / "corpus.jsonl"), "--out", str(out),
                 "--mode", "mention-describing"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "sdnet: error: --mode mention-describing requires --model"
    assert not out.exists() and not Path(str(out) + ".manifest.json").exists()


def test_predict_names_the_sentence_that_exceeds_the_model_cap(tmp_path, capsys):
    prompt = "[EG] GPE; date"
    ckpt = tmp_path / "base.ckpt"
    _untrained_checkpoint(ckpt, [prompt, "China won."])
    prompt_path = tmp_path / "prompt.txt"
    prompt_path.write_text(prompt + "\n", encoding="utf-8")
    sentences_path = tmp_path / "sentences.jsonl"
    sentences_path.write_text(json.dumps({"id": "t1", "text": "China won."}) + "\n"
                              + json.dumps({"id": "long", "text": " ".join(["China"] * 70)}) + "\n",
                              encoding="utf-8")
    assert main(["predict", "--model", str(ckpt), "--prompt-file", str(prompt_path),
                 "--sentences", str(sentences_path), "--max-gen", "4"]) == 2
    length = len(tokenize(prompt)) + 70
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: --sentences {sentences_path}: sentence 'long': "
        f"encoded input length {length} exceeds cap 64")


def test_predict_rejects_a_repeated_sentence_id_before_decoding(tmp_path, capsys, monkeypatch):
    import sdnet.cli as cli_module

    decoded = []
    monkeypatch.setattr(cli_module, "load_checkpoint", lambda path: (None, None, None, {}))
    monkeypatch.setattr(cli_module, "generate_many", lambda *a, **k: decoded.append(a) or [""] * len(a[4]))
    prompt_path = tmp_path / "prompt.txt"
    prompt_path.write_text("[EG] GPE\n", encoding="utf-8")
    sentences_path = tmp_path / "sentences.jsonl"
    sentences_path.write_text("".join(json.dumps({"id": sid, "text": "China won."}) + "\n"
                                      for sid in ("t1", "t2", "t1")), encoding="utf-8")
    ckpt = tmp_path / "fake.ckpt"
    ckpt.write_text("{}", encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    assert main(["predict", "--model", str(ckpt), "--prompt-file", str(prompt_path),
                 "--sentences", str(sentences_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {sentences_path}:3: duplicate sentence id 't1'")
    assert decoded == [] and not out.exists()


def test_predict_decodes_every_sentence_in_one_batched_call(tmp_path, capsys, monkeypatch):
    import sdnet.cli as cli_module

    calls = []
    monkeypatch.setattr(cli_module, "load_checkpoint", lambda path: (None, None, None, {}))
    monkeypatch.setattr(cli_module, "generate_many",
                        lambda p, c, v, prompts, texts, max_len: calls.append((prompts, texts, max_len))
                        or ["China is GPE."] * len(texts))
    prompt_path = tmp_path / "prompt.txt"
    prompt_path.write_text("[EG] GPE\n", encoding="utf-8")
    sentences_path = tmp_path / "sentences.jsonl"
    texts = ["China won.", "Zoë met China.", "Rain fell."]
    sentences_path.write_text("".join(json.dumps({"id": f"t{i}", "text": text}) + "\n"
                                      for i, text in enumerate(texts)), encoding="utf-8")
    ckpt = tmp_path / "fake.ckpt"
    ckpt.write_text("{}", encoding="utf-8")
    assert main(["predict", "--model", str(ckpt), "--prompt-file", str(prompt_path),
                 "--sentences", str(sentences_path), "--max-gen", "16"]) == 0
    assert calls == [(["[EG] GPE"] * 3, texts, 16)]
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["id"], [s["surface"] for s in r["spans"]]) for r in out] == [
        ("t0", ["China"]), ("t1", ["China"]), ("t2", [])]


@pytest.mark.parametrize("cmd", ["pretrain", "finetune"])
def test_training_names_the_instance_that_exceeds_the_model_cap(cmd, tmp_path, capsys):
    short = TrainingInstance(task="EG", prompt_text="[EG] city", input_text="Rome won.",
                             target_text="Rome is city.")
    data = tmp_path / "instances.jsonl"
    write_instances_jsonl(data, [short, dataclasses.replace(short, input_text=" ".join(["Rome"] * 80))])
    out = tmp_path / "out.ckpt"
    if cmd == "pretrain":
        model = ["--d-model", "8", "--layers", "1", "--heads", "2", "--max-len", "64"]
    else:
        _untrained_checkpoint(tmp_path / "base.ckpt", [short.prompt_text, short.input_text,
                                                       short.target_text])
        model = ["--model", str(tmp_path / "base.ckpt")]
    assert main([cmd, "--data", str(data), "--out", str(out)] + model) == 2
    length = len(tokenize(short.prompt_text)) + 80
    assert capsys.readouterr().err == (
        f"error: --data {data}: instance 2: encoded input length {length} exceeds cap 64\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--heads", "0", "n_heads"), ("--heads", "-2", "n_heads"),
    ("--d-model", "0", "d_model"), ("--layers", "0", "n_layers"),
])
def test_a_model_size_below_one_is_data_fault_naming_the_field(tmp_path, capsys, flag, value, field):
    inst = TrainingInstance(task="EG", prompt_text="[EG] city", input_text="Rome won.",
                            target_text="Rome is city.")
    data = tmp_path / "instances.jsonl"
    write_instances_jsonl(data, [inst, inst])
    out = tmp_path / "out.ckpt"
    argv = ["pretrain", "--data", str(data), "--out", str(out), "--steps", "2", "--batch", "2", flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag}: {field} must be at least 1, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd, flag, value, message", [
    ("pretrain", "--max-len", "1", "max_len must be at least 2, got 1"),
    ("pretrain", "--batch", "0", "batch_size must be at least 1, got 0"),
    ("pretrain", "--lr", "0", "lr must be positive, got 0.0"),
    ("pretrain", "--steps", "0", "steps must be at least 1, got 0"),
    ("finetune", "--epochs", "0", "epochs must be at least 1, got 0"),
    ("make-pretrain-data", "--max-neg", "-1", "max_negative_types must not be negative, got -1"),
    ("make-pretrain-data", "--max-pos", "0", "max_positive_types must be at least 1, got 0"),
    ("make-pretrain-data", "--max-concepts", "0", "max_concepts must be at least 1, got 0"),
    ("make-pretrain-data", "--md-fraction", "0", "md_target_fraction must lie in (0, 1], got 0.0"),
    ("build-corpus", "--top-np", "-1", "top_np_count must not be negative, got -1"),
    ("build-corpus", "--min-type-instances", "0", "min_type_instances must be at least 1, got 0"),
    ("build-corpus", "--max-type-tokens", "0", "max_type_tokens must be at least 1, got 0"),
])
def test_a_bad_config_value_is_data_fault_naming_the_field(tmp_path, capsys, cmd, flag, value, message):
    if cmd in ("pretrain", "finetune"):
        inst = TrainingInstance(task="EG", prompt_text="[EG] city", input_text="Rome won.",
                                target_text="Rome is city.")
        data = tmp_path / "instances.jsonl"
        write_instances_jsonl(data, [inst, inst])
        inputs = ["--data", str(data), "--batch", "2"]
        if cmd == "finetune":
            _untrained_checkpoint(tmp_path / "base.ckpt", [inst.prompt_text, inst.input_text,
                                                           inst.target_text])
            inputs += ["--model", str(tmp_path / "base.ckpt")]
    elif cmd == "make-pretrain-data":
        inputs = ["--corpus", str(FIXTURES / "golden_corpus.jsonl"), "--dict", str(FIXTURES / "golden_dict.json"),
                  "--desc", str(FIXTURES / "wnut_descriptions.jsonl")]
    else:
        inputs = ["--kb", str(FIXTURES / "kb_items.jsonl"), "--pages", str(FIXTURES / "pages.jsonl")]
    out = tmp_path / "out"
    assert main([cmd, *inputs, "--out", str(out), flag, value]) == 2
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("max_gen", ["0", "-5"])
def test_predict_with_max_gen_below_one_is_data_fault(tmp_path, capsys, max_gen):
    prompt = "[EG] GPE"
    ckpt = tmp_path / "base.ckpt"
    _untrained_checkpoint(ckpt, [prompt, "China won."])
    prompt_path = tmp_path / "prompt.txt"
    prompt_path.write_text(prompt + "\n", encoding="utf-8")
    sentences_path = tmp_path / "sentences.jsonl"
    sentences_path.write_text(json.dumps({"id": "a", "text": "China won."}) + "\n", encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    assert main(["predict", "--model", str(ckpt), "--prompt-file", str(prompt_path),
                 "--sentences", str(sentences_path), "--out", str(out), "--max-gen", max_gen]) == 2
    assert capsys.readouterr().err == f"error: --max-gen: max_len must be at least 1, got {max_gen}\n"
    assert not out.exists()


def test_predict_with_max_gen_below_one_is_data_fault_on_an_empty_sentence_file(tmp_path, capsys):
    prompt = "[EG] GPE"
    ckpt = tmp_path / "base.ckpt"
    _untrained_checkpoint(ckpt, [prompt, "China won."])
    prompt_path = tmp_path / "prompt.txt"
    prompt_path.write_text(prompt + "\n", encoding="utf-8")
    sentences_path = tmp_path / "sentences.jsonl"
    sentences_path.write_text("", encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    assert main(["predict", "--model", str(ckpt), "--prompt-file", str(prompt_path),
                 "--sentences", str(sentences_path), "--out", str(out), "--max-gen", "0"]) == 2
    assert capsys.readouterr().err == "error: --max-gen: max_len must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd, flag", [("sample-kshot", "--k"), ("run-episodes", "--runs")])
def test_a_count_below_one_is_data_fault_naming_the_flag(world, tmp_path, capsys, cmd, flag):
    root, corpus, _ = world
    inputs = ["--corpus", str(root / "corpus.jsonl"), "--k", "1"]
    if cmd == "run-episodes":
        _untrained_checkpoint(tmp_path / "base.ckpt", [s.text for s in corpus])
        inputs += ["--model", str(tmp_path / "base.ckpt"), "--runs", "1"]
    out = tmp_path / "out.jsonl"
    assert main([cmd, *inputs, "--out", str(out), flag, "0"]) == 2
    assert capsys.readouterr().err == f"error: {flag}: {flag[2:]} must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["predict", "finetune"])
@pytest.mark.parametrize("message", BAD_CHECKPOINT_META)
def test_bad_checkpoint_metadata_is_data_fault_naming_the_field(tmp_path, capsys, cmd, message):
    inst = TrainingInstance(task="EG", prompt_text="[EG] GPE", input_text="China won.",
                            target_text="China is GPE.")
    ckpt = tmp_path / "base.ckpt"
    _untrained_checkpoint(ckpt, [inst.prompt_text, inst.input_text, inst.target_text])
    rewrite_checkpoint_meta(ckpt, BAD_CHECKPOINT_META[message])
    if cmd == "predict":
        prompt_path = tmp_path / "prompt.txt"
        prompt_path.write_text(inst.prompt_text + "\n", encoding="utf-8")
        sentences_path = tmp_path / "sentences.jsonl"
        sentences_path.write_text(json.dumps({"id": "a", "text": inst.input_text}) + "\n", encoding="utf-8")
        inputs = ["--prompt-file", str(prompt_path), "--sentences", str(sentences_path)]
    else:
        data = tmp_path / "instances.jsonl"
        write_instances_jsonl(data, [inst])
        inputs = ["--data", str(data)]
    out = tmp_path / "out"
    assert main([cmd, "--model", str(ckpt), *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _truncated_checkpoint(path: Path) -> None:
    _untrained_checkpoint(path, ["China won."])
    path.write_bytes(path.read_bytes()[:-100])  # cuts off the zip central directory


def _bare_array(path: Path) -> None:
    with open(path, "wb") as fh:  # np.save would add a .npy suffix to the path
        np.save(fh, np.arange(3))


def _archive_without_metadata(path: Path) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **{"param/emb": np.zeros((2, 2))})


_NOT_CHECKPOINTS = {  # file kind -> (writer, what the error says after the path)
    "empty": (lambda path: path.write_bytes(b""), "not an .npz archive"),
    "bare array": (_bare_array, "not an .npz archive"),
    "truncated checkpoint": (_truncated_checkpoint, "not an .npz archive"),
    "text": (lambda path: path.write_text("not a model\n", encoding="utf-8"), "not an .npz archive"),
    "archive without metadata": (_archive_without_metadata, "no __meta__ entry"),
}


@pytest.mark.parametrize("kind", _NOT_CHECKPOINTS)
def test_a_model_file_that_is_not_a_checkpoint_is_data_fault_naming_the_path(tmp_path, capsys, kind):
    write, reason = _NOT_CHECKPOINTS[kind]
    ckpt = tmp_path / "model.npz"
    write(ckpt)
    prompt_path = tmp_path / "prompt.txt"
    prompt_path.write_text("[EG] GPE\n", encoding="utf-8")
    sentences_path = tmp_path / "sentences.jsonl"
    sentences_path.write_text(json.dumps({"id": "a", "text": "China won."}) + "\n", encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    assert main(["predict", "--model", str(ckpt), "--prompt-file", str(prompt_path),
                 "--sentences", str(sentences_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {ckpt}: not a checkpoint: {reason}\n"
    assert not out.exists()


# ---- flag defaults ----


_MODEL = ModelConfig(vocab_size=5)
_FILLS = {  # (subcommand, flag dest) -> (the config or recipe it fills, its field)
    ("build-corpus", "min_type_instances"): (BuildConfig(), "min_type_instances"),
    ("build-corpus", "max_type_tokens"): (BuildConfig(), "max_type_tokens"),
    ("build-corpus", "top_np"): (BuildConfig(), "top_np_count"),
    ("build-descriptions", "other_threshold"): (DescriptionConfig(), "other_threshold"),
    ("make-pretrain-data", "md_fraction"): (SamplerConfig(), "md_target_fraction"),
    ("make-pretrain-data", "max_pos"): (SamplerConfig(), "max_positive_types"),
    ("make-pretrain-data", "max_neg"): (SamplerConfig(), "max_negative_types"),
    ("make-pretrain-data", "max_concepts"): (SamplerConfig(), "max_concepts"),
    ("pretrain", "steps"): (PRETRAIN, "steps"),
    ("pretrain", "batch"): (PRETRAIN, "batch_size"),
    ("pretrain", "lr"): (PRETRAIN, "lr"),
    ("pretrain", "d_model"): (_MODEL, "d_model"),
    ("pretrain", "layers"): (_MODEL, "n_layers"),
    ("pretrain", "heads"): (_MODEL, "n_heads"),
    ("pretrain", "max_len"): (_MODEL, "max_len"),
    **{(cmd, dest): (FINETUNE, field) for cmd in ("finetune", "run-episodes")
       for dest, field in (("epochs", "epochs"), ("batch", "batch_size"), ("lr", "lr"))},
}
# flags that fill no config field, and --dtype: the library's float64 serves the
# exact gradient checks, the CLI's float32 serves speed
_OWN_DEFAULTS = {"seed", "mode", "k", "runs", "max_gen", "dtype"}


def test_flag_defaults_equal_the_config_or_recipe_value_they_fill():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for cmd, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.default in (None, argparse.SUPPRESS) or action.dest in _OWN_DEFAULTS:
                continue
            config, field = _FILLS[(cmd, action.dest)]
            assert action.default == getattr(config, field), (cmd, action.dest)
            seen.add((cmd, action.dest))
    assert seen == set(_FILLS)
    assert subparsers.choices["pretrain"].get_default("dtype") == "float32" != _MODEL.dtype


# ---- seeds and manifests ----


def test_seed_defaults_to_env_var(world, tmp_path, monkeypatch, capsys):
    root, _, _ = world
    monkeypatch.setenv("SDNET_SEED", "7")
    out = tmp_path / "support.jsonl"
    assert main(["sample-kshot", "--corpus", str(root / "corpus.jsonl"),
                 "--out", str(out), "--k", "1"]) == 0
    assert _manifest_of(out)["seed"] == 7
    capsys.readouterr()


def test_seed_flag_beats_env_var(world, tmp_path, monkeypatch, capsys):
    root, _, _ = world
    monkeypatch.setenv("SDNET_SEED", "7")
    out = tmp_path / "support.jsonl"
    assert main(["sample-kshot", "--corpus", str(root / "corpus.jsonl"),
                 "--out", str(out), "--k", "1", "--seed", "3"]) == 0
    assert _manifest_of(out)["seed"] == 3
    capsys.readouterr()


def test_unparseable_seed_env_var_falls_back_to_zero(world, tmp_path, monkeypatch, capsys):
    root, _, _ = world
    monkeypatch.setenv("SDNET_SEED", "not-a-number")
    out = tmp_path / "support.jsonl"
    assert main(["sample-kshot", "--corpus", str(root / "corpus.jsonl"),
                 "--out", str(out), "--k", "1"]) == 0
    assert _manifest_of(out)["seed"] == 0
    capsys.readouterr()


def test_seed_is_a_usage_error_where_nothing_draws_from_it(world, tmp_path, capsys):
    root, corpus, _ = world
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(json.dumps(spans_to_record(corpus[0].id, [])) + "\n", encoding="utf-8")
    evaluate = ["evaluate", "--gold", str(root / "corpus.jsonl"), "--pred", str(pred_path),
                "--out", str(tmp_path / "report.json")]
    assert main(evaluate + ["--seed", "5"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert main(evaluate) == 0
    assert _manifest_of(tmp_path / "report.json")["seed"] is None


def test_manifest_records_config_and_input_hashes(world, tmp_path, capsys):
    root, _, _ = world
    out = tmp_path / "support.jsonl"
    assert main(["sample-kshot", "--corpus", str(root / "corpus.jsonl"),
                 "--out", str(out), "--k", "2"]) == 0
    manifest = _manifest_of(out)
    assert manifest["subcommand"] == "sample-kshot"
    assert manifest["config"]["k"] == 2
    assert manifest["tool_version"]
    digest = manifest["inputs"][str(root / "corpus.jsonl")]
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert str(out) in manifest["outputs"]
    capsys.readouterr()


def test_evaluate_manifest_records_the_schema_hash(world, tmp_path, capsys):
    root, corpus, _ = world
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(json.dumps(spans_to_record(corpus[0].id, [])) + "\n", encoding="utf-8")
    out = tmp_path / "report.json"
    schema_path = root / "schema.json"
    assert main(["evaluate", "--gold", str(root / "corpus.jsonl"), "--pred", str(pred_path),
                 "--schema", str(schema_path), "--out", str(out)]) == 0
    inputs = _manifest_of(out)["inputs"]
    assert list(inputs) == [str(root / "corpus.jsonl"), str(pred_path), str(schema_path)]
    assert inputs[str(schema_path)] == hashlib.sha256(schema_path.read_bytes()).hexdigest()
    capsys.readouterr()


def test_manifest_lists_inputs_in_the_order_the_parser_declares_them(world, tmp_path, capsys):
    # Flags given out of order; the checkpoint faults after the manifest is written.
    root, _, _ = world
    bad_ckpt = tmp_path / "broken.ckpt"
    bad_ckpt.write_text("not a checkpoint", encoding="utf-8")
    test_path = tmp_path / "test.jsonl"
    test_path.write_bytes((root / "corpus.jsonl").read_bytes())
    out = tmp_path / "episodes.json"
    assert main(["run-episodes", "--schema", str(root / "schema.json"), "--test", str(test_path),
                 "--out", str(out), "--corpus", str(root / "corpus.jsonl"),
                 "--model", str(bad_ckpt)]) == 2
    inputs = _manifest_of(out)["inputs"]
    assert list(inputs) == [str(root / "corpus.jsonl"), str(bad_ckpt), str(test_path),
                            str(root / "schema.json")]
    capsys.readouterr()


def test_same_seed_reproduces_identical_output_bytes(world, tmp_path, capsys):
    root, _, _ = world
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["sample-kshot", "--corpus", str(root / "corpus.jsonl"),
                     "--out", str(out), "--k", "2", "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# ---- miniature pipeline ----


def test_full_pipeline_smoke(world, tmp_path_factory, capsys):
    root, corpus, present = world
    work = tmp_path_factory.mktemp("cli-pipeline")
    corpus_path = root / "corpus.jsonl"
    schema_path = root / "schema.json"

    desc_path = work / "desc.jsonl"
    assert main(["build-descriptions", "--corpus", str(corpus_path),
                 "--out", str(desc_path), "--mode", "cooccurrence"]) == 0
    assert desc_path.exists() and _manifest_of(desc_path)["subcommand"] == "build-descriptions"

    inst_path = work / "instances.jsonl"
    assert main(["make-finetune-data", "--corpus", str(corpus_path),
                 "--schema", str(schema_path), "--desc", str(desc_path),
                 "--out", str(inst_path)]) == 0
    instances = read_instances_jsonl(inst_path)
    assert len(instances) == len(corpus)
    assert all(i.prompt_text.startswith("[EG]") for i in instances)

    ckpt = work / "base.ckpt"
    assert main(["pretrain", "--data", str(inst_path), "--out", str(ckpt),
                 "--steps", "3", "--batch", "4", "--d-model", "8", "--layers", "1",
                 "--heads", "2", "--max-len", "64", "--dtype", "float32"]) == 0
    assert ckpt.exists()
    assert "steps=3" in capsys.readouterr().err

    tuned = work / "tuned.ckpt"
    assert main(["finetune", "--data", str(inst_path), "--model", str(ckpt),
                 "--out", str(tuned), "--epochs", "1", "--batch", "4"]) == 0
    assert tuned.exists()
    capsys.readouterr()

    prompt_path = work / "prompt.txt"
    prompt_path.write_text("[EG] " + "; ".join(present) + "\n", encoding="utf-8")
    sentences_path = work / "sentences.jsonl"
    with open(sentences_path, "w", encoding="utf-8") as fh:
        for sent in corpus[:3]:
            fh.write(json.dumps({"id": sent.id, "text": sent.text}) + "\n")
    pred_path = work / "pred.jsonl"
    assert main(["predict", "--model", str(tuned), "--prompt-file", str(prompt_path),
                 "--sentences", str(sentences_path), "--out", str(pred_path),
                 "--max-gen", "16"]) == 0
    rows = [json.loads(line) for line in pred_path.read_text(encoding="utf-8").splitlines()]
    assert [r["id"] for r in rows] == [s.id for s in corpus[:3]]
    assert all("spans" in r for r in rows)
    capsys.readouterr()


# key order of an `evaluate` report (also each `run-episodes` per-run report), its per-type
# scores, and a `run-episodes` report
_REPORT_KEYS = ["precision", "recall", "f1", "gold", "predicted", "matched", "per_type"]
_TYPE_SCORE_KEYS = ["gold", "predicted", "matched", "precision", "recall", "f1"]
_EPISODES_KEYS = ["k", "runs", "base_seed", "f1_values", "mean_f1", "std_f1", "per_run", "failures"]


def _assert_report_key_order(report: dict) -> None:
    assert list(report) == _REPORT_KEYS
    assert report["per_type"] and all(list(s) == _TYPE_SCORE_KEYS for s in report["per_type"].values())


def test_evaluate_scores_gold_derived_predictions_at_one(world, tmp_path, capsys):
    root, corpus, present = world
    pred_path = tmp_path / "pred.jsonl"
    with open(pred_path, "w", encoding="utf-8") as fh:
        for sent in corpus:
            record = spans_to_record(sent.id, gold_spans(sent, present))
            fh.write(json.dumps(record) + "\n")
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--gold", str(root / "corpus.jsonl"),
                 "--pred", str(pred_path), "--schema", str(root / "schema.json"),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["f1"] == 1.0 and report["precision"] == 1.0 and report["recall"] == 1.0
    _assert_report_key_order(report)
    capsys.readouterr()


def test_evaluate_writes_report_to_stdout_without_out(world, tmp_path, capsys):
    root, corpus, present = world
    pred_path = tmp_path / "pred.jsonl"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(spans_to_record(corpus[0].id, gold_spans(corpus[0], present))) + "\n")
    # Remaining sentences have gold spans but no predictions: recall < 1.
    assert main(["evaluate", "--gold", str(root / "corpus.jsonl"),
                 "--pred", str(pred_path), "--schema", str(root / "schema.json")]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["precision"] == 1.0 and report["recall"] < 1.0


def test_evaluate_without_a_schema_scores_against_the_corpus_schema(tmp_path, capsys):
    # In 11 of the fixture's 51 sentences, the sentence's own type order gives
    # other gold spans than the sorted corpus schema does.
    gold_path = FIXTURES / "golden_corpus.jsonl"
    corpus = read_annotated_jsonl(gold_path)
    schema = corpus_schema(corpus)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text("".join(json.dumps(spans_to_record(s.id, gold_spans(s, schema))) + "\n"
                                 for s in corpus), encoding="utf-8")
    evaluate = ["evaluate", "--gold", str(gold_path), "--pred", str(pred_path)]
    with_schema, without = tmp_path / "with.json", tmp_path / "without.json"
    assert main(evaluate + ["--schema", str(schema_path), "--out", str(with_schema)]) == 0
    assert main(evaluate + ["--out", str(without)]) == 0
    assert without.read_bytes() == with_schema.read_bytes()
    assert json.loads(without.read_text(encoding="utf-8"))["f1"] == 1.0
    capsys.readouterr()


def test_predict_matches_grammar_fixture_when_generation_is_wired(world, tmp_path, capsys, monkeypatch):
    # The subcommand's parse -> locate path on a canned generation: the two
    # clauses come back as typed spans with offsets into the source text.
    import sdnet.cli as cli_module

    root, _, _ = world
    text = "The best player of China won the match a few days ago."
    canned = "China is GPE. a few days ago is date."
    monkeypatch.setattr(cli_module, "load_checkpoint",
                        lambda path: (None, None, None, {}))
    monkeypatch.setattr(cli_module, "generate_many",
                        lambda *a, **k: [canned] * len(a[4]))
    prompt_path = tmp_path / "prompt.txt"
    prompt_path.write_text("[EG] GPE; date\n", encoding="utf-8")
    sentences_path = tmp_path / "sentences.jsonl"
    sentences_path.write_text(json.dumps({"id": "t6", "text": text}) + "\n"
                              + json.dumps({"id": "t7", "text": "Zoë met China."}) + "\n",
                              encoding="utf-8")
    ckpt = tmp_path / "fake.ckpt"
    ckpt.write_text("{}", encoding="utf-8")
    predict = ["predict", "--model", str(ckpt), "--prompt-file", str(prompt_path),
               "--sentences", str(sentences_path)]
    assert main(predict) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == "t7: 0 parse diagnostics, 1 unlocated\n"
    row, other = [json.loads(line) for line in stdout.splitlines()]
    spans = [(s["surface"], s["type"], s["start"]) for s in row["spans"]]
    assert spans == [("China", "GPE", text.index("China")),
                     ("a few days ago", "date", text.index("a few days ago"))]
    assert [s["surface"] for s in other["spans"]] == ["China"]
    # --out writes the same bytes as stdout: one record a line, UTF-8 as is
    out_path = tmp_path / "pred.jsonl"
    assert main(predict + ["--out", str(out_path)]) == 0
    assert out_path.read_bytes() == stdout.encode("utf-8")
    assert stdout == "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in (row, other))


def test_mention_describing_decodes_the_corpus_in_one_batch_with_per_row_answers(
        world, tmp_path, capsys, monkeypatch):
    # A briefly trained checkpoint whose MD answers parse into concepts: the
    # file written through the batched engine equals the one written by
    # describing row by row through per-call `generate`.
    import sdnet.cli as cli_module

    root, corpus, _ = world
    # Every MD target names a constant second concept beside the mention's
    # type, which filtering strips, so a described type keeps a concept.
    md = SamplerConfig(md_target_fraction=1.0)
    tagged = [AnnotatedSentence(s.sentence, tuple(TypedMention(m.surface, m.types + ("thing",))
                                                  for m in s.mentions)) for s in corpus]
    insts = [make_md_instance(s, md, draw_key=i) for i, s in enumerate(tagged) if s.mentions]
    vocab = build_vocab([x for i in insts for x in (i.prompt_text, i.input_text, i.target_text)])
    mcfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, max_len=64,
                       dtype="float32", seed=0)
    params = init_params(mcfg)
    train(params, insts, vocab, mcfg, dataclasses.replace(PRETRAIN, steps=40, lr=1e-2,
                                                          batch_size=4, seed=1))
    ckpt = tmp_path / "md.ckpt"
    save_checkpoint(ckpt, params, mcfg, vocab)

    def describe(out: Path) -> bytes:
        assert main(["build-descriptions", "--corpus", str(root / "corpus.jsonl"), "--out", str(out),
                     "--mode", "mention-describing", "--model", str(ckpt)]) == 0
        return out.read_bytes()

    batched = describe(tmp_path / "batched.jsonl")
    monkeypatch.setattr(cli_module, "generate_many",
                        lambda p, c, v, ps, ts: [generate(p, c, v, a, b) for a, b in zip(ps, ts)])
    assert describe(tmp_path / "per_row.jsonl") == batched
    desc, _ = read_description_map(tmp_path / "batched.jsonl")
    assert any(desc.values())  # some type was described by concepts
    capsys.readouterr()


def test_run_episodes_smoke(world, tmp_path, capsys):
    root, corpus, present = world
    inst_path = tmp_path / "inst.jsonl"
    desc_path = tmp_path / "desc.jsonl"
    assert main(["build-descriptions", "--corpus", str(root / "corpus.jsonl"),
                 "--out", str(desc_path), "--mode", "cooccurrence"]) == 0
    assert main(["make-finetune-data", "--corpus", str(root / "corpus.jsonl"),
                 "--schema", str(root / "schema.json"), "--desc", str(desc_path),
                 "--out", str(inst_path)]) == 0
    ckpt = tmp_path / "base.ckpt"
    assert main(["pretrain", "--data", str(inst_path), "--out", str(ckpt),
                 "--steps", "2", "--batch", "4", "--d-model", "8", "--layers", "1",
                 "--heads", "2", "--max-len", "64", "--dtype", "float32"]) == 0
    report_path = tmp_path / "episodes.json"
    assert main(["run-episodes", "--corpus", str(root / "corpus.jsonl"),
                 "--model", str(ckpt), "--schema", str(root / "schema.json"),
                 "--out", str(report_path), "--k", "1", "--runs", "1",
                 "--epochs", "1", "--batch", "4"]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["runs"] == 1 and len(report["f1_values"]) == 1
    assert report["failures"] == []
    assert 0.0 <= report["mean_f1"] <= 1.0
    assert list(report) == _EPISODES_KEYS
    _assert_report_key_order(report["per_run"][0])
    capsys.readouterr()


def test_run_episodes_with_k_below_one_is_data_fault_writing_no_report(world, tmp_path, capsys):
    root, corpus, _ = world
    ckpt = tmp_path / "base.ckpt"
    _untrained_checkpoint(ckpt, [s.text for s in corpus])
    out = tmp_path / "episodes.json"
    assert main(["run-episodes", "--corpus", str(root / "corpus.jsonl"), "--model", str(ckpt),
                 "--out", str(out), "--k", "0", "--runs", "2"]) == 2
    assert capsys.readouterr().err == "error: --k: k must be at least 1, got 0\n"
    assert not out.exists()
