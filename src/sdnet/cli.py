"""Command-line entry point for the two-stage workflow: corpus/description
building and pretraining, then k-shot fine-tuning, prediction, and scoring.

Exit codes: 0 success, 1 usage error, 2 data/runtime fault. Diagnostics go to
stderr; data goes to files or stdout. Every file-producing subcommand writes a
run manifest (resolved config, input hashes, seed, version) before its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import __version__ as TOOL_VERSION
from .codec import parse_prompt_eg
from .corpus import BuildConfig, build_corpus
from .data import (
    OTHER_TYPE,
    CorpusFormatError,
    TypeDictionary,
    atomic_write,
    iter_jsonl,
    read_annotated_jsonl,
    read_file,
    sentence_from_record,
    write_annotated_jsonl,
)
from .descriptions import (
    DescriptionConfig,
    build_cooccurrence_descriptions,
    describe_with_model,
    read_description_map,
    write_description_map,
)
from .evaluation import gold_spans, model_episode_factory, predict_spans, run_episodes, score
from .locate import read_predictions_jsonl, write_predictions_jsonl
from .model import (
    FINETUNE,
    PRETRAIN,
    LossNotFiniteError,
    ModelConfig,
    TrainConfig,
    TrainingDivergedError,
    build_vocab,
    generate,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .model.network import GEN_MAX_LEN
from .sampling import (
    SamplerConfig,
    build_finetune_instances,
    build_pretrain_instances,
    read_instances_jsonl,
    sample_kshot,
    stable_draw_key,
    write_instances_jsonl,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_seed() -> int:
    raw = os.environ.get("SDNET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        return 0


def subseed(seed: int, stream: str) -> int:
    """Named sub-stream of the run seed, so components re-seed independently."""
    return stable_draw_key(seed, stream)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_text(path: str | Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _write_manifest(args: argparse.Namespace, inputs: list, outputs: list) -> None:
    outputs = [Path(p) for p in outputs if p]
    if not outputs:
        return
    config = {}
    for key, value in vars(args).items():
        if key == "func" or callable(value):
            continue
        config[key] = str(value) if isinstance(value, Path) else value
    manifest = {
        "subcommand": args.cmd,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if p},
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
        "tool_version": TOOL_VERSION,
    }
    manifest_path = Path(str(outputs[0]) + ".manifest.json")
    _write_text(manifest_path, json.dumps(manifest, indent=2, ensure_ascii=False) + "\n")


def _schema_from(text: str) -> list[str]:
    raw = json.loads(text)
    if not isinstance(raw, list) or not all(isinstance(t, str) and t.strip() for t in raw) or not raw:
        raise ValueError("schema must be a non-empty JSON array of non-blank type names")
    return raw


def _eg_prompt_from(text: str) -> str:
    parse_prompt_eg(text.strip())  # a prompt that is not an EG prompt raises ValueError
    return text.strip()


def _derive_schema(corpus) -> list[str]:
    return sorted({t for s in corpus for m in s.mentions for t in m.types if t != OTHER_TYPE})


def _emit(payload: str, out: str | None) -> None:
    if out:
        _write_text(out, payload)
    else:
        sys.stdout.write(payload)


# ---- subcommands ----


def cmd_build_corpus(args: argparse.Namespace) -> int:
    cfg = BuildConfig(min_type_instances=args.min_type_instances,
                      max_type_tokens=args.max_type_tokens, top_np_count=args.top_np)
    _write_manifest(args, [args.kb, args.pages], [args.out, args.dict_out])
    build = build_corpus(args.kb, args.pages, cfg)
    write_annotated_jsonl(args.out, build.sentences)
    if args.dict_out:
        _write_text(args.dict_out, build.dictionary.to_json() + "\n")
    print(f"sentences={len(build.sentences)} types={len(build.dictionary.entries)} "
          f"tally={dict(build.tally)}", file=sys.stderr)
    return 0


def cmd_build_descriptions(args: argparse.Namespace) -> int:
    if args.mode == "mention-describing" and not args.model:
        raise CorpusFormatError("--mode mention-describing requires --model")
    _write_manifest(args, [args.corpus] + ([args.model] if args.model else []), [args.out])
    corpus = read_annotated_jsonl(args.corpus)
    if args.mode == "cooccurrence":
        desc = build_cooccurrence_descriptions(corpus)
        filtered: tuple[str, ...] = ()
    else:
        params, mcfg, vocab, _ = load_checkpoint(args.model)
        dcfg = DescriptionConfig(other_threshold=args.other_threshold)
        desc, report = describe_with_model(corpus, partial(generate, params, mcfg, vocab), dcfg)
        filtered = report.filtered
    write_description_map(args.out, desc, filtered)
    print(f"types={len(desc)} filtered={len(filtered)}", file=sys.stderr)
    return 0


def cmd_make_pretrain_data(args: argparse.Namespace) -> int:
    _write_manifest(args, [args.corpus, args.dict, args.desc], [args.out])
    corpus = read_annotated_jsonl(args.corpus)
    dictionary = read_file(args.dict, TypeDictionary.from_json)
    desc, _ = read_description_map(args.desc)
    cfg = SamplerConfig(rng_seed=subseed(args.seed, "sampler"),
                        md_target_fraction=args.md_fraction,
                        max_positive_types=args.max_pos,
                        max_negative_types=args.max_neg,
                        max_concepts=args.max_concepts)
    instances = build_pretrain_instances(corpus, dictionary, desc, cfg)
    write_instances_jsonl(args.out, instances)
    print(f"instances={len(instances)}", file=sys.stderr)
    return 0


def cmd_make_finetune_data(args: argparse.Namespace) -> int:
    _write_manifest(args, [args.corpus, args.schema, args.desc], [args.out])
    corpus = read_annotated_jsonl(args.corpus)
    schema = read_file(args.schema, _schema_from)
    desc, _ = read_description_map(args.desc)
    instances = build_finetune_instances(corpus, schema, desc)
    write_instances_jsonl(args.out, instances)
    print(f"instances={len(instances)}", file=sys.stderr)
    return 0


def cmd_sample_kshot(args: argparse.Namespace) -> int:
    _write_manifest(args, [args.corpus] + ([args.schema] if args.schema else []), [args.out])
    corpus = read_annotated_jsonl(args.corpus)
    schema = read_file(args.schema, _schema_from) if args.schema else _derive_schema(corpus)
    sample = sample_kshot(corpus, args.k, schema, rng_seed=subseed(args.seed, "kshot"))
    write_annotated_jsonl(args.out, sample.sentences)
    print(f"support={len(sample.sentences)} counts={sample.counts}", file=sys.stderr)
    if sample.unsatisfied:
        print(f"unsatisfiable types: {list(sample.unsatisfied)}", file=sys.stderr)
    return 0


def _train_and_save(out: str, params: dict, instances: list, vocab, mcfg: ModelConfig,
                    tcfg: TrainConfig) -> int:
    """Trains `params` by `tcfg` and writes them as the checkpoint `out`."""
    log = train(params, instances, vocab, mcfg, tcfg)
    save_checkpoint(out, params, mcfg, vocab, extra={"mode": tcfg.mode, "steps": len(log)})
    print(f"steps={len(log)} first_loss={log[0].report.total:.4f} "
          f"last_loss={log[-1].report.total:.4f}", file=sys.stderr)
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    _write_manifest(args, [args.data], [args.out])
    instances = read_instances_jsonl(args.data)
    texts = [t for i in instances for t in (i.prompt_text, i.input_text, i.target_text)]
    vocab = build_vocab(texts)
    mcfg = ModelConfig(vocab_size=len(vocab), d_model=args.d_model, n_layers=args.layers,
                       n_heads=args.heads, max_len=args.max_len, dtype=args.dtype,
                       seed=subseed(args.seed, "model"))
    params = init_params(mcfg)
    tcfg = dataclasses.replace(PRETRAIN, batch_size=args.batch, lr=args.lr, steps=args.steps,
                               seed=subseed(args.seed, "train"))
    return _train_and_save(args.out, params, instances, vocab, mcfg, tcfg)


def cmd_finetune(args: argparse.Namespace) -> int:
    _write_manifest(args, [args.data, args.model], [args.out])
    params, mcfg, vocab, _ = load_checkpoint(args.model)
    instances = read_instances_jsonl(args.data)
    tcfg = dataclasses.replace(FINETUNE, batch_size=args.batch, lr=args.lr, epochs=args.epochs,
                               seed=subseed(args.seed, "train"))
    return _train_and_save(args.out, params, instances, vocab, mcfg, tcfg)


def cmd_predict(args: argparse.Namespace) -> int:
    _write_manifest(args, [args.model, args.prompt_file, args.sentences], [args.out])
    prompt = read_file(args.prompt_file, _eg_prompt_from)
    params, mcfg, vocab, _ = load_checkpoint(args.model)
    gen = partial(generate, params, mcfg, vocab, max_len=args.max_gen)
    predictions = []
    for sent in iter_jsonl(args.sentences, sentence_from_record):
        spans, diagnostics, unlocated = predict_spans(gen, sent, prompt)
        if diagnostics or unlocated:
            print(f"{sent.id}: {len(diagnostics)} parse diagnostics, "
                  f"{len(unlocated)} unlocated", file=sys.stderr)
        predictions.append((sent.id, spans))
    write_predictions_jsonl(args.out or sys.stdout, predictions)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _write_manifest(args, [args.gold, args.pred], [args.out])
    corpus = read_annotated_jsonl(args.gold)
    schema = read_file(args.schema, _schema_from) if args.schema else None
    gold = {s.id: gold_spans(s, schema) for s in corpus}
    pred = read_predictions_jsonl(args.pred)
    report = score(gold, pred)
    _emit(json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n", args.out)
    return 0


def cmd_run_episodes(args: argparse.Namespace) -> int:
    _write_manifest(args, [args.corpus, args.model] +
                    ([args.test] if args.test else []) +
                    ([args.schema] if args.schema else []), [args.out])
    corpus = read_annotated_jsonl(args.corpus)
    test = read_annotated_jsonl(args.test) if args.test else corpus
    schema = read_file(args.schema, _schema_from) if args.schema else _derive_schema(corpus)
    params, mcfg, vocab, _ = load_checkpoint(args.model)
    ftcfg = dataclasses.replace(FINETUNE, batch_size=args.batch, lr=args.lr, epochs=args.epochs)
    factory = model_episode_factory(params, mcfg, vocab, ftcfg)
    report = run_episodes(corpus, test, schema, k=args.k, runs=args.runs,
                          base_seed=subseed(args.seed, "episodes"), episode_factory=factory)
    _emit(json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n", args.out)
    print(f"mean_f1={report.mean_f1:.4f} std_f1={report.std_f1:.4f} "
          f"failures={len(report.failures)}", file=sys.stderr)
    return 0


# ---- parser wiring ----


def build_parser() -> _Parser:
    parser = _Parser(prog="sdnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sdnet {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def seeded(p: _Parser) -> None:  # only subcommands that draw from `subseed` streams
        p.add_argument("--seed", type=int, default=_default_seed(),
                       help="run seed (default: SDNET_SEED env var or 0)")

    p = sub.add_parser("build-corpus", help="build AnnotatedSentence JSONL from KB + page dumps")
    p.add_argument("--kb", required=True)
    p.add_argument("--pages", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dict-out", default=None, help="also write the type dictionary JSON")
    p.add_argument("--min-type-instances", type=int, default=BuildConfig.min_type_instances)
    p.add_argument("--max-type-tokens", type=int, default=BuildConfig.max_type_tokens)
    p.add_argument("--top-np", type=int, default=BuildConfig.top_np_count)
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("build-descriptions", help="build the type->concepts map")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["cooccurrence", "mention-describing"],
                   default="cooccurrence")
    p.add_argument("--model", default=None, help="checkpoint for mention-describing mode")
    p.add_argument("--other-threshold", type=float, default=DescriptionConfig.other_threshold)
    p.set_defaults(func=cmd_build_descriptions)

    p = sub.add_parser("make-pretrain-data", help="emit MD+EG training instances")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--desc", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--md-fraction", type=float, default=SamplerConfig.md_target_fraction)
    p.add_argument("--max-pos", type=int, default=SamplerConfig.max_positive_types)
    p.add_argument("--max-neg", type=int, default=SamplerConfig.max_negative_types)
    p.add_argument("--max-concepts", type=int, default=SamplerConfig.max_concepts)
    seeded(p)
    p.set_defaults(func=cmd_make_pretrain_data)

    p = sub.add_parser("make-finetune-data", help="emit full-schema EG instances")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True, help="JSON array of type names")
    p.add_argument("--desc", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_finetune_data)

    p = sub.add_parser("sample-kshot", help="greedy k-shot support sampling")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--schema", default=None)
    seeded(p)
    p.set_defaults(func=cmd_sample_kshot)

    p = sub.add_parser("pretrain", help="train a fresh model on MD+EG instances")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=PRETRAIN.steps)
    p.add_argument("--batch", type=int, default=PRETRAIN.batch_size)
    p.add_argument("--lr", type=float, default=PRETRAIN.lr)
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    p.add_argument("--layers", type=int, default=ModelConfig.n_layers)
    p.add_argument("--heads", type=int, default=ModelConfig.n_heads)
    p.add_argument("--max-len", type=int, default=ModelConfig.max_len)
    # ModelConfig defaults to float64 for the exact gradient checks; a CLI run wants speed.
    p.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    seeded(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on EG instances")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=FINETUNE.epochs)
    p.add_argument("--batch", type=int, default=FINETUNE.batch_size)
    p.add_argument("--lr", type=float, default=FINETUNE.lr)
    seeded(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="generate, parse, and locate spans")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt-file", required=True)
    p.add_argument("--sentences", required=True, help="JSONL with id and text fields")
    p.add_argument("--out", default=None, help="default: stdout")
    p.add_argument("--max-gen", type=int, default=GEN_MAX_LEN)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-episodes", help="k-shot fine-tune/predict/score loop")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--test", default=None, help="default: the training corpus")
    p.add_argument("--schema", default=None)
    p.add_argument("--out", default=None, help="default: stdout")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--epochs", type=int, default=FINETUNE.epochs)
    p.add_argument("--batch", type=int, default=FINETUNE.batch_size)
    p.add_argument("--lr", type=float, default=FINETUNE.lr)
    seeded(p)
    p.set_defaults(func=cmd_run_episodes)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CorpusFormatError, TrainingDivergedError, LossNotFiniteError,
            FileNotFoundError, IsADirectoryError, PermissionError,
            json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
