"""Command-line entry point for the two-stage workflow: corpus/description
building and pretraining, then k-shot fine-tuning, prediction, and scoring.

Exit codes: 0 success, 1 usage error, 2 data/runtime fault. Diagnostics go to
stderr; data goes to files or stdout. Every file-producing subcommand that
succeeds writes a run manifest (resolved config, the hashes its inputs had when
the run started, seed, version) beside its first output; a failed run writes none.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from . import __version__ as TOOL_VERSION
from .codec import check_eg_label, check_prompt_entry, parse_prompt_eg
from .corpus import BuildConfig, build_corpus
from .data import (
    ConceptDescription,
    CorpusFormatError,
    RowError,
    TypeDictionary,
    atomic_write,
    distinct_ids,
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
from .evaluation import (corpus_schema, gold_spans, locate_generated, model_episode_factory,
                         run_episodes, score)
from .locate import read_predictions_jsonl, write_predictions_jsonl
from .model import (
    FINETUNE,
    PRETRAIN,
    ModelConfig,
    TrainConfig,
    TrainingDivergedError,
    build_vocab,
    generate_many,
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
    """argparse exits with status 2 on usage errors; the contract here is 1.
    A flag is spelled in full, so a prefix of one (`--mode` of `--model`) is
    an unknown flag rather than that flag."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_text(path: str | Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


# The flags that name files a run reads, and those that name files it writes.
INPUT_FLAGS = ("kb", "pages", "corpus", "dict", "desc", "schema", "data", "model", "test",
               "gold", "pred", "prompt_file", "sentences")
OUTPUT_FLAGS = ("out", "dict_out")


def _manifest(args: argparse.Namespace) -> tuple[Path, str] | None:
    """The path beside the first output, if the run writes one, and the text of
    the run manifest: the config, the SHA-256 of each given input file (in
    parser order), the outputs, seed and version."""
    given = [(key, value) for key, value in vars(args).items() if value]
    outputs = [Path(value) for key, value in given if key in OUTPUT_FLAGS]
    if not outputs:
        return None
    manifest = {
        "subcommand": args.cmd,
        "config": {key: value for key, value in vars(args).items() if not callable(value)},
        "inputs": {value: _sha256(Path(value)) for key, value in given if key in INPUT_FLAGS},
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
        "tool_version": TOOL_VERSION,
    }
    return Path(str(outputs[0]) + ".manifest.json"), json.dumps(manifest, indent=2, ensure_ascii=False) + "\n"


def _schema_from(text: str) -> list[str]:
    raw = json.loads(text)
    if not isinstance(raw, list) or not all(isinstance(t, str) and t.strip() for t in raw) or not raw:
        raise ValueError("schema must be a non-empty JSON array of non-blank type names")
    repeated = next((t for i, t in enumerate(raw) if t in raw[:i]), None)
    if repeated is not None:
        raise ValueError(f"schema repeats type {repeated!r}")
    for type_id in raw:  # a type that does not read back could never be scored
        check_prompt_entry(ConceptDescription(type_id))
        check_eg_label(type_id)
    return raw


def _eg_prompt_from(text: str) -> str:
    parse_prompt_eg(text.strip())  # a prompt that is not an EG prompt raises ValueError
    return text.strip()


def _schema_of(args: argparse.Namespace, corpus, flag: str = "--corpus") -> list[str]:
    """The --schema file's types, or without one every non-`other` type of
    `corpus` (read from `flag`), sorted; a corpus with none is a fault."""
    schema = read_file(args.schema, _schema_from) if args.schema else corpus_schema(corpus)
    if not schema:
        raise CorpusFormatError(f"{flag} {getattr(args, flag[2:])}: no typed mention to derive a schema from; "
                                "give --schema")
    return schema


@contextmanager
def _naming_flags(**flag_of: str):
    """Names the flag behind a config fault raised inside: every config check's
    message starts with its field (`batch_size must be at least 1, got 0`), and
    `flag_of` maps fields to the flags that set them (`batch_size="--batch"`),
    so the fault reads `--batch: batch_size must be at least 1, got 0`."""
    try:
        yield
    except ValueError as exc:
        field = str(exc).partition(" ")[0]
        if field not in flag_of:
            raise
        raise ValueError(f"{flag_of[field]}: {exc}") from exc


# the flags of `pretrain`, `finetune` and `run-episodes` that set a TrainConfig field
_TRAIN_FLAGS = dict(batch_size="--batch", lr="--lr", steps="--steps", epochs="--epochs")


def _emit(payload: str, out: str | None) -> None:
    if out:
        _write_text(out, payload)
    else:
        sys.stdout.write(payload)


# ---- subcommands ----


def cmd_build_corpus(args: argparse.Namespace) -> int:
    with _naming_flags(min_type_instances="--min-type-instances", max_type_tokens="--max-type-tokens",
                       top_np_count="--top-np"):
        cfg = BuildConfig(min_type_instances=args.min_type_instances,
                          max_type_tokens=args.max_type_tokens, top_np_count=args.top_np)
    build = build_corpus(args.kb, args.pages, cfg)
    write_annotated_jsonl(args.out, build.sentences)
    if args.dict_out:
        _write_text(args.dict_out, build.dictionary.to_json() + "\n")
    print(f"sentences={len(build.sentences)} types={len(build.dictionary.entries)} "
          f"tally={dict(build.tally)}", file=sys.stderr)
    return 0


def cmd_build_descriptions(args: argparse.Namespace) -> int:
    corpus = read_annotated_jsonl(args.corpus)
    if args.model:
        params, mcfg, vocab, _ = load_checkpoint(args.model)
        with _naming_flags(other_threshold="--other-threshold"):
            dcfg = DescriptionConfig(other_threshold=args.other_threshold)
        desc, report = describe_with_model(corpus, partial(generate_many, params, mcfg, vocab), dcfg)
        filtered = report.filtered
    else:
        desc = build_cooccurrence_descriptions(corpus)
        filtered = ()
    write_description_map(args.out, desc, filtered)
    print(f"types={len(desc)} filtered={len(filtered)}", file=sys.stderr)
    return 0


def cmd_make_pretrain_data(args: argparse.Namespace) -> int:
    corpus = read_annotated_jsonl(args.corpus)
    dictionary = read_file(args.dict, TypeDictionary.from_json)
    desc, _ = read_description_map(args.desc)
    with _naming_flags(md_target_fraction="--md-fraction", max_positive_types="--max-pos",
                       max_negative_types="--max-neg", max_concepts="--max-concepts"):
        cfg = SamplerConfig(rng_seed=stable_draw_key(args.seed, "sampler"),
                            md_target_fraction=args.md_fraction,
                            max_positive_types=args.max_pos,
                            max_negative_types=args.max_neg,
                            max_concepts=args.max_concepts)
    instances = build_pretrain_instances(corpus, dictionary, desc, cfg)
    write_instances_jsonl(args.out, instances)
    print(f"instances={len(instances)}", file=sys.stderr)
    return 0


def cmd_make_finetune_data(args: argparse.Namespace) -> int:
    corpus = read_annotated_jsonl(args.corpus)
    schema = read_file(args.schema, _schema_from)
    desc, _ = read_description_map(args.desc)
    instances = build_finetune_instances(corpus, schema, desc)
    write_instances_jsonl(args.out, instances)
    print(f"instances={len(instances)}", file=sys.stderr)
    return 0


def cmd_sample_kshot(args: argparse.Namespace) -> int:
    corpus = read_annotated_jsonl(args.corpus)
    schema = _schema_of(args, corpus)
    with _naming_flags(k="--k"):
        sample = sample_kshot(corpus, args.k, schema, rng_seed=stable_draw_key(args.seed, "kshot"))
    write_annotated_jsonl(args.out, sample.sentences)
    print(f"support={len(sample.sentences)} counts={sample.counts}", file=sys.stderr)
    if sample.unsatisfied:
        print(f"unsatisfiable types: {list(sample.unsatisfied)}", file=sys.stderr)
    return 0


def _train_and_save(args: argparse.Namespace, params: dict, instances: list, vocab,
                    mcfg: ModelConfig, tcfg: TrainConfig) -> int:
    """Trains `params` on the --data instances by `tcfg`; writes the checkpoint --out."""
    try:
        log = train(params, instances, vocab, mcfg, tcfg)
    except RowError as exc:
        raise CorpusFormatError(f"--data {args.data}: instance {exc.row + 1}: {exc.reason}") from exc
    save_checkpoint(args.out, params, mcfg, vocab, extra={"mode": tcfg.mode, "steps": len(log)})
    print(f"steps={len(log)} first_loss={log[0].report.total:.4f} "
          f"last_loss={log[-1].report.total:.4f}", file=sys.stderr)
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    instances = read_instances_jsonl(args.data)
    texts = [t for i in instances for t in (i.prompt_text, i.input_text, i.target_text)]
    vocab = build_vocab(texts)
    with _naming_flags(d_model="--d-model", n_layers="--layers", n_heads="--heads", max_len="--max-len",
                       **_TRAIN_FLAGS):
        mcfg = ModelConfig(vocab_size=len(vocab), d_model=args.d_model, n_layers=args.layers,
                           n_heads=args.heads, max_len=args.max_len, dtype=args.dtype,
                           seed=stable_draw_key(args.seed, "model"))
        tcfg = dataclasses.replace(PRETRAIN, batch_size=args.batch, lr=args.lr, steps=args.steps,
                                   seed=stable_draw_key(args.seed, "train"))
    return _train_and_save(args, init_params(mcfg), instances, vocab, mcfg, tcfg)


def cmd_finetune(args: argparse.Namespace) -> int:
    params, mcfg, vocab, _ = load_checkpoint(args.model)
    instances = read_instances_jsonl(args.data)
    with _naming_flags(**_TRAIN_FLAGS):
        tcfg = dataclasses.replace(FINETUNE, batch_size=args.batch, lr=args.lr, epochs=args.epochs,
                                   seed=stable_draw_key(args.seed, "train"))
    return _train_and_save(args, params, instances, vocab, mcfg, tcfg)


def cmd_predict(args: argparse.Namespace) -> int:
    prompt = read_file(args.prompt_file, _eg_prompt_from)
    params, mcfg, vocab, _ = load_checkpoint(args.model)
    sentences = list(iter_jsonl(args.sentences, distinct_ids(sentence_from_record)))
    try:
        with _naming_flags(max_len="--max-gen"):
            texts = generate_many(params, mcfg, vocab, [prompt] * len(sentences),
                                  [sent.text for sent in sentences], max_len=args.max_gen)
    except RowError as exc:
        raise CorpusFormatError(
            f"--sentences {args.sentences}: sentence {sentences[exc.row].id!r}: {exc.reason}") from exc
    predictions = []
    for sent, text in zip(sentences, texts):
        spans, diagnostics, unlocated = locate_generated(sent, text)
        if diagnostics or unlocated:
            print(f"{sent.id}: {len(diagnostics)} parse diagnostics, "
                  f"{len(unlocated)} unlocated", file=sys.stderr)
        predictions.append((sent.id, spans))
    write_predictions_jsonl(args.out or sys.stdout, predictions)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = read_annotated_jsonl(args.gold)
    schema = _schema_of(args, corpus, "--gold")
    gold = {s.id: gold_spans(s, schema) for s in corpus}
    pred = read_predictions_jsonl(args.pred)
    report = score(gold, pred)
    _emit(json.dumps(dataclasses.asdict(report), indent=2, ensure_ascii=False) + "\n", args.out)
    return 0


def cmd_run_episodes(args: argparse.Namespace) -> int:
    corpus = read_annotated_jsonl(args.corpus)
    test = read_annotated_jsonl(args.test)
    schema = _schema_of(args, corpus)
    params, mcfg, vocab, _ = load_checkpoint(args.model)
    with _naming_flags(**_TRAIN_FLAGS):
        ftcfg = dataclasses.replace(FINETUNE, batch_size=args.batch, lr=args.lr, epochs=args.epochs)
    factory = model_episode_factory(params, mcfg, vocab, ftcfg)
    with _naming_flags(k="--k", runs="--runs", train_corpus="--corpus", test_corpus="--test"):
        report = run_episodes(corpus, test, schema, k=args.k, runs=args.runs,
                              base_seed=stable_draw_key(args.seed, "episodes"), episode_factory=factory)
    _emit(json.dumps(dataclasses.asdict(report), indent=2, ensure_ascii=False) + "\n", args.out)
    print(f"mean_f1={report.mean_f1:.4f} std_f1={report.std_f1:.4f} "
          f"failures={len(report.failures)}", file=sys.stderr)
    return 0


# ---- parser wiring ----


def build_parser() -> _Parser:
    parser = _Parser(prog="sdnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sdnet {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def seeded(p: _Parser) -> None:  # only subcommands that draw seeded streams (`stable_draw_key`)
        p.add_argument("--seed", type=int, default=0, help="run seed (default: 0)")

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
    p.add_argument("--model", default=None,
                   help="describe with this checkpoint's MD task (default: mine co-occurrence)")
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
    p.add_argument("--test", required=True, help="held-out split; shares no sentence with --corpus")
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
        manifest = _manifest(args)  # the inputs as they are before the run
        status = args.func(args)
        if status == 0 and manifest:
            _write_text(*manifest)
        return status
    except (ValueError, KeyError, OSError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
