"""The benchmark's workloads and the metrics taken from them.

Each workload is an offline, single-process, closed-loop batch job: one
operation starts when the previous one has finished. `timed` runs operations
until the run's seconds are spent (a workload that reports a p90 runs at least
MIN_OPS, so that p90 has ten samples beyond it); `fixed` runs a fixed amount
of the same work, untraced and traced in turn, so that the outputs can be
compared byte for byte and the traced spans give the per-layer numbers.

The benchmark calls the program through module attributes (`sdnet.model.train`,
not a name imported once), so that the traced run's wrappers are seen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sdnet.corpus
import sdnet.descriptions
import sdnet.evaluation
import sdnet.model
import sdnet.model.network
import sdnet.model.trainer
import sdnet.sampling
from sdnet.corpus import BuildConfig
from sdnet.data import TypeDictionary, annotated_from_record, annotated_to_record, validate_annotated_sentence
from sdnet.descriptions import DescriptionConfig
from sdnet.model import ModelConfig, TrainConfig
from sdnet.model.tokenizer import tokenize
from sdnet.sampling import SamplerConfig

import envinfo
import gen
from spans import Span, Tracer, median, percentile, self_times, tail_percentile

MIN_OPS = 120       # p90 needs at least 100 samples to have ten beyond it
WARMUP_STEPS = 16
N_TRAIN, N_TEST = 400, 40
REFERENCE_SHAPE = dict(d_model=64, n_layers=1, n_heads=4, d_ff=256, max_len=64, dtype="float32")
PRETRAIN_LR = 2e-3  # the CLI default 5e-5 leaves a base model that decodes to max_len
BASE_STEPS = 300    # base model for the k-shot episodes; its generations end on EOS
GEN_MAX_LEN = 64
K = 5
FINETUNE = TrainConfig(mode="finetune", batch_size=4, lr=1e-4, epochs=5, schedule="linear")
F1_FLOOR = 0.2      # seed-commit runs read 0.34-0.66 across seeds; below this decoding is broken
N_PAGES = 4000      # the dump size of the data-prep workload
TRACE_STEPS, TRACE_EPISODES = 60, 4
LAYERS = ("corpus", "descriptions", "sampling", "codec", "locate", "evaluation",
          "tokenizer", "network", "trainer")


@dataclass
class Timed:
    work: float          # units of work done in `wall` seconds
    wall: float
    attempted: int
    failed: int
    named: dict = field(default_factory=dict)   # the workload's metrics by their own names
    errors: list[str] = field(default_factory=list)


@dataclass
class Fixed:
    output: bytes
    wall: float          # seconds spent in the program's calls, output encoding excluded
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def _step_ms(spans: list[Span]) -> list[float]:
    """Per-step times inside each `train` span: from the call's start, or the
    previous step's end, to the end of the step's AdamW update."""
    out = []
    last: dict[int, float] = {}  # train span -> end of its previous step
    for i, s in enumerate(spans):
        if s.name == "trainer.train":
            last[i] = s.start
        elif s.name == "trainer.adamw_step" and s.parent in last:
            out.append((s.end - last[s.parent]) * 1e3)
            last[s.parent] = s.end
    return out


def _step_probe() -> Tracer:
    """Spans for `train` calls and their AdamW steps only; nothing else is
    wrapped, and each wrapper costs about a microsecond."""
    probe = Tracer()
    probe.wrap(sdnet.model, "train", "trainer.train")
    probe.wrap(sdnet.model.trainer, "adamw_step", "trainer.adamw_step")
    return probe


def _p50_p90(samples: list[float], what: str, errors: list[str]) -> tuple[float, float]:
    if (tail_percentile(len(samples)) or 0) < 90:
        errors.append(f"{len(samples)} {what} are too few for p90")
    return percentile(samples, 50), percentile(samples, 90)


def _pretrain_config(steps: int, seed: int) -> TrainConfig:
    return TrainConfig(mode="pretrain", batch_size=16, lr=PRETRAIN_LR, steps=steps,
                       schedule="constant", seed=seed, micro_size=8)


def _prepare_pretraining(train_records: list[dict], seed: int):
    corpus = [annotated_from_record(r) for r in train_records]
    desc = sdnet.descriptions.build_cooccurrence_descriptions(corpus)
    dictionary = TypeDictionary(entries={t: 10 for t in gen.SCHEMA})
    instances = sdnet.sampling.build_pretrain_instances(corpus, dictionary, desc,
                                                        SamplerConfig(rng_seed=seed))
    vocab = sdnet.model.build_vocab(
        [t for i in instances for t in (i.prompt_text, i.input_text, i.target_text)])
    mcfg = ModelConfig(vocab_size=len(vocab), seed=seed, **REFERENCE_SHAPE)
    return corpus, instances, vocab, mcfg, sdnet.model.init_params(mcfg)


def _loss_checks(losses: list[float]) -> list[str]:
    if not all(math.isfinite(x) for x in losses):
        return ["pretrain loss is not finite"]
    head, tail = np.mean(losses[:10]), np.mean(losses[-10:])
    if not tail < head:
        return [f"pretrain loss did not fall: first steps {head:.4f}, last steps {tail:.4f}"]
    return []


class Pretrain:
    """Pretraining at the reference shape on synthetic MD+EG instances."""

    setups = 5  # set-ups per timed run; setup_s is their median

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        train, _ = gen.synthetic_splits(self.seed, N_TRAIN, 0)
        _, self.instances, self.vocab, self.mcfg, self.params0 = _prepare_pretraining(train, self.seed)
        t0 = time.perf_counter()
        self._train(sdnet.model.clone_params(self.params0), WARMUP_STEPS)  # warm-up, step estimate
        self.step_s = (time.perf_counter() - t0) / WARMUP_STEPS

    def _train(self, params, steps: int):
        return sdnet.model.train(params, self.instances, self.vocab, self.mcfg,
                                 _pretrain_config(steps, self.seed + 1))

    def timed(self, seconds: float) -> Timed:
        steps = max(MIN_OPS, round(seconds / self.step_s))
        probe = _step_probe()
        try:
            t0 = time.perf_counter()
            log = self._train(sdnet.model.clone_params(self.params0), steps)
            wall = time.perf_counter() - t0
        finally:
            probe.restore()
        tokens = sum(s.report.md_tokens + s.report.eg_tokens for s in log)
        losses = [s.report.total for s in log]
        errors = _loss_checks(losses)
        p50, p90 = _p50_p90(_step_ms(probe.spans), "training steps", errors)
        return Timed(work=tokens, wall=wall, attempted=steps, failed=steps - len(log),
                     named={"pretrain_step_ms_p50": (p50, "ms"),
                            "pretrain_step_ms_p90": (p90, "ms"),
                            "train_target_tokens_per_s": (tokens / wall, "1/s"),
                            "pretrain_loss_end": (float(np.mean(losses[-10:])), "nats")},
                     errors=errors)

    def fixed(self) -> Fixed:
        params = sdnet.model.clone_params(self.params0)
        t0 = time.perf_counter()
        log = self._train(params, TRACE_STEPS)
        wall = time.perf_counter() - t0
        losses = [s.report.total for s in log]
        digest = hashlib.sha256()
        for k in sorted(params):
            digest.update(k.encode() + params[k].tobytes())
        output = json.dumps({"losses": [repr(x) for x in losses], "params": digest.hexdigest()})
        return Fixed(output=output.encode(), wall=wall, attempted=TRACE_STEPS, failed=TRACE_STEPS - len(log),
                     errors=_loss_checks(losses),
                     quality={"quality.pretrain_loss_end": float(np.mean(losses[-10:]))})

    def context(self) -> dict:
        return {}


def _emitted_ids(text: str, limit: int) -> tuple[int, bool]:
    """Ids a greedy decode emitted for `text`, the closing EOS included, and
    whether it stopped at the length limit instead of on EOS."""
    n = len(tokenize(text))
    hit = n >= limit
    return (n if hit else n + 1), hit


class KShotEpisodes:
    """`run_episodes` with the model factory: describe, fine-tune, decode,
    locate and score, k=5, on a held-out synthetic test split."""

    setups = 3  # each one pretrains the base model

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        train, test = gen.synthetic_splits(self.seed, N_TRAIN, N_TEST)
        self.train, instances, self.vocab, self.mcfg, params = _prepare_pretraining(train, self.seed)
        self.test = [annotated_from_record(r) for r in test]
        sdnet.model.train(params, instances, self.vocab, self.mcfg,
                          _pretrain_config(BASE_STEPS, self.seed + 1))
        self.base = params
        self.gen_limit = min(GEN_MAX_LEN, self.mcfg.max_len - 1)
        sdnet.model.generate(self.base, self.mcfg, self.vocab, "[EG] person", self.test[0].text,
                             max_len=GEN_MAX_LEN)  # warm-up

    def _factory(self):
        return sdnet.evaluation.model_episode_factory(
            self.base, self.mcfg, self.vocab, FINETUNE, DescriptionConfig(rng_seed=self.seed),
            gen_max_len=GEN_MAX_LEN)

    def _episodes(self, factory, base_seed: int, runs: int):
        return sdnet.evaluation.run_episodes(self.train, self.test, gen.SCHEMA, k=K, runs=runs,
                                             base_seed=base_seed, episode_factory=factory)

    def _checks(self, reports) -> list[str]:
        errors = [f"episode run {f.run} failed: {f.message}" for r in reports for f in r.failures]
        f1s = [f for r in reports for f in r.f1_values]
        if f1s and float(np.mean(f1s)) < F1_FLOOR:
            errors.append(f"episode mean F1 {np.mean(f1s):.4f} is below the floor {F1_FLOOR}")
        return errors

    def timed(self, seconds: float) -> Timed:
        probe = _step_probe()  # before the factory, which looks up `train` when it is built
        try:
            return self._timed(seconds, self._factory(), probe)
        finally:
            probe.restore()

    def _timed(self, seconds: float, factory, probe: Tracer) -> Timed:
        gen_ms: list[float] = []
        outputs: list[str] = []

        def timed_factory(support, schema_types, run_seed):
            generate_fn, desc_map = factory(support, schema_types, run_seed)

            def timed_generate(prompt: str, text: str) -> str:
                t0 = time.perf_counter()
                out = generate_fn(prompt, text)
                gen_ms.append((time.perf_counter() - t0) * 1e3)
                outputs.append(out)
                return out

            return timed_generate, desc_map

        episode_s: list[float] = []
        reports = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(gen_ms) < MIN_OPS:
            t0 = time.perf_counter()
            reports.append(self._episodes(timed_factory, self.seed * 1000 + len(reports), 1))
            episode_s.append(time.perf_counter() - t0)
        emitted = [_emitted_ids(o, self.gen_limit)[0] for o in outputs]
        f1s = [f for r in reports for f in r.f1_values]
        failed = sum(len(r.failures) for r in reports)
        errors = self._checks(reports)
        p50, p90 = _p50_p90(gen_ms, "generations", errors)
        return Timed(work=len(self.test) * len(reports), wall=sum(episode_s),
                     attempted=len(reports) + len(gen_ms), failed=failed,
                     named={"episode_s_p50": (median(episode_s), "s"),
                            "finetune_step_ms_p50": (median(_step_ms(probe.spans)), "ms"),
                            "decode_ms_per_sentence_p50": (p50, "ms"),
                            "decode_ms_per_sentence_p90": (p90, "ms"),
                            "decode_tokens_per_s": (sum(emitted) / (sum(gen_ms) / 1e3), "1/s"),
                            "episode_mean_f1": (float(np.mean(f1s)) if f1s else 0.0, "f1")},
                     errors=errors)

    def fixed(self) -> Fixed:
        t0 = time.perf_counter()
        report = self._episodes(self._factory(), self.seed * 1000, TRACE_EPISODES)
        wall = time.perf_counter() - t0
        output = json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True).encode()
        return Fixed(output=output, wall=wall, attempted=TRACE_EPISODES, failed=len(report.failures),
                     errors=self._checks([report]),
                     quality={"quality.episode_mean_f1": report.mean_f1})

    def context(self) -> dict:
        mentions = [m for s in self.test for m in s.mentions]
        oov = sum(1 for m in mentions
                  if any(self.vocab.encode([tok])[0] == sdnet.model.UNK_ID for tok in tokenize(m.surface)))
        return {"gen_limit": self.gen_limit, "test_oov_mention_ratio": oov / len(mentions)}


def _corpus_bytes(build) -> bytes:
    lines = [json.dumps(annotated_to_record(s), ensure_ascii=False) for s in build.sentences]
    return ("\n".join(lines) + "\n" + build.dictionary.to_json()).encode("utf-8")


class DataPrep:
    """One pass over a generated KB+pages dump: `build_corpus` at jobs=1 (the
    CLI default), co-occurrence descriptions, pretraining instances and the
    vocabulary."""

    setups = 3  # each one writes the dump and runs one warm-up pass

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs = min(2, envinfo.nproc())

    def setup(self) -> None:
        self.kb, self.pages = gen.write_dump(self.workdir, self.seed, N_PAGES)
        self._op({})  # warm-up

    def _op(self, stage: dict):
        """One pass over the whole dump; adds the corpus and sampling seconds,
        the instance count and the malformed records to `stage`."""
        t0 = time.perf_counter()
        build = sdnet.corpus.build_corpus(self.kb, self.pages, BuildConfig(), jobs=1)
        t1 = time.perf_counter()
        desc = sdnet.descriptions.build_cooccurrence_descriptions(build.sentences)
        t2 = time.perf_counter()
        instances = sdnet.sampling.build_pretrain_instances(build.sentences, build.dictionary, desc,
                                                            SamplerConfig(rng_seed=self.seed))
        t3 = time.perf_counter()
        vocab = sdnet.model.build_vocab(
            [t for i in instances for t in (i.prompt_text, i.input_text, i.target_text)])
        malformed = build.tally["malformed_kb_record"] + build.tally["malformed_page_record"]
        for key, value in (("corpus", t1 - t0), ("sampling", t3 - t2), ("instances", len(instances)),
                           ("malformed", malformed)):
            stage[key] = stage.get(key, 0) + value
        return build, instances, vocab

    def _build_many(self):
        return sdnet.corpus.build_corpus(self.kb, self.pages, BuildConfig(), jobs=self.jobs)

    def _checks(self, one, many) -> tuple[bytes, list[str]]:
        b_one, b_many = _corpus_bytes(one), _corpus_bytes(many)
        errors = []
        if b_one != b_many:
            errors.append(f"build_corpus output differs between jobs=1 and jobs={self.jobs}")
        bad = [s.id for s in one.sentences if not validate_annotated_sentence(s)]
        if bad:
            errors.append(f"{len(bad)} corpus sentences fail validation, first {bad[0]!r}")
        if one.tally["unknown_anchor_target"] or not one.sentences:
            errors.append("generated dump has unresolved anchors or yields no sentences")
        return b_one + b_many, errors

    def timed(self, seconds: float) -> Timed:
        op_s: list[float] = []
        stage: dict = {}
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            build, _, _ = self._op(stage)
            op_s.append(time.perf_counter() - t0)
        _, errors = self._checks(build, self._build_many())
        pages = N_PAGES * len(op_s)
        return Timed(work=pages, wall=sum(op_s), attempted=pages, failed=stage["malformed"],
                     named={"data_prep_s": (median(op_s), "s"),
                            "corpus_pages_per_s": (pages / stage["corpus"], "1/s"),
                            "pretrain_instances_per_s": (stage["instances"] / stage["sampling"], "1/s")},
                     errors=errors)

    def fixed(self) -> Fixed:
        t0 = time.perf_counter()
        build, instances, vocab = self._op({})
        many = self._build_many()
        wall = time.perf_counter() - t0
        corpus_bytes, errors = self._checks(build, many)
        output = b"\n".join([corpus_bytes, json.dumps([dataclasses.astuple(i) for i in instances]).encode(),
                             vocab.to_json().encode()])
        return Fixed(output=output, wall=wall, attempted=2 * N_PAGES, failed=0, errors=errors)

    def context(self) -> dict:
        return {}


WORKLOADS = {"pretrain": Pretrain, "kshot-episodes": KShotEpisodes, "data-prep": DataPrep}


# ---- tracing ----


def install(tracer: Tracer, ctx: dict) -> None:
    """Swap every attribute the program's callers look up for a timing wrapper.
    `sdnet.model.generate` and `.train` are read by the episode factory when it
    is built, so this runs before any factory exists."""
    net, trainer, ev = sdnet.model.network, sdnet.model.trainer, sdnet.evaluation
    wrap = tracer.wrap

    def on_decoder(attrs, args, kwargs, result):
        attrs["positions"] = int(args[2].shape[1])

    def on_batch(attrs, args, kwargs, batch):
        attrs["pad"] = int((~batch.src_mask).sum() + (batch.labels == sdnet.model.PAD_ID).sum())
        attrs["slots"] = int(batch.src.size + batch.labels.size)

    def on_generate(attrs, args, kwargs, text):
        attrs["tokens"], attrs["hit"] = _emitted_ids(text, ctx["gen_limit"])

    def on_parse(attrs, args, kwargs, parsed):
        attrs["diagnostic"] = bool(parsed.diagnostics)

    def on_describe(attrs, args, kwargs, result):
        attrs["types"] = len(result[1].frequencies)
        attrs["filtered"] = len(result[1].filtered)

    def on_locate(attrs, args, kwargs, result):
        attrs["pairs"] = len(args[1].pairs)
        attrs["unlocated"] = len(result[1])

    def on_build(attrs, args, kwargs, build):
        attrs["jobs"] = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
        kept = sum(len(s.mentions) for s in build.sentences)
        dropped = sum(build.tally[k] for k in ("unsafe_surface_dropped", "blank_surface_dropped",
                                                "cross_boundary_mention"))
        attrs["kept"], attrs["dropped"] = kept, dropped

    wrap(net, "encoder_forward", "network.encoder_forward")
    wrap(net, "decoder_forward", "network.decoder_forward", on_decoder)
    wrap(net, "encode_input", "tokenizer.encode_input")
    wrap(net, "encode_target", "tokenizer.encode_target")
    wrap(trainer, "make_batch", "network.make_batch", on_batch)
    wrap(trainer, "forward_loss", "network.forward_loss")
    wrap(trainer, "adamw_step", "trainer.adamw_step")
    wrap(sdnet.model, "train", "trainer.train")
    wrap(sdnet.model, "generate", "network.generate", on_generate)
    wrap(sdnet.model, "build_vocab", "tokenizer.build_vocab")
    for owner in (sdnet.sampling, sdnet.descriptions, ev):
        wrap(owner, "parse_generated", "codec.parse_generated", on_parse)
    wrap(sdnet.descriptions, "build_cooccurrence_descriptions", "descriptions.build_cooccurrence")
    wrap(ev, "describe_with_model", "descriptions.describe_with_model", on_describe)
    wrap(sdnet.sampling, "build_pretrain_instances", "sampling.build_pretrain_instances")
    wrap(ev, "sample_kshot", "sampling.sample_kshot")
    wrap(ev, "build_finetune_instances", "sampling.build_finetune_instances")
    wrap(ev, "locate", "locate.locate", on_locate)
    wrap(ev, "predict_spans", "evaluation.predict_spans")
    wrap(ev, "score", "evaluation.score")
    wrap(ev, "run_episodes", "evaluation.run_episodes")
    wrap(sdnet.corpus, "build_corpus", "corpus.build_corpus", on_build)
    wrap(sdnet.corpus, "read_kb_jsonl", "corpus.read_kb")
    wrap(sdnet.corpus, "read_pages_jsonl", "corpus.read_pages")
    wrap(sdnet.corpus, "build_type_dictionary", "corpus.build_type_dictionary")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall: float, overhead: float, ctx: dict,
                  quality: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); a layer the workload does not
    call reads 0. Times are mean inclusive durations per call unless named
    otherwise."""
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def picked(name: str, parent: str | None) -> list[Span]:
        """Spans named `name`, only those called directly by `parent` if given."""
        return [spans[i] for i in by.get(name, ())
                if parent is None or (spans[i].parent is not None
                                      and spans[spans[i].parent].name == parent)]

    def durs(name: str, parent: str | None = None) -> list[float]:
        return [s.duration for s in picked(name, parent)]

    def mean(name: str, scale: float) -> float:
        d = durs(name)
        return scale * sum(d) / len(d) if d else 0.0

    def total(name: str, key: str, parent: str | None = None) -> float:
        return sum(s.attrs.get(key, 0) for s in picked(name, parent))

    selfs = self_times(spans)
    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (float(value), unit)

    # model.network
    put("network.encoder_forward.ms", mean("network.encoder_forward", 1e3), "ms")
    put("network.decoder_forward.ms", mean("network.decoder_forward", 1e3), "ms")
    loss_self = [selfs[i] for i in by.get("network.forward_loss", ())]
    put("network.backward.ms", 1e3 * _ratio(sum(loss_self), len(loss_self)), "ms")
    put("network.make_batch.ms", mean("network.make_batch", 1e3), "ms")
    put("network.make_batch.pad_ratio", _ratio(total("network.make_batch", "pad"),
                                               total("network.make_batch", "slots")), "ratio")
    n_gen = len(by.get("network.generate", ()))
    gen_tokens = total("network.generate", "tokens")
    put("network.generate.ms", mean("network.generate", 1e3), "ms")
    put("network.generate.calls", n_gen, "count")
    put("network.generate.tokens", gen_tokens, "count")
    put("network.generate.max_len_hit_ratio", _ratio(total("network.generate", "hit"), n_gen), "ratio")
    put("network.decoder_forward.calls_per_token",
        _ratio(len(durs("network.decoder_forward", "network.generate")), gen_tokens), "ratio")
    put("network.decoder_forward.positions_per_token",
        _ratio(total("network.decoder_forward", "positions", "network.generate"), gen_tokens), "ratio")

    # model.trainer
    put("trainer.adamw_step.ms", mean("trainer.adamw_step", 1e3), "ms")
    put("trainer.train.s", mean("trainer.train", 1.0), "s")
    step_ms = _step_ms(spans)
    put("trainer.step.ms_p50", median(step_ms) if step_ms else 0.0, "ms")

    # model.tokenizer
    n_batches = len(by.get("network.make_batch", ()))
    encode = (sum(durs("tokenizer.encode_input", "network.make_batch"))
              + sum(durs("tokenizer.encode_target", "network.make_batch")))
    put("tokenizer.encode.ms", 1e3 * _ratio(encode, n_batches), "ms")
    put("tokenizer.build_vocab.s", mean("tokenizer.build_vocab", 1.0), "s")
    put("tokenizer.test_oov_mention_ratio", ctx.get("test_oov_mention_ratio", 0.0), "ratio")

    # codec
    n_parse = len(by.get("codec.parse_generated", ()))
    put("codec.parse_generated.calls", n_parse, "count")
    put("codec.parse_generated.us", mean("codec.parse_generated", 1e6), "us")
    put("codec.diagnostic_ratio", _ratio(total("codec.parse_generated", "diagnostic"), n_parse), "ratio")

    # locate
    put("locate.locate.us", mean("locate.locate", 1e6), "us")
    put("locate.unlocated_ratio", _ratio(
        total("locate.locate", "unlocated", "evaluation.predict_spans"),
        total("locate.locate", "pairs", "evaluation.predict_spans")), "ratio")

    # evaluation
    episodes = len(by.get("sampling.sample_kshot", ()))
    put("evaluation.predict_spans.ms", mean("evaluation.predict_spans", 1e3), "ms")
    put("evaluation.score.ms", mean("evaluation.score", 1e3), "ms")
    put("evaluation.episode.describe_s", _ratio(sum(durs("descriptions.describe_with_model")), episodes), "s")
    put("evaluation.episode.finetune_s",
        _ratio(sum(durs("trainer.train", "evaluation.run_episodes")), episodes), "s")
    put("evaluation.episode.predict_s", _ratio(sum(durs("evaluation.predict_spans")), episodes), "s")

    # descriptions
    put("descriptions.describe_with_model.s", mean("descriptions.describe_with_model", 1.0), "s")
    put("descriptions.filtered_ratio", _ratio(total("descriptions.describe_with_model", "filtered"),
                                              total("descriptions.describe_with_model", "types")), "ratio")
    put("descriptions.build_cooccurrence.s", mean("descriptions.build_cooccurrence", 1.0), "s")

    # sampling
    put("sampling.build_pretrain_instances.s", mean("sampling.build_pretrain_instances", 1.0), "s")
    put("sampling.sample_kshot.ms", mean("sampling.sample_kshot", 1e3), "ms")
    put("sampling.build_finetune_instances.ms", mean("sampling.build_finetune_instances", 1e3), "ms")

    # corpus
    n_builds = len(by.get("corpus.build_corpus", ()))
    reads = sum(durs("corpus.read_kb")) + sum(durs("corpus.read_pages"))
    put("corpus.read.s", _ratio(reads, n_builds), "s")
    put("corpus.build_type_dictionary.s", mean("corpus.build_type_dictionary", 1.0), "s")
    for jobs in (1, 2):
        builds = [s.duration for s in picked("corpus.build_corpus", None) if s.attrs["jobs"] == jobs]
        put(f"corpus.build_corpus.s.jobs{jobs}", _ratio(sum(builds), len(builds)), "s")
    kept, dropped = total("corpus.build_corpus", "kept"), total("corpus.build_corpus", "dropped")
    put("corpus.dropped_ratio", _ratio(dropped, kept + dropped), "ratio")

    # where the time went
    for layer in LAYERS:
        put(f"self_s.{layer}", sum(selfs[i] for i, s in enumerate(spans) if s.layer == layer), "s")
    top = sum(s.duration for s in spans if s.parent is None)
    put("trace.top_level_share", _ratio(top, wall), "ratio")
    put("trace.untraced_remainder_s", wall - top, "s")
    put("trace.spans", len(spans), "count")
    put("trace_overhead_ratio", overhead, "ratio")
    put("quality.pretrain_loss_end", quality.get("quality.pretrain_loss_end", 0.0), "nats")
    put("quality.episode_mean_f1", quality.get("quality.episode_mean_f1", 0.0), "f1")
    return m


# ---- runs ----


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics, plus the workload's own named
    metrics for the report line."""
    workload = WORKLOADS[name](seed, workdir)
    setup_s = []
    for _ in range(workload.setups):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    timed = workload.timed(seconds)
    errors = timed.errors
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "work_per_s": (timed.work / timed.wall, "1/s"),
    }
    # Op-time percentiles are reported but not bounded: a shared 2-vCPU VM
    # moves between clock states for seconds to minutes, and a run's p50 or
    # p90 lands on one state or the other (ten-seed spreads reached 0.37 and
    # 0.43 there), while throughput, a mean over the run, spreads less.
    named = dict(timed.named)
    named["setup_s"] = metrics["setup_s"]
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["failed_ratio"] = (timed.failed / timed.attempted, "ratio")
    info = {"errors": errors,
            "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    result = {"correct": not errors and timed.failed == 0, "attempted": timed.attempted,
              "failed": timed.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, info


def run_traced(name: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """The traced run: a fixed amount of work in five passes, untraced and
    traced in turn; every pass must give the same output bytes. The first
    traced pass gives the per-layer metrics, and the median traced pass over
    the median untraced one gives the tracing overhead."""
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    passes: list[tuple[Fixed, Tracer | None]] = []
    for traced in (False, True, False, True, False):
        tracer = Tracer() if traced else None
        if tracer is not None:
            install(tracer, workload.context())
        try:
            passes.append((workload.fixed(), tracer))
        finally:
            if tracer is not None:
                tracer.restore()
    untraced_s = [f.wall for f, t in passes if t is None]
    traced_s = [f.wall for f, t in passes if t is not None]
    first, tracer = passes[1]
    errors = [e for f, _ in passes for e in f.errors]
    if len({f.output for f, _ in passes}) != 1:
        errors.append("tracing changed the output bytes")
    metrics = layer_metrics(tracer.spans, first.wall, median(traced_s) / median(untraced_s) - 1.0,
                            workload.context(), first.quality)
    info = {"errors": errors, "untraced_s": untraced_s, "traced_s": traced_s,
            "output_sha256": hashlib.sha256(first.output).hexdigest()}
    failed = sum(f.failed for f, _ in passes)
    result = {"correct": not errors and failed == 0, "attempted": sum(f.attempted for f, _ in passes),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, info
