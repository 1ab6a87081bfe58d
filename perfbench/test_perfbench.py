"""Tests for the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, percentile, self_times, tail_percentile  # noqa: E402


@pytest.mark.parametrize("n, expected", [(19, None), (20, 50), (99, 89), (100, 90), (101, 90),
                                         (110, 90), (200, 95), (1000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10 - 1e-9
        assert n * (100 - expected - 1) / 100 < 10


def test_percentile_interpolates_between_ranks():
    xs = [float(x) for x in range(1, 101)]
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 90) == pytest.approx(90.1)
    assert percentile([3.0], 90) == 3.0
    assert percentile([4.0, 1.0, 2.0, 3.0], 0) == 1.0


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("evaluation.root", 0.0, 10.0, None),
        Span("network.a", 1.0, 3.0, 0),
        Span("codec.c", 6.0, 7.0, 0),
        Span("locate.d", 1.5, 2.0, 1),    # grandchild: not subtracted from the root
        Span("evaluation.other", 20.0, 21.0, None),
    ]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5, 1.0])
    # without overlapping siblings, self times add up to the top-level spans
    assert sum(self_times(spans)) == pytest.approx(sum(s.duration for s in spans if s.parent is None))
    overlapping = [Span("evaluation.root", 0.0, 10.0, None),
                   Span("network.a", 1.0, 3.0, 0), Span("network.b", 2.0, 5.0, 0)]
    assert self_times(overlapping) == pytest.approx([6.0, 2.0, 3.0])


def test_step_times_run_from_train_start_to_each_adamw_end():
    spans = [
        Span("trainer.train", 0.0, 1.0, None),
        Span("network.forward_loss", 0.0, 0.2, 0),
        Span("trainer.adamw_step", 0.2, 0.25, 0),
        Span("trainer.adamw_step", 0.6, 0.7, 0),
        Span("trainer.adamw_step", 5.0, 5.1, None),   # outside any train call: ignored
        Span("trainer.train", 2.0, 3.0, None),
        Span("trainer.adamw_step", 2.4, 2.5, 5),
    ]
    assert workloads._step_ms(spans) == pytest.approx([250.0, 450.0, 500.0])


def test_tracer_records_parents_and_restores_attributes():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    originals = (Owner.outer, Owner.inner)
    tracer = Tracer()
    tracer.wrap(Owner, "outer", "evaluation.outer")
    tracer.wrap(Owner, "inner", "network.inner", lambda attrs, a, k, r: attrs.update(result=r))
    assert Owner.outer(3) == 7
    tracer.restore()
    assert (Owner.outer, Owner.inner) == originals
    outer, inner = tracer.spans
    assert outer.parent is None and inner.parent == 0
    assert inner.attrs == {"result": 6}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_synthetic_splits_are_deterministic_and_disjoint():
    a_train, a_test = gen.synthetic_splits(5, 200, 40)
    b_train, b_test = gen.synthetic_splits(5, 200, 40)
    assert gen.to_jsonl(a_train + a_test) == gen.to_jsonl(b_train + b_test)
    assert gen.to_jsonl(gen.synthetic_splits(6, 200, 40)[0]) != gen.to_jsonl(a_train)
    assert not {r["text"] for r in a_train} & {r["text"] for r in a_test}
    for r in a_train + a_test:
        starts = [r["text"].find(m["surface"]) for m in r["mentions"]]
        assert min(starts) >= 0 and starts == sorted(starts)


def test_kb_pages_dump_is_deterministic_and_resolves(tmp_path):
    from sdnet.corpus import split_sentences

    kb, pages = gen.kb_pages_dump(3, 120)
    assert gen.to_jsonl(kb) + gen.to_jsonl(pages) == b"".join(map(gen.to_jsonl, gen.kb_pages_dump(3, 120)))
    ids = {item["id"] for item in kb}
    for page in pages:
        assert len(split_sentences(page["text"])) >= 3
        for a in page["anchors"]:
            assert a["target"] in ids
            assert page["text"][a["offset"]:a["offset"] + len(a["surface"])] == a["surface"]
    kb_path, pages_path = gen.write_dump(tmp_path, 3, 120)
    assert kb_path.read_bytes() + pages_path.read_bytes() == gen.to_jsonl(kb) + gen.to_jsonl(pages)


def _module_attributes() -> dict:
    import sdnet

    mods = [m for name, m in sorted(sys.modules.items())
            if name == "sdnet" or name.startswith("sdnet.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_traced_run_restores_every_wrapper(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "N_PAGES", 150)
    before = _module_attributes()
    result, info = workloads.run_traced("data-prep", 2, tmp_path)
    after = _module_attributes()
    assert result["correct"], info["errors"]
    assert {k for k in after if after[k] is not before.get(k)} == set()
    assert result["metrics"]["corpus.build_corpus.s.jobs1"]["value"] > 0
    assert result["metrics"]["trace.top_level_share"]["value"] > 0.9


def test_install_swaps_each_attribute_once_and_restore_undoes_it():
    tracer = Tracer()
    workloads.install(tracer, {"gen_limit": 63})
    try:
        swapped = list(tracer._swapped)
        assert len(swapped) == len({(id(o), a) for o, a, _ in swapped})
        assert all(getattr(o, a) is not orig for o, a, orig in swapped)
    finally:
        tracer.restore()
    assert all(getattr(o, a) is orig for o, a, orig in swapped)


def test_layer_metrics_match_the_per_layer_list_of_benchmark_json():
    import json

    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    metrics = workloads.layer_metrics([], 1.0, 0.0, {}, {})
    assert {m["name"]: m["unit"] for m in listed} == {k: u for k, (_, u) in metrics.items()}
