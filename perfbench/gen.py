"""Seeded input generators for the benchmark.

Everything here is plain records (dicts) drawn from `random.Random(seed)`, so
the same seed gives byte-identical inputs on any Python 3.10+ and the inputs
do not change when the program under test changes. The program receives only
these records (or the JSONL files written from them).

- `synthetic_splits`: templated sentences over eight entity types, split into
  a train part and a test part that share no sentence text.
- `kb_pages_dump`: a KB of typed items and wiki-style pages whose anchors all
  resolve into that KB; every page carries several sentences.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SCHEMA = ("person", "city", "animal", "color", "fruit", "metal", "river", "game")

POOLS: dict[str, tuple[str, ...]] = {
    "person": ("Alice", "Bruno", "Clara", "Dmitri", "Elena", "Farid", "Greta",
               "Hugo", "Ines", "Jonas", "Kira", "Luca", "Mara", "Nils"),
    "city": ("Paris", "London", "Berlin", "Madrid", "Vienna", "Oslo", "Dublin",
             "Prague", "Lisbon", "Athens", "Cairo", "Warsaw", "Zurich", "Tallinn"),
    "animal": ("fox", "owl", "bear", "wolf", "deer", "hawk", "otter", "lynx",
               "crane", "mole", "toad", "hare", "bison", "heron"),
    "color": ("amber", "violet", "teal", "ivory", "indigo", "coral", "olive",
              "slate", "beige", "maroon", "cyan", "magenta", "ochre", "mauve"),
    "fruit": ("apple", "pear", "plum", "mango", "grape", "melon", "cherry",
              "lemon", "peach", "kiwi", "fig", "banana", "quince", "papaya"),
    "metal": ("iron", "copper", "zinc", "gold", "silver", "nickel", "tin",
              "cobalt", "brass", "steel", "bronze", "titanium", "chrome", "lead"),
    "river": ("Danube", "Nile", "Amazon", "Rhine", "Volga", "Seine", "Thames",
              "Ganges", "Mekong", "Congo", "Loire", "Tiber", "Elbe", "Oder"),
    "game": ("chess", "poker", "tennis", "soccer", "hockey", "golf", "rugby",
             "cricket", "darts", "billiards", "squash", "badminton", "curling", "polo"),
}

TEMPLATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("{0} visited {1} with {2}.", ("person", "city", "person")),
    ("{0} saw a {1} near the {2}.", ("person", "animal", "river")),
    ("The {0} {1} pleased {2}.", ("color", "fruit", "person")),
    ("{0} played {1} in {2}.", ("person", "game", "city")),
    ("A {0} swam along the {1} at dusk.", ("animal", "river")),
    ("{0} bought {1} rings in {2}.", ("person", "metal", "city")),
    ("The {0} stand in {1} also sold {2} pans.", ("fruit", "city", "metal")),
    ("{0} painted the {1} gate {2}.", ("person", "city", "color")),
    ("Near {0} the {1} crossed the {2}.", ("city", "animal", "river")),
    ("{0} taught {1} to {2} on Sundays.", ("person", "game", "person")),
    ("A {0} {1} lay beside the {2} bowl.", ("color", "fruit", "metal")),
    ("Every spring {0} watched the {1} from {2}.", ("person", "river", "city")),
)


def _draw(rng: random.Random, seq):
    return seq[rng.randrange(len(seq))]


def synthetic_splits(seed: int, n_train: int, n_test: int) -> tuple[list[dict], list[dict]]:
    """Annotated-sentence records; no text occurs in both splits (or twice)."""
    rng = random.Random(seed)
    seen: set[str] = set()
    records: list[dict] = []
    while len(records) < n_train + n_test:
        template, slot_types = _draw(rng, TEMPLATES)
        fillers: list[str] = []
        for t in slot_types:
            pool = [s for s in POOLS[t] if s not in fillers]
            fillers.append(_draw(rng, pool))
        text = template.format(*fillers)
        if text in seen or any(text.count(f) != 1 for f in fillers):
            continue
        seen.add(text)
        mentions = sorted(zip(fillers, slot_types), key=lambda m: text.find(m[0]))
        records.append({"text": text,
                        "mentions": [{"surface": s, "types": [t]} for s, t in mentions]})
    train = [{"id": f"tr-{i:05d}", **r} for i, r in enumerate(records[:n_train])]
    test = [{"id": f"te-{i:05d}", **r} for i, r in enumerate(records[n_train:])]
    return train, test


# ---- KB + pages dump ----

TYPE_ITEMS = (
    ("T1", "human"), ("T2", "city"), ("T3", "river"), ("T4", "company"),
    ("T5", "university"), ("T6", "film"), ("T7", "musical ensemble"),
    ("T8", "writer"), ("T9", "politician"), ("T10", "book series"),
    ("T11", "mountain range in Europe"), ("T12", "capital"),
    ("T13", "state award of the Republic of Moldova"),
)

# kind -> (instance_of choices, occupation choices)
KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "person": (("T1",), ("T8", "T9")),
    "city": (("T2", "T12"), ()),
    "river": (("T3",), ()),
    "company": (("T4",), ()),
    "university": (("T5",), ()),
    "film": (("T6",), ()),
    "band": (("T7",), ()),
    "series": (("T10",), ()),
    "range": (("T11",), ()),
    "award": (("T13",), ()),
}
KIND_WEIGHTS = (("person", 30), ("city", 18), ("river", 8), ("company", 10),
                ("university", 6), ("film", 10), ("band", 8), ("series", 5),
                ("range", 4), ("award", 1))

SYL = ("ka", "lo", "mi", "ran", "tes", "vo", "bel", "dor", "sun", "gra", "pel",
       "nor", "ti", "ze", "mar", "qui", "hal", "ost", "wen", "fi")
FIRST = ("Anna", "Carl", "Dora", "Egon", "Fiona", "Georg", "Hilda", "Ivan", "Julia",
         "Karl", "Lena", "Milan", "Nora", "Otto", "Petra", "Rosa", "Stefan", "Tara")
SUFFIX = {"city": ("grad", "burg", "ville", "haven", "field", "mont"),
          "company": ("Works", "Labs", "Holdings", "Foods", "Motors"),
          "university": ("University", "Institute", "College"),
          "band": ("Echoes", "Lanterns", "Wolves", "Tides"),
          "range": ("Alps", "Heights", "Ridge")}

PAGE_TEMPLATES = (
    "{E} was founded near {A}.",
    "{E} is often compared to {A} and {B}.",
    "Critics linked {E} with {A} in {Y}.",
    "In {Y} {A} praised {E}.",
    "The archive lists {A} next to {B}.",
    "{A} and {B} met in {C} during {Y}.",
    "Records from {Y} mention {E} only briefly.",
    "Little else is recorded about this period.",
    "The weather that year was unusually cold.",
    "{E} later moved to {A}.",
)


def _word(rng: random.Random, n: int) -> str:
    return "".join(_draw(rng, SYL) for _ in range(n)).capitalize()


def _label(rng: random.Random, kind: str) -> str:
    if kind == "person":
        return f"{_draw(rng, FIRST)} {_word(rng, 2)}"
    if kind == "city":
        name = _word(rng, 1) + _draw(rng, SUFFIX["city"])
        # a few comma-qualified places, which the corpus builder must drop
        return f"{name}, {_word(rng, 2)}" if rng.random() < 0.05 else name
    if kind == "river":
        return f"{_word(rng, 2)} River"
    if kind in ("company", "band", "range"):
        return f"{_word(rng, 2)} {_draw(rng, SUFFIX[kind])}"
    if kind == "university":
        return f"{_draw(rng, SUFFIX['university'])} of {_word(rng, 2)}"
    if kind == "film":
        return f"The {_word(rng, 2)} {_word(rng, 1)}"
    if kind == "series":
        return f"{_word(rng, 2)} Chronicles"
    return f"Order of {_word(rng, 2)}"


def kb_pages_dump(seed: int, n_pages: int) -> tuple[list[dict], list[dict]]:
    """KB item records and page records. Page i describes KB item i, and every
    anchor targets an item of the KB."""
    rng = random.Random(seed)
    kinds = [k for k, w in KIND_WEIGHTS for _ in range(w)]
    kb = [{"id": tid, "label": label, "aliases": [], "instance_of": [],
           "subclass_of": [], "occupation": []} for tid, label in TYPE_ITEMS]
    labels: set[str] = set()
    entities: list[dict] = []
    while len(entities) < n_pages + n_pages // 2:
        kind = _draw(rng, kinds)
        label = _label(rng, kind)
        if label in labels:
            continue
        labels.add(label)
        inst, occ = KINDS[kind]
        item = {"id": f"Q{1000 + len(entities)}", "label": label, "aliases": [],
                "instance_of": [_draw(rng, inst)], "subclass_of": [],
                "occupation": [_draw(rng, occ)] if occ else []}
        entities.append(item)
    kb.extend(entities)

    pages: list[dict] = []
    for item in entities[:n_pages]:
        title = item["label"]
        parts: list[str] = []
        anchors: list[dict] = []
        offset = 0
        for _ in range(3 + rng.randrange(4)):
            template = _draw(rng, PAGE_TEMPLATES)
            pieces = template.replace("{", "\x00{").replace("}", "}\x00").split("\x00")
            for piece in pieces:
                if piece in ("{A}", "{B}", "{C}"):
                    target = _draw(rng, entities)
                    while target is item:
                        target = _draw(rng, entities)
                    surface = target["label"]
                    anchors.append({"surface": surface, "target": target["id"], "offset": offset})
                elif piece == "{E}":
                    surface = title
                elif piece == "{Y}":
                    surface = str(1800 + rng.randrange(220))
                else:
                    surface = piece
                parts.append(surface)
                offset += len(surface)
            parts.append(" ")
            offset += 1
        text = "".join(parts).rstrip()
        pages.append({"title": title, "text": text, "anchors": anchors})
    return kb, pages


def to_jsonl(records: list[dict]) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


def write_dump(workdir: Path, seed: int, n_pages: int) -> tuple[Path, Path]:
    """Writes kb.jsonl and pages.jsonl; returns their paths."""
    kb, pages = kb_pages_dump(seed, n_pages)
    workdir.mkdir(parents=True, exist_ok=True)
    kb_path = workdir / "kb.jsonl"
    kb_path.write_bytes(to_jsonl(kb))
    pages_path = workdir / "pages.jsonl"
    pages_path.write_bytes(to_jsonl(pages))
    return kb_path, pages_path
