#!/usr/bin/env python3
"""Regenerate the bundled fixture dumps (KB items, wiki pages, manual
descriptions). Deterministic: same output bytes on every run.

The golden corpus files are frozen outputs of a verified build; pass
--write-golden to refresh them after an intentional builder change.
Run from the repository root with `PYTHONPATH=src`.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from sdnet.corpus import BuildConfig, build_corpus
from sdnet.data import write_annotated_jsonl, write_jsonl

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIRST = ["Anna", "Carl", "Dora", "Egon", "Fiona", "Georg", "Hilda", "Ivan",
         "Julia", "Karl", "Lena", "Milan", "Nora", "Otto", "Petra", "Quinn",
         "Rosa", "Stefan", "Tara", "Ulrich"]
LAST = ["Berg", "Novak", "Sorel", "Takacs", "Urban", "Vance", "Weiss",
        "Xavier", "Young", "Zettel", "Abel", "Brandt", "Cserna", "Dvorak",
        "Eriksen", "Falk", "Grun", "Horvat", "Ilic", "Jansen"]
CITY_A = ["Vel", "Dor", "Mar", "Bel", "Tor", "San", "Kar", "Lin", "Nov", "Ost"]
CITY_B = ["grad", "mont", "burg", "ville", "stadt", "nice", "pol", "haven",
          "field", "minster"]

TYPE_ITEMS = [
    ("T1", "human"),
    ("T2", "city"),
    ("T3", "country"),
    ("T4", "writer"),
    ("T5", "novelist"),
    ("T6", "book series"),
    ("T7", "river"),
    ("T8", "company"),
    ("T9", "university"),
    ("T10", "asteroid family"),
    ("T11", "state award of the Republic of Moldova"),
    ("T12", "association football player"),
    ("T13", "musical ensemble"),
    ("T14", "film"),
    ("T15", "politician"),
    ("T16", "mountain range in Europe"),
    ("T17", "capital"),
]

WNUT_DESCRIPTIONS = [
    ("person", ["writer", "entrepreneur", "association football player",
                "actor", "businessperson", "baseball player", "politician"]),
    ("corporation", ["digital media", "website", "organization", "trademark",
                     "entrepreneur", "airline", "social media"]),
    ("location", ["port", "park", "city", "country", "road", "province",
                  "state", "mountain"]),
    ("creative-work", ["television program", "audiovisual work", "album",
                       "release", "film"]),
    ("group", ["group", "band", "basketball team", "football club",
               "sports team"]),
    ("product", ["medication", "chemical compound", "electronic game",
                 "video game", "smartphone model", "chemical substance"]),
]


def build_kb() -> list[dict]:
    items: list[dict] = []
    for tid, label in TYPE_ITEMS:
        items.append({"id": tid, "label": label, "aliases": [],
                      "instance_of": [], "subclass_of": [], "occupation": []})
    serial = 1000

    def add(label: str, aliases: list[str], instance_of: list[str],
            occupation: list[str] | None = None, subclass_of: list[str] | None = None) -> str:
        nonlocal serial
        item_id = f"Q{serial}"
        serial += 1
        items.append({
            "id": item_id, "label": label, "aliases": aliases,
            "instance_of": instance_of, "subclass_of": subclass_of or [],
            "occupation": occupation or [],
        })
        return item_id

    named: dict[str, str] = {}

    # notable entities referenced by the fixture pages
    named["J.K. Rowling"] = add("J.K. Rowling", ["Joanne Rowling", "Robert Galbraith"],
                                ["T1"], ["T4", "T5"])
    named["Harry Potter"] = add("Harry Potter", ["HP series"], ["T6"])
    named["Edinburgh"] = add("Edinburgh", ["Auld Reekie"], ["T2", "T17"])
    named["London"] = add("London", [], ["T2", "T17"])
    named["United Kingdom"] = add("United Kingdom", ["UK", "Britain"], ["T3"])
    named["Bloomsbury"] = add("Bloomsbury", ["Bloomsbury Publishing"], ["T8"])
    named["Thames"] = add("Thames", ["River Thames"], ["T7"])
    named["Washington, D.C."] = add("Washington, D.C.", ["DC"], ["T2", "T17"])
    named["Cormoran Strike"] = add("Cormoran Strike", [], ["T6"])

    # writers: 30 humans with writer/novelist occupations
    for i in range(30):
        name = f"{FIRST[i % 20]} {LAST[(i * 7 + 3) % 20]}"
        occ = ["T4"] if i % 3 else ["T4", "T5"]
        named[name] = add(name, [], ["T1"], occ)
    # footballers: 8
    for i in range(8):
        name = f"{FIRST[(i * 3 + 1) % 20]} {LAST[(i * 11 + 5) % 20]}"
        named.setdefault(name, add(name, [], ["T1"], ["T12"]))
    # politicians: 7
    for i in range(7):
        name = f"{FIRST[(i * 5 + 2) % 20]} {LAST[(i * 13 + 7) % 20]}"
        named.setdefault(name, add(name, [], ["T1"], ["T15"]))
    # cities: 40, a few capitals
    for i in range(40):
        name = CITY_A[i % 10] + CITY_B[(i * 3 + i // 10) % 10]
        if name in named:
            name = name + " Nord"
        kinds = ["T2", "T17"] if i % 8 == 0 else ["T2"]
        named[name] = add(name, [], kinds)
    # countries: 8
    for i in range(8):
        name = "Republic of " + CITY_A[(i * 2 + 1) % 10] + CITY_B[(i * 7 + 2) % 10]
        named[name] = add(name, [], ["T3"])
    # book series: 6
    for i in range(6):
        name = f"The {LAST[(i * 4 + 1) % 20]} Chronicles"
        named[name] = add(name, [], ["T6"])
    # rivers: 7
    for i in range(7):
        name = CITY_A[(i * 3 + 2) % 10] + "a River"
        named.setdefault(name, add(name, [], ["T7"]))
    # companies: 8
    for i in range(8):
        name = LAST[(i * 6 + 4) % 20] + " Press"
        named.setdefault(name, add(name, [], ["T8"]))
    # universities: 6
    for i in range(6):
        name = "University of " + CITY_A[(i * 4) % 10] + CITY_B[(i * 5 + 3) % 10]
        named.setdefault(name, add(name, [], ["T9"]))
    # asteroid families: exactly 4 -> the type must be dropped
    for i in range(4):
        add(f"{LAST[i]} family", [], ["T10"])
    # Moldovan state awards: 6 -> survives as "state award"
    for name in ["Order of the Republic", "Order of Honour", "Medal of Civic Merit",
                 "Order of Work Glory", "Medal of Military Merit", "Order of Bogdan"]:
        named[name] = add(name, [], ["T11"])
    # ensembles: 6
    for i in range(6):
        name = f"The {CITY_A[(i * 2 + 3) % 10]}tones"
        named[name] = add(name, [], ["T13"])
    # films: 7
    for i in range(7):
        name = f"{LAST[(i * 9 + 2) % 20]} at Midnight"
        named.setdefault(name, add(name, [], ["T14"]))
    # mountain ranges: 5
    for i in range(5):
        name = CITY_A[(i * 3 + 4) % 10] + " Hills"
        named.setdefault(name, add(name, [], ["T16"]))
    # bulk extras to give the dump realistic volume (and the big types depth)
    for i in range(240):
        name = f"{FIRST[(i * 11 + 6) % 20]} {LAST[(i * 17 + 9) % 20]} {['Sr.', 'Jr.', 'II', 'III'][i % 4]}"
        kind = [["T4"], ["T15"], ["T12"], []][i % 4]
        add(name, [f"{name.split()[0]} {name.split()[1]}"], ["T1"], kind)
    return items


def _anchored(text: str, *surfaces_targets: tuple[str, str]) -> dict:
    anchors = []
    cursor: dict[str, int] = {}
    for surface, target in surfaces_targets:
        offset = text.find(surface, cursor.get(surface, 0))
        if offset < 0:
            raise AssertionError(f"{surface!r} not in page text")
        cursor[surface] = offset + len(surface)
        anchors.append({"surface": surface, "target": target, "offset": offset})
    return {"text": text, "anchors": anchors}


def build_pages(kb: list[dict]) -> list[dict]:
    by_label = {item["label"]: item["id"] for item in kb}
    pages: list[dict] = []

    def page(title: str, text: str, *surfaces_targets: tuple[str, str]) -> None:
        record = _anchored(text, *surfaces_targets)
        pages.append({"title": title, "text": record["text"], "anchors": record["anchors"]})

    rowling_text = (
        "J.K. Rowling is a British writer. "
        "She wrote Harry Potter while living in Edinburgh. "
        "The weather that year was unusually cold. "
        "Many readers still admire J.K. Rowling and Harry Potter."
    )
    page("J.K. Rowling", rowling_text,
         ("Harry Potter", by_label["Harry Potter"]),
         ("Edinburgh", by_label["Edinburgh"]),
         ("Harry Potter", by_label["Harry Potter"]))

    page("Harry Potter", "Harry Potter was published by Bloomsbury in London. "
                         "Harry Potter later became a film series.",
         ("Bloomsbury", by_label["Bloomsbury"]),
         ("London", by_label["London"]))

    page("Edinburgh", "Edinburgh is the capital of a country in the United Kingdom. "
                      "Nothing notable happened there for a while. "
                      "Edinburgh hosts a large festival.",
         ("United Kingdom", by_label["United Kingdom"]),)

    page("London", "London sits on the Thames. "
                   "Dr. Samuel Johnson loved London.",
         ("Thames", by_label["Thames"]),
         ("London", by_label["London"]))

    page("Washington, D.C.", "Washington, D.C. is a capital. "
                             "Politicians from Washington, D.C. travel often.",
         ("Washington, D.C.", by_label["Washington, D.C."]),)

    page("Thames", "The Thames flows past London toward the sea. "
                   "An unknown barge sailed the Thames in 1890.",
         ("London", by_label["London"]),
         ("Thames", by_label["Thames"]),
         ("Thames", by_label["Thames"]))

    page("Bloomsbury", "Bloomsbury published Harry Potter. "
                       "Bloomsbury also publishes the mysterious Zorblat Saga.",
         ("Harry Potter", by_label["Harry Potter"]),
         ("Zorblat Saga", "Q9999999"))

    page("Order of the Republic", "The Order of the Republic honours merit. "
                                  "It is awarded alongside the Order of Honour.",
         ("Order of Honour", by_label["Order of Honour"]),)

    # a run of writer pages anchored to cities and series
    used_titles = {p["title"] for p in pages}
    writer_rows = [item for item in kb
                   if item["instance_of"] == ["T1"] and item["occupation"][:1] == ["T4"]
                   and item["label"] not in used_titles][:8]
    city_rows = [item for item in kb if item["instance_of"] in (["T2"], ["T2", "T17"])
                 and item["label"] not in ("Edinburgh", "London", "Washington, D.C.")][:8]
    series_rows = [item for item in kb if item["instance_of"] == ["T6"]
                   and item["label"] not in ("Harry Potter", "Cormoran Strike")][:6]
    for i, writer in enumerate(writer_rows):
        city = city_rows[i % len(city_rows)]
        series = series_rows[i % len(series_rows)]
        text = (f"{writer['label']} was born near {city['label']}. "
                f"Critics praise {series['label']} as a landmark. "
                f"{writer['label']} still lives in {city['label']}.")
        page(writer["label"], text,
             (city["label"], city["id"]),
             (series["label"], series["id"]),
             (writer["label"], writer["id"]),
             (city["label"], city["id"]))

    # city pages anchored to rivers and countries
    river_rows = [item for item in kb if item["instance_of"] == ["T7"]
                  and item["label"] != "Thames"][:6]
    country_rows = [item for item in kb if item["instance_of"] == ["T3"]
                    and item["label"] != "United Kingdom"][:6]
    for i, city in enumerate(city_rows[:6]):
        river = river_rows[i % len(river_rows)]
        country = country_rows[i % len(country_rows)]
        text = (f"{city['label']} lies on the {river['label']} in the {country['label']}. "
                f"Every spring the {river['label']} floods parts of {city['label']}.")
        page(city["label"], text,
             (river["label"], river["id"]),
             (country["label"], country["id"]),
             (river["label"], river["id"]))
    return pages


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-golden", action="store_true",
                        help="refresh the frozen corpus outputs from the current builder")
    args = parser.parse_args()

    FIXTURES.mkdir(exist_ok=True)
    kb = build_kb()
    pages = build_pages(kb)
    write_jsonl(FIXTURES / "kb_items.jsonl", kb)
    write_jsonl(FIXTURES / "pages.jsonl", pages)
    rowling = next(p for p in pages if p["title"] == "J.K. Rowling")
    (FIXTURES / "rowling.json").write_text(
        json.dumps(rowling, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")

    wnut = [{"type": t, "concepts": c, "filtered": False} for t, c in WNUT_DESCRIPTIONS]
    write_jsonl(FIXTURES / "wnut_descriptions.jsonl", wnut)
    (FIXTURES / "schema_wnut.json").write_text(
        json.dumps([t for t, _ in WNUT_DESCRIPTIONS]) + "\n", encoding="utf-8")

    kb_size = (FIXTURES / "kb_items.jsonl").stat().st_size
    print(f"kb_items.jsonl: {len(kb)} items, {kb_size} bytes")
    print(f"pages.jsonl: {len(pages)} pages")
    assert kb_size >= 50 * 1024, "KB fixture must be at least 50 KB"
    assert len(pages) >= 20, "need at least 20 pages"

    if args.write_golden:
        build = build_corpus(FIXTURES / "kb_items.jsonl", FIXTURES / "pages.jsonl",
                             BuildConfig())
        write_annotated_jsonl(FIXTURES / "golden_corpus.jsonl", build.sentences)
        (FIXTURES / "golden_dict.json").write_text(
            build.dictionary.to_json() + "\n", encoding="utf-8")
        print(f"golden_corpus.jsonl: {len(build.sentences)} sentences")
        print(f"tally: {dict(build.tally)}")


if __name__ == "__main__":
    main()
