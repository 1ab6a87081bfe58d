"""Seeded synthetic corpus: short templated sentences over eight entity types,
small enough to memorize in minutes yet exercising the full pipeline."""

from __future__ import annotations

import numpy as np

from .data import AnnotatedSentence, Sentence, TypedMention

SCHEMA_TYPES = ("person", "city", "animal", "color", "fruit", "metal", "river", "game")

_POOLS: dict[str, tuple[str, ...]] = {
    "person": ("Alice", "Bob", "Carol", "David", "Emma", "Frank", "Grace",
               "Henry", "Irene", "Jack", "Karen", "Leo"),
    "city": ("Paris", "London", "Berlin", "Madrid", "Rome", "Vienna", "Oslo",
             "Dublin", "Prague", "Lisbon", "Athens", "Cairo"),
    "animal": ("fox", "owl", "bear", "wolf", "deer", "hawk", "otter", "lynx",
               "crane", "mole", "toad", "hare"),
    "color": ("amber", "violet", "teal", "ivory", "indigo", "coral", "olive",
              "slate", "beige", "maroon", "cyan", "magenta"),
    "fruit": ("apple", "pear", "plum", "mango", "grape", "melon", "cherry",
              "lemon", "peach", "kiwi", "fig", "banana"),
    "metal": ("iron", "copper", "zinc", "gold", "silver", "nickel", "tin",
              "cobalt", "brass", "steel", "bronze", "titanium"),
    "river": ("Danube", "Nile", "Amazon", "Rhine", "Volga", "Seine", "Thames",
              "Ganges", "Mekong", "Congo", "Loire", "Tiber"),
    "game": ("chess", "poker", "tennis", "soccer", "hockey", "golf", "rugby",
             "cricket", "darts", "billiards", "squash", "badminton"),
}

_TEMPLATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("{0} visited {1} with {2}.", ("person", "city", "person")),
    ("{0} saw a {1} near the {2}.", ("person", "animal", "river")),
    ("The {0} {1} pleased {2}.", ("color", "fruit", "person")),
    ("{0} played {1} in {2}.", ("person", "game", "city")),
    ("A {0} swam along the {1} at dusk.", ("animal", "river")),
    ("{0} bought {1} rings in {2}.", ("person", "metal", "city")),
    ("The {0} stand in {1} also sold {2} pans.", ("fruit", "city", "metal")),
    ("{0} painted the {1} gate {2}.", ("person", "city", "color")),
)


def generate_synthetic_corpus(
    n_sentences: int = 200, seed: int = 0
) -> tuple[list[AnnotatedSentence], tuple[str, ...]]:
    rng = np.random.default_rng(seed)
    corpus: list[AnnotatedSentence] = []
    for i in range(n_sentences):
        template, slot_types = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
        used: dict[str, list[str]] = {}
        fillers: list[str] = []
        for t in slot_types:
            pool = [s for s in _POOLS[t] if s not in used.get(t, ())]
            surface = pool[int(rng.integers(len(pool)))]
            used.setdefault(t, []).append(surface)
            fillers.append(surface)
        text = template.format(*fillers)
        for surface in fillers:
            if text.count(surface) != 1:
                raise AssertionError(f"surface {surface!r} not unique in {text!r}")
        mentions = tuple(TypedMention(surface=surf, types=(t,)) for surf, t in zip(fillers, slot_types))
        corpus.append(
            AnnotatedSentence(Sentence(id=f"syn-{i:04d}", text=text), mentions)
        )
    return corpus, SCHEMA_TYPES
