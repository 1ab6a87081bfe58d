"""Word-level tokenizer with punctuation splitting, and its exact inverse.

Detokenization re-attaches punctuation-only tokens, so tokenize/detokenize
round-trips exactly on single-spaced text whose chunks are not bare
punctuation — which prompts, sentences, and serialized targets satisfy.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..codec import DESCRIPTORS

PAD, UNK, EOS = "[PAD]", "[UNK]", "[EOS]"
MD, EG = DESCRIPTORS["MD"], DESCRIPTORS["EG"]
SPECIAL_TOKENS = (PAD, UNK, EOS, MD, EG)
PAD_ID, UNK_ID, EOS_ID, MD_ID, EG_ID = range(5)

_OPENING = "([{"
_TRAILING = ".,;:!?)]}"


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for chunk in text.split():
        if chunk in SPECIAL_TOKENS:
            tokens.append(chunk)
            continue
        lead: list[str] = []
        while len(chunk) > 1 and chunk[0] in _OPENING:
            lead.append(chunk[0])
            chunk = chunk[1:]
        tail: list[str] = []
        while len(chunk) > 1 and chunk[-1] in _TRAILING:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tokens


def token_bounds(text: str) -> set[int]:
    """Character offsets of `text` where a token of `tokenize(text)` starts or
    ends: the chunk edges, and each split-off opening or trailing mark."""
    bounds: set[int] = set()
    end = 0
    for chunk in text.split():
        start = text.index(chunk, end)
        end = start + len(chunk)
        bounds.update((start, end))
        if chunk in SPECIAL_TOKENS:
            continue
        lo, hi = start, end
        while hi - lo > 1 and text[lo] in _OPENING:
            lo += 1
            bounds.add(lo)
        while hi - lo > 1 and text[hi - 1] in _TRAILING:
            hi -= 1
            bounds.add(hi)
    return bounds


def detokenize(tokens: Sequence[str]) -> str:
    out: list[str] = []
    prev: str | None = None
    for tok in tokens:
        if out and not (len(tok) == 1 and tok in _TRAILING) and not (
            prev is not None and len(prev) == 1 and prev in _OPENING
        ):
            out.append(" ")
        out.append(tok)
        prev = tok
    return "".join(out)


@dataclass(frozen=True)
class Vocab:
    id_to_token: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the special tokens")
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        object.__setattr__(
            self, "_token_to_id", {tok: i for i, tok in enumerate(self.id_to_token)}
        )

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        lookup = self._token_to_id
        return [lookup.get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def to_json(self) -> str:
        return json.dumps(list(self.id_to_token), ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "Vocab":
        return cls(id_to_token=tuple(json.loads(text)))


def build_vocab(texts: Iterable[str], min_count: int = 1) -> Vocab:
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(tokenize(text))
    kept = sorted(tok for tok, n in counts.items() if n >= min_count and tok not in SPECIAL_TOKENS)
    return Vocab(id_to_token=SPECIAL_TOKENS + tuple(kept))


def encode_input(prompt_text: str, input_text: str, vocab: Vocab, max_len: int = 256) -> list[int]:
    """Prompt tokens then input tokens, as one encoder id sequence."""
    ids = vocab.encode(tokenize(prompt_text)) + vocab.encode(tokenize(input_text))
    if len(ids) > max_len:
        raise ValueError(f"encoded input length {len(ids)} exceeds cap {max_len}")
    return ids


def encode_target(target_text: str, vocab: Vocab, max_len: int = 256) -> list[int]:
    """Target token ids with the closing [EOS]; an empty target is just [EOS]."""
    ids = vocab.encode(tokenize(target_text)) + [EOS_ID]
    if len(ids) > max_len:
        raise ValueError(f"encoded target length {len(ids)} exceeds cap {max_len}")
    return ids
