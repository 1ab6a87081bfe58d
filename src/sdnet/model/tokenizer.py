"""Word-level tokenizer with punctuation splitting, and its exact inverse.

Detokenization re-attaches punctuation-only tokens, so tokenize/detokenize
round-trips exactly on single-spaced text whose chunks are not bare
punctuation — which prompts, sentences, and serialized targets satisfy.
"""

from __future__ import annotations

import json
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
    """The chunk rule: each whitespace chunk's core token is what is left once
    opening marks are peeled off its front, then trailing marks off its back,
    each while more than one character is left. Each peeled mark is a token of
    its own; a special token, or a chunk with no mark at either end, is one
    token as it is."""
    tokens: list[str] = []
    for chunk in text.split():
        if (chunk[0] in _OPENING or chunk[-1] in _TRAILING) and chunk not in SPECIAL_TOKENS:
            lo, hi = 0, len(chunk)
            while hi - lo > 1 and chunk[lo] in _OPENING:
                lo += 1
            while hi - lo > 1 and chunk[hi - 1] in _TRAILING:
                hi -= 1
            tokens.extend(chunk[:lo])
            tokens.append(chunk[lo:hi])
            tokens.extend(chunk[hi:])
        else:
            tokens.append(chunk)
    return tokens


def token_bounds(text: str) -> set[int]:
    """Character offsets of `text` where a token of `tokenize(text)` starts or
    ends. Tokens hold no whitespace and only whitespace lies between chunks,
    so each token is the first match of its text after the previous token's
    end."""
    bounds: set[int] = set()
    end = 0
    for tok in tokenize(text):
        start = text.index(tok, end)
        end = start + len(tok)
        bounds.update((start, end))
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
        if not all(isinstance(tok, str) for tok in self.id_to_token):
            raise ValueError("vocabulary tokens must be strings")
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


def build_vocab(texts: Iterable[str]) -> Vocab:
    """Every token seen, sorted, after the special tokens. Tokens never cross
    whitespace, so each distinct chunk is tokenized once."""
    chunks = {chunk for text in texts for chunk in text.split()}
    tokens = {tok for chunk in chunks for tok in tokenize(chunk)}
    return Vocab(id_to_token=SPECIAL_TOKENS + tuple(sorted(tokens.difference(SPECIAL_TOKENS))))


def encode_input(prompt_text: str, input_text: str, vocab: Vocab, max_len: int) -> list[int]:
    """Prompt tokens then input tokens, as one encoder id sequence."""
    ids = vocab.encode(tokenize(prompt_text)) + vocab.encode(tokenize(input_text))
    if len(ids) > max_len:
        raise ValueError(f"encoded input length {len(ids)} exceeds cap {max_len}")
    return ids


def encode_target(target_text: str, vocab: Vocab, max_len: int) -> list[int]:
    """Target token ids with the closing [EOS]; an empty target is just [EOS]."""
    ids = vocab.encode(tokenize(target_text)) + [EOS_ID]
    if len(ids) > max_len:
        raise ValueError(f"encoded target length {len(ids)} exceeds cap {max_len}")
    return ids
