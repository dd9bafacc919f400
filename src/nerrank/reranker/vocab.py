"""Word and character vocabularies for the pattern scorer.

A vocabulary is its word list and its character list, each in id order
(an entry's id is its position). Both lists start with fixed reserved
entries so that ids are stable across runs: words reserve <unk>=0,
<pad>=1 and the four entity type tokens PER=2, LOC=3, ORG=4, MISC=5;
characters reserve <unk_char>=0, <pad_char>=1. Any lookup succeeds —
unseen strings fall back to the unknown id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..collapse import TYPE_TOKENS
from ..errors import ConfigError

WORD_UNK = "<unk>"
WORD_PAD = "<pad>"
CHAR_UNK = "<unk_char>"
CHAR_PAD = "<pad_char>"

RESERVED_WORDS = (WORD_UNK, WORD_PAD) + TYPE_TOKENS
RESERVED_CHARS = (CHAR_UNK, CHAR_PAD)

WORD_UNK_ID = 0
CHAR_UNK_ID = 0
CHAR_PAD_ID = 1


@dataclass(frozen=True)
class Vocab:
    """Immutable id-ordered word and char lists with the reserved prefix."""

    words: tuple[str, ...]
    chars: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.words)) != len(self.words) or len(set(self.chars)) != len(self.chars):
            raise ConfigError("vocabulary lists contain duplicates")
        for items, reserved, what in (
            (self.words, RESERVED_WORDS, "word"),
            (self.chars, RESERVED_CHARS, "char"),
        ):
            for i, token in enumerate(reserved):
                if i >= len(items) or items[i] != token:
                    raise ConfigError(
                        f"{what} vocabulary must map {token!r} to id {i}"
                    )

    @cached_property
    def word_to_id(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    @cached_property
    def char_to_id(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.chars)}

    def word_id(self, token: str) -> int:
        return self.word_to_id.get(token, WORD_UNK_ID)

    def char_id(self, ch: str) -> int:
        return self.char_to_id.get(ch, CHAR_UNK_ID)


def build_vocab(pattern_token_lists) -> Vocab:
    """Collect a vocabulary from an iterable of token-string sequences.

    Tokens are the items of collapsed patterns, so the entity type tokens
    usually occur in the input as well; they are already reserved and are not
    added twice.  Non-reserved entries are sorted so the same data always
    yields the same ids.
    """
    words: set[str] = set()
    chars: set[str] = set()
    for tokens in pattern_token_lists:
        for token in tokens:
            words.add(token)
            chars.update(token)
    return Vocab(
        RESERVED_WORDS + tuple(sorted(words - set(RESERVED_WORDS))),
        RESERVED_CHARS + tuple(sorted(chars - set(RESERVED_CHARS))),
    )
