"""Neural reranker: vocabulary, embeddings, and the pattern scorer."""

from .vocab import (
    CHAR_PAD,
    CHAR_PAD_ID,
    CHAR_UNK,
    CHAR_UNK_ID,
    RESERVED_CHARS,
    RESERVED_WORDS,
    Vocab,
    WORD_PAD,
    WORD_UNK,
    WORD_UNK_ID,
    build_vocab,
)
from .embeddings import init_embeddings, parse_embeddings, read_embeddings
from .model import PatternScorer

__all__ = [
    "CHAR_PAD",
    "CHAR_PAD_ID",
    "CHAR_UNK",
    "CHAR_UNK_ID",
    "PatternScorer",
    "RESERVED_CHARS",
    "RESERVED_WORDS",
    "Vocab",
    "WORD_PAD",
    "WORD_UNK",
    "WORD_UNK_ID",
    "build_vocab",
    "init_embeddings",
    "parse_embeddings",
    "read_embeddings",
]
