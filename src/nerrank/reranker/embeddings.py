"""Word embedding initialization, optionally seeded from a text file.

The file format is one token per line followed by its values, all space
separated; a first line of exactly two integers is treated as a
``<count> <dim>`` header and skipped.  Every vocabulary entry not found in
the file — reserved tokens included — is drawn uniformly from
(-sqrt(3/dim), +sqrt(3/dim)) with the run's generator, so results are
reproducible for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from ..corpus import read_text
from ..errors import ParseError
from .vocab import Vocab


def _is_header(fields: list[str]) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def parse_embeddings(text: str, dim: int) -> dict[str, np.ndarray]:
    """Parse embedding text into a token → vector map.

    A repeated token keeps its last occurrence.  Raises ParseError (with the
    line number) on a malformed value or a row whose width disagrees with
    ``dim``.
    """
    vectors: dict[str, np.ndarray] = {}
    lines = text.splitlines()
    start = 0
    if lines and _is_header(lines[0].split()):
        header_dim = int(lines[0].split()[1])
        if header_dim != dim:
            raise ParseError(
                f"embedding file declares dimension {header_dim}, expected {dim}",
                line=1,
            )
        start = 1
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        if not raw.strip():
            continue
        fields = raw.split()
        token, values = fields[0], fields[1:]
        if len(values) != dim:
            raise ParseError(
                f"token {token!r} has {len(values)} values, expected {dim}",
                line=lineno,
            )
        try:
            vectors[token] = np.array([float(v) for v in values])
        except ValueError as exc:
            raise ParseError(f"bad embedding value: {exc}", line=lineno) from None
    return vectors


def read_embeddings(path, dim: int) -> dict[str, np.ndarray]:
    return parse_embeddings(read_text(path), dim)


def init_embeddings(
    vocab: Vocab,
    dim: int,
    rng: np.random.Generator,
    pretrained: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Build the (num_words, dim) table: random within the bound, then copy
    the pretrained vector of every token the file actually contains."""
    bound = np.sqrt(3.0 / dim)
    table = rng.uniform(-bound, bound, size=(vocab.num_words, dim))
    if pretrained:
        for token, tid in vocab.word_to_id.items():
            vec = pretrained.get(token)
            if vec is not None:
                table[tid] = vec
    return table
