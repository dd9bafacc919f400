"""Pretrained word vectors read from a text file.

The file format is one token per line followed by its values, all space
separated; a first line of exactly two integers is treated as a
``<count> <dim>`` header and skipped.  The scorer copies each vector into
its token's embedding row (see `reranker.model.PatternScorer`).
"""

from __future__ import annotations

import numpy as np

from ..corpus import read_text
from ..errors import ParseError


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
    line number) on a malformed or non-finite value or a row whose width
    disagrees with ``dim``.
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
            vector = np.array([float(v) for v in values])
        except ValueError as exc:
            raise ParseError(f"bad embedding value: {exc}", line=lineno) from None
        if not np.isfinite(vector).all():
            raise ParseError(f"token {token!r} has a non-finite value", line=lineno)
        vectors[token] = vector
    return vectors


def read_embeddings(path, dim: int) -> dict[str, np.ndarray]:
    return parse_embeddings(read_text(path), dim)
