"""Collapsed sentence patterns: entity mentions become type tokens.

"Barack Obama was born in hawaii ." labeled [B-PER, I-PER, O, O, O, B-LOC,
O] collapses to "PER was born in LOC ." — each maximal entity segment is
replaced by a single token naming its type, and O words pass through
unchanged. The resulting patterns are drastically less sparse than raw
candidate sequences, which is what makes them learnable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .corpus import (
    ENTITY_TYPES,
    O_LABEL,
    BioLabel,
    LabelSeq,
    Sentence,
    extract_spans,
    normalize_to_bio2,
)

logger = logging.getLogger(__name__)

TYPE_TOKENS = ENTITY_TYPES  # reserved pattern vocabulary: PER, LOC, ORG, MISC


@dataclass(frozen=True)
class CollapsedItem:
    """Either a passthrough word or an entity-type token."""

    surface: str | None = None
    entity_type: str | None = None

    def __post_init__(self):
        if (self.surface is None) == (self.entity_type is None):
            raise ValueError("exactly one of surface/entity_type must be set")
        if self.entity_type is not None and self.entity_type not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type {self.entity_type!r}")

    @property
    def is_type_token(self) -> bool:
        return self.entity_type is not None

    def token_string(self) -> str:
        return self.entity_type if self.is_type_token else self.surface


@dataclass(frozen=True)
class CollapsedSequence:
    """Pattern items plus their source token spans.

    `spans[i]` is the inclusive token range item i covers. Keeping the
    alignment makes the transform lossless: a type token over [1,2] and
    one over [2,2] both print as "PER" but remain distinct candidates
    ("PER PER" alone cannot tell B,B,I from B,I,B).
    """

    items: tuple[CollapsedItem, ...]
    spans: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty collapsed sequence")
        if len(self.items) != len(self.spans):
            raise ValueError("items and source spans are misaligned")
        at = 0
        for item, (start, end) in zip(self.items, self.spans):
            if start != at or end < start:
                raise ValueError("source spans must tile the sentence in order")
            if not item.is_type_token and end != start:
                raise ValueError("a passthrough word covers exactly one token")
            at = end + 1

    def __len__(self):
        return len(self.items)


def collapse(sentence: Sentence, labels: LabelSeq) -> CollapsedSequence:
    """Build the collapsed pattern for one candidate label sequence.

    Labels are first repaired to valid BIO2 (k-best decoders can emit
    invalid transitions), so any aligned sequence is accepted.
    """
    if len(labels) != len(sentence):
        raise ValueError(f"{len(labels)} labels for {len(sentence)} tokens")
    normalized = normalize_to_bio2(labels)
    span_start = {s.start: s for s in extract_spans(normalized)}
    items = []
    spans = []
    i = 0
    while i < len(normalized):
        span = span_start.get(i)
        if span is not None:
            items.append(CollapsedItem(entity_type=span.entity_type))
            spans.append((span.start, span.end))
            i = span.end + 1
        else:
            surface = sentence.tokens[i].surface
            if surface in TYPE_TOKENS:
                logger.warning(
                    "sentence %d: literal word %r collides with a type token",
                    sentence.id,
                    surface,
                )
            items.append(CollapsedItem(surface=surface))
            spans.append((i, i))
            i += 1
    return CollapsedSequence(tuple(items), tuple(spans))


def collapsed_token_strings(seq: CollapsedSequence) -> list[str]:
    """Pattern tokens as plain strings (type tokens are PER/LOC/ORG/MISC)."""
    return [item.token_string() for item in seq.items]


def collapsed_to_labels(seq: CollapsedSequence) -> LabelSeq:
    """Exact inverse of collapse on valid input."""
    out = []
    for item, (start, end) in zip(seq.items, seq.spans):
        if item.is_type_token:
            out.append(BioLabel("B", item.entity_type))
            out.extend(BioLabel("I", item.entity_type) for _ in range(end - start))
        else:
            out.append(O_LABEL)
    return out

