"""N-best candidate sets, their interchange format, and jackknifed corpora.

Interchange format, one block per sentence:

    #SENT <id>
    TOKENS<TAB>tok1<TAB>tok2...
    GOLD<TAB>tag1<TAB>tag2...          (optional)
    CAND<TAB><probability><TAB>tag1<TAB>tag2...
    <blank line>

Probabilities are written with 12 digits of mantissa; candidates are
re-sorted by descending probability on read, so files produced by other
taggers need not be pre-sorted. Both corpus types are frozen and derive
their candidates' comparison with gold and collapsed patterns once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ..collapse import collapse, collapsed_token_strings
from ..corpus import (
    COMMENT_PREFIX,
    BioLabel,
    Dataset,
    LabelSeq,
    Sentence,
    Token,
    extract_spans,
    normalize_to_bio2,
    read_text,
    tag_accuracy,
)
from ..errors import NerrankError, ParseError

PROB_SLACK = 1e-6  # rounding headroom on the sum-to-at-most-one invariant


class GoldMatch(NamedTuple):
    """A set's candidates against gold, both sides in BIO2: gold's span count
    and per candidate its tag accuracy, matched spans and predicted spans."""

    gold_spans: int
    accuracy: tuple[float, ...]
    hits: tuple[int, ...]
    sizes: tuple[int, ...]


@dataclass(frozen=True)
class CandidateSet:
    """Ranked candidate label sequences for one sentence."""

    sentence_id: int
    gold: LabelSeq | None
    candidates: list[tuple[LabelSeq, float]]  # descending probability

    def __post_init__(self):
        if not self.candidates:
            raise ValueError(f"sentence {self.sentence_id}: no candidates")
        length = len(self.candidates[0][0])
        prev = float("inf")
        total = 0.0
        for labels, prob in self.candidates:
            if len(labels) != length:
                raise ValueError(f"sentence {self.sentence_id}: ragged candidate lengths")
            if not 0.0 < prob <= 1.0:
                raise ValueError(f"sentence {self.sentence_id}: probability {prob} outside (0, 1]")
            if prob > prev:
                raise ValueError(f"sentence {self.sentence_id}: candidates not sorted by probability")
            prev = prob
            total += prob
        if total > 1.0 + PROB_SLACK:
            raise ValueError(f"sentence {self.sentence_id}: candidate probabilities sum to {total}")
        if self.gold is not None and len(self.gold) != length:
            raise ValueError(f"sentence {self.sentence_id}: gold length != candidate length")

    def __len__(self):
        return len(self.candidates)

    def truncated(self, k: int) -> "CandidateSet":
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k >= len(self.candidates):
            return self
        return CandidateSet(self.sentence_id, self.gold, self.candidates[:k])

    @cached_property
    def versus_gold(self) -> GoldMatch:
        """The candidates compared with gold."""
        if self.gold is None:
            raise NerrankError(f"sentence {self.sentence_id}: no gold labels to compare with")
        gold = normalize_to_bio2(self.gold)
        gspans = extract_spans(gold)
        accuracy, hits, sizes = [], [], []
        for labels, _ in self.candidates:
            labels = normalize_to_bio2(labels)
            spans = extract_spans(labels)
            accuracy.append(tag_accuracy(gold, labels))
            hits.append(len(spans & gspans))
            sizes.append(len(spans))
        return GoldMatch(len(gspans), tuple(accuracy), tuple(hits), tuple(sizes))


@dataclass(frozen=True)
class NBestCorpus:
    """Candidate sets aligned one-to-one with their sentences."""

    sentences: list[Sentence]
    sets: list[CandidateSet]

    def __post_init__(self):
        if len(self.sentences) != len(self.sets):
            raise ValueError(f"{len(self.sentences)} sentences vs {len(self.sets)} candidate sets")
        for sent, cs in zip(self.sentences, self.sets):
            if cs.sentence_id != sent.id:
                raise ValueError(f"candidate set id {cs.sentence_id} does not match sentence {sent.id}")
            if len(cs.candidates[0][0]) != len(sent):
                raise ValueError(f"sentence {sent.id}: candidate length != token count")

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(zip(self.sentences, self.sets))

    def truncated(self, k: int) -> "NBestCorpus":
        return NBestCorpus(self.sentences, [cs.truncated(k) for cs in self.sets])

    @cached_property
    def patterns(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Each candidate's collapsed pattern as a token tuple, per set."""
        return tuple(
            tuple(tuple(collapsed_token_strings(collapse(s, seq))) for seq, _ in cs.candidates)
            for s, cs in self
        )


def format_nbest(corpus: NBestCorpus) -> str:
    lines = []
    for sent, cs in corpus:
        lines.append(f"#SENT {sent.id}")
        lines.append("TOKENS\t" + "\t".join(sent.surfaces))
        if cs.gold is not None:
            lines.append("GOLD\t" + "\t".join(str(l) for l in cs.gold))
        for labels, prob in cs.candidates:
            lines.append(f"CAND\t{prob:.12e}\t" + "\t".join(str(l) for l in labels))
        lines.append("")
    return "\n".join(lines) + "\n" if lines else ""


def parse_nbest(text: str) -> NBestCorpus:
    sentences: list[Sentence] = []
    sets: list[CandidateSet] = []
    seen_ids = set()

    cur_id = None
    cur_line = 0
    tokens = None
    gold = None
    cands: list[tuple[LabelSeq, float]] = []
    seen_content = False

    def flush():
        nonlocal cur_id, tokens, gold, cands
        if cur_id is None:
            return
        if tokens is None:
            raise ParseError(f"sentence {cur_id} has no TOKENS line", line=cur_line)
        if not cands:
            raise ParseError(f"sentence {cur_id} has no candidates", line=cur_line)
        total = sum(p for _, p in cands)
        if total > 1.0 + PROB_SLACK:
            raise ParseError(
                f"sentence {cur_id}: candidate probabilities sum to {total:.6f}", line=cur_line
            )
        ordered = sorted(cands, key=lambda c: -c[1])
        sentences.append(Sentence(cur_id, tokens))
        sets.append(CandidateSet(cur_id, gold, ordered))
        cur_id, tokens, gold = None, None, None
        cands = []

    def parse_fields(make, fields, lineno):
        try:
            return [make(f) for f in fields]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not seen_content and line.startswith(COMMENT_PREFIX):
            continue
        if not line.strip():
            flush()
            continue
        seen_content = True
        if line.startswith("#SENT"):
            flush()
            parts = line.split()
            if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                raise ParseError(f"malformed sentence header {line!r}", line=lineno)
            cur_id = int(parts[1])
            cur_line = lineno
            if cur_id in seen_ids:
                raise ParseError(f"duplicate sentence id {cur_id}", line=lineno)
            seen_ids.add(cur_id)
            continue
        if cur_id is None:
            raise ParseError(f"content before any #SENT header: {line!r}", line=lineno)
        fields = line.split("\t")
        kind = fields[0]
        if kind == "TOKENS":
            if tokens is not None:
                raise ParseError(f"sentence {cur_id} has a second TOKENS line", line=lineno)
            if len(fields) < 2:
                raise ParseError("TOKENS line with no tokens", line=lineno)
            tokens = tuple(parse_fields(Token, fields[1:], lineno))
        elif kind == "GOLD":
            if tokens is None:
                raise ParseError("GOLD before TOKENS", line=lineno)
            if gold is not None:
                raise ParseError(f"sentence {cur_id} has a second GOLD line", line=lineno)
            if len(fields) - 1 != len(tokens):
                raise ParseError(
                    f"GOLD has {len(fields) - 1} tags for {len(tokens)} tokens", line=lineno
                )
            gold = normalize_to_bio2(parse_fields(BioLabel.parse, fields[1:], lineno))
        elif kind == "CAND":
            if tokens is None:
                raise ParseError("CAND before TOKENS", line=lineno)
            if len(fields) < 3:
                raise ParseError("CAND line needs a probability and tags", line=lineno)
            try:
                prob = float(fields[1])
            except ValueError:
                raise ParseError(f"bad probability {fields[1]!r}", line=lineno) from None
            if not 0.0 < prob <= 1.0 + 1e-9:
                raise ParseError(f"probability {prob} outside (0, 1]", line=lineno)
            if len(fields) - 2 != len(tokens):
                raise ParseError(
                    f"candidate has {len(fields) - 2} tags for {len(tokens)} tokens", line=lineno
                )
            cands.append((parse_fields(BioLabel.parse, fields[2:], lineno), min(prob, 1.0)))
        else:
            raise ParseError(f"unrecognized line kind {kind!r}", line=lineno)
    flush()
    return NBestCorpus(sentences, sets)


def write_nbest(path, corpus: NBestCorpus, header: str | None = None):
    with open(path, "w", encoding="utf-8") as f:
        if header:
            f.write(header if header.endswith("\n") else header + "\n")
        f.write(format_nbest(corpus))


def read_nbest(path) -> NBestCorpus:
    return parse_nbest(read_text(path))


def _subset(dataset: Dataset, indices) -> Dataset:
    return Dataset(
        [dataset.sentences[i] for i in indices],
        [dataset.gold[i] for i in indices],
    )


def jackknife(train: Dataset, folds: int) -> list[tuple[Dataset, Dataset]]:
    """Contiguous fold splits in id order: fold i holds out block i and
    trains on the rest. Block sizes differ by at most one (the remainder
    goes to the earliest blocks)."""
    n = len(train)
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise ValueError(f"cannot split {n} sentences into {folds} folds")
    sizes = [n // folds + (1 if i < n % folds else 0) for i in range(folds)]
    pairs = []
    at = 0
    for size in sizes:
        held = range(at, at + size)
        rest = list(range(0, at)) + list(range(at + size, n))
        pairs.append((_subset(train, rest), _subset(train, held)))
        at += size
    return pairs


def build_nbest_corpus(dataset: Dataset, folds: int, k: int, templates, **train_kwargs) -> NBestCorpus:
    """Jackknifed n-best generation: every sentence is decoded by the one
    fold model that never saw it, so training-set candidates look like
    held-out output rather than memorized gold."""
    from .crf import crf_train, kbest_decode

    position = {s.id: i for i, s in enumerate(dataset.sentences)}
    sets: list[CandidateSet | None] = [None] * len(dataset)
    for train_part, held in jackknife(dataset, folds):
        model = crf_train(train_part, templates, **train_kwargs)
        for sent, gold in held:
            sets[position[sent.id]] = kbest_decode(model, sent, k, gold=gold)
    return NBestCorpus(list(dataset.sentences), sets)


def decode_corpus(model, dataset: Dataset, k: int) -> NBestCorpus:
    """Decode every sentence with one fixed model (for dev/test, which the
    full-training-set model never saw)."""
    from .crf import kbest_decode

    sets = [kbest_decode(model, sent, k, gold=gold) for sent, gold in dataset]
    return NBestCorpus(list(dataset.sentences), sets)
