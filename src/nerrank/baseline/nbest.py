"""N-best candidate sets, their interchange format, and jackknifed corpora.

Interchange format, one block per sentence:

    #SENT <id>
    TOKENS<TAB>tok1<TAB>tok2...
    GOLD<TAB>tag1<TAB>tag2...          (optional)
    CAND<TAB><probability><TAB>tag1<TAB>tag2...
    <blank line>

Probabilities are written with 12 digits of mantissa; candidates are
re-sorted by descending probability on read, so files produced by other
taggers need not be pre-sorted.

Both types are frozen. `NBestCorpus` collapses each candidate once, when
first asked (`collapsed`), and that is the only place a candidate's labels
are normalized to BIO2 and its entity spans extracted. Its patterns, tag
accuracies and span matches against gold are all read from those
collapsed sequences; each set's gold is normalized once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import TYPE_CHECKING, NamedTuple

from ..collapse import CollapsedSequence, collapse, collapsed_to_labels, collapsed_token_strings
from ..corpus import (
    COMMENT_PREFIX,
    BioLabel,
    Dataset,
    EntitySpan,
    LabelSeq,
    Sentence,
    Token,
    extract_spans,
    normalize_to_bio2,
    read_text,
    tag_accuracy,
)
from ..errors import NerrankError, ParseError

if TYPE_CHECKING:
    from .crf import InternedFeatures

log = logging.getLogger(__name__)

PROB_SLACK = 1e-6  # rounding headroom on the sum-to-at-most-one invariant


class SpanMatch(NamedTuple):
    """A set's candidates' entity spans against gold's, both sides in BIO2:
    gold's span count and per candidate its matched and predicted spans."""

    gold_spans: int
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
            raise ValueError(f"sentence {self.sentence_id} has no candidates")
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
            raise ValueError(f"sentence {self.sentence_id}: candidate probabilities sum to {total:.6f}")
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
    def collapsed(self) -> tuple[tuple[CollapsedSequence, ...], ...]:
        """Each candidate's collapsed sequence, per set."""
        return tuple(tuple(collapse(s, seq) for seq, _ in cs.candidates) for s, cs in self)

    @cached_property
    def patterns(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Each candidate's collapsed pattern as a token tuple, per set."""
        return tuple(tuple(tuple(collapsed_token_strings(c)) for c in row) for row in self.collapsed)

    @cached_property
    def _gold(self) -> tuple[LabelSeq, ...]:
        """Each set's gold in BIO2."""
        missing = [cs.sentence_id for cs in self.sets if cs.gold is None]
        if missing:
            raise NerrankError(f"no gold labels to compare with; missing for sentence(s) {missing[:5]}")
        return tuple(normalize_to_bio2(cs.gold) for cs in self.sets)

    @cached_property
    def accuracy(self) -> tuple[tuple[float, ...], ...]:
        """Each candidate's tag accuracy against gold, both sides in BIO2,
        per set; the candidate's BIO2 labels are `collapsed_to_labels`."""
        return tuple(
            tuple(tag_accuracy(gold, collapsed_to_labels(c)) for c in row)
            for gold, row in zip(self._gold, self.collapsed)
        )

    @cached_property
    def span_match(self) -> tuple[SpanMatch, ...]:
        """Per set, its candidates' entity spans (the source spans of their
        type tokens) compared with gold's."""
        out = []
        for gold, row in zip(self._gold, self.collapsed):
            gspans = extract_spans(gold)
            spans = [
                {EntitySpan(*span, it.entity_type) for it, span in zip(c.items, c.spans) if it.is_type_token}
                for c in row
            ]
            hits = tuple(len(s & gspans) for s in spans)
            out.append(SpanMatch(len(gspans), hits, tuple(map(len, spans))))
        return tuple(out)


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
        try:
            cs = CandidateSet(cur_id, gold, sorted(cands, key=lambda c: -c[1]))
        except ValueError as exc:  # the set's rules: some candidate, probabilities sum <= 1
            raise ParseError(str(exc), line=cur_line) from exc
        sentences.append(Sentence(cur_id, tokens))
        sets.append(cs)
        cur_id, tokens, gold = None, None, None
        cands = []

    def parse_fields(make, fields, lineno):
        try:
            return [make(f) for f in fields]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not seen_content and line.startswith(COMMENT_PREFIX):
            continue
        if not line.strip():
            flush()
            continue
        seen_content = True
        if line.startswith("#SENT"):
            flush()
            parts = line.split()
            digits = parts[-1].removeprefix("-")
            if parts[0] != "#SENT" or len(parts) != 2 or not (digits.isascii() and digits.isdigit()):
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
    held-out output rather than memorized gold. The corpus is interned
    once (`intern_features`): each sentence is featurized once, and its
    ids serve every fold that trains on it and the one that decodes it,
    each fold mapping them to its own vocabulary with one index. The
    folds' `decode_corpus` sets line up end to end because `jackknife`'s
    blocks are contiguous."""
    from .crf import crf_train, intern_features

    features = intern_features(dataset.sentences, templates)
    at = {s.id: i for i, s in enumerate(dataset.sentences)}

    def rows(part: Dataset) -> InternedFeatures:
        return features._replace(ids=[features.ids[at[s.id]] for s in part.sentences])

    sets: list[CandidateSet] = []
    for fold, (train_part, held) in enumerate(jackknife(dataset, folds), 1):
        started = perf_counter()
        model = crf_train(train_part, templates, features=rows(train_part), **train_kwargs)
        sets.extend(decode_corpus(model, held, k, features=rows(held)).sets)
        log.info(
            "jackknife fold %d/%d: trained on %d sentences, decoded %d held-out, %.2f s",
            fold,
            folds,
            len(train_part),
            len(held),
            perf_counter() - started,
        )
    return NBestCorpus(list(dataset.sentences), sets)


def decode_corpus(model, dataset: Dataset, k: int, features: InternedFeatures | None = None) -> NBestCorpus:
    """Decode every sentence with one fixed model that never saw them (dev,
    test, or a jackknife fold's held-out block), as batches of sentences
    (`kbest_decode`). `features`, when given, is `intern_features` of the
    dataset's sentences, in order, or of a corpus that holds them (`ids`
    then lists these sentences' rows alone); omitted, it is
    `intern_features` of the dataset. Strings the model never saw are
    dropped."""
    from .crf import intern_features, kbest_decode

    if features is None:
        features = intern_features(dataset.sentences, model.templates)
    elif len(features.ids) != len(dataset):
        raise ValueError(f"{len(features.ids)} feature lists for {len(dataset)} sentences")
    ids = model.interned_ids(features)
    del features  # frees the dataset's ids when this call interned them
    rows = kbest_decode(model, ids, k)
    sets = [CandidateSet(s.id, gold, candidates) for (s, gold), candidates in zip(dataset, rows)]
    return NBestCorpus(list(dataset.sentences), sets)
