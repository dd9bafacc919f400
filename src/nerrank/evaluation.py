"""Measurement: span precision/recall/F1, sentence-selection accuracy,
oracle curves over n-best lists, and sentence-length breakdowns.

`oracle` gives one `OracleRow` per depth n, up to the corpus's longest
candidate set; `NBestCorpus.truncated(k)` is the one way to choose a
smaller depth.

A predicted span counts as a true positive only when an identical
(start, end, type) span exists in gold — conlleval-style exact matching.
Label sequences are normalized before span extraction, so raw decoder
output with stray I- tags is scored the same way conlleval would score it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .baseline.nbest import NBestCorpus
from .corpus import ENTITY_TYPES, LabelSeq, extract_spans, normalize_to_bio2
from .errors import NerrankError


@dataclass(frozen=True)
class PrfCounts:
    """True-positive / predicted / gold span counts and their ratios."""

    tp: int
    pred: int
    gold: int

    def __post_init__(self):
        if min(self.tp, self.pred, self.gold) < 0:
            raise NerrankError("span counts cannot be negative")
        if self.tp > min(self.pred, self.gold):
            raise NerrankError(
                f"tp={self.tp} exceeds pred={self.pred} or gold={self.gold}"
            )

    @property
    def precision(self) -> float:
        return self.tp / self.pred if self.pred else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class PrfReport:
    """Overall counts plus a per-entity-type breakdown."""

    overall: PrfCounts
    by_type: dict[str, PrfCounts]

    @property
    def precision(self) -> float:
        return self.overall.precision

    @property
    def recall(self) -> float:
        return self.overall.recall

    @property
    def f1(self) -> float:
        return self.overall.f1


@dataclass(frozen=True)
class OracleRow:
    n: int
    oba: float
    obf: float
    owf: float


@dataclass(frozen=True)
class BucketRow:
    """Sentences of length in (upper - width, upper]."""

    upper: int
    total: int
    correct: int

    @property
    def ssa(self) -> float:
        return self.correct / self.total if self.total else 0.0


def _check_aligned(gold: list[LabelSeq], pred: list[LabelSeq]):
    if len(gold) != len(pred):
        raise NerrankError(
            f"corpus misalignment: {len(gold)} gold vs {len(pred)} predicted sentences"
        )
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise NerrankError(
                f"sentence {i}: gold has {len(g)} tokens, prediction has {len(p)}"
            )


def chunk_prf(gold: list[LabelSeq], pred: list[LabelSeq]) -> PrfReport:
    """Exact span-match precision/recall/F1 over aligned corpora, overall
    and per entity type."""
    _check_aligned(gold, pred)
    tp, n_pred, n_gold = Counter(), Counter(), Counter()
    for g, p in zip(gold, pred):
        gspans = extract_spans(normalize_to_bio2(g))
        pspans = extract_spans(normalize_to_bio2(p))
        tp.update(s.entity_type for s in gspans & pspans)
        n_gold.update(s.entity_type for s in gspans)
        n_pred.update(s.entity_type for s in pspans)
    by_type = {t: PrfCounts(tp[t], n_pred[t], n_gold[t]) for t in ENTITY_TYPES}
    overall = PrfCounts(
        sum(tp.values()), sum(n_pred.values()), sum(n_gold.values())
    )
    return PrfReport(overall=overall, by_type=by_type)


def ssa(selections: list[LabelSeq], gold: list[LabelSeq]) -> float:
    """Fraction of sentences whose whole selected sequence equals gold
    (after normalization); 0.0 for an empty corpus."""
    _check_aligned(gold, selections)
    if not gold:
        return 0.0
    correct = sum(
        normalize_to_bio2(s) == normalize_to_bio2(g)
        for s, g in zip(selections, gold)
    )
    return correct / len(gold)


def oracle(nbest: NBestCorpus) -> list[OracleRow]:
    """Oracle curves, one row per depth n up to the longest candidate set:
    for each n, pick per sentence the candidate among the top n with the
    highest (OBA/OBF) or lowest (OWF) tag accuracy against gold, ties going
    to the lower index, and measure the selections. An empty corpus gives
    no rows; truncate the corpus to stop at a smaller depth.

    Decoder-generated n-best corpora give non-decreasing OBA/OBF and
    non-increasing OWF; arbitrary hand-built candidate sets need not.
    """
    per_sentence = list(zip(nbest.accuracy, nbest.span_match))
    total_gold = sum(match.gold_spans for _, match in per_sentence)

    depth = max((len(accuracy) for accuracy, _ in per_sentence), default=0)
    best = [0] * len(per_sentence)  # per-sentence argmax index so far
    worst = [0] * len(per_sentence)
    rows = []
    for n in range(1, depth + 1):
        tp_b = pred_b = tp_w = pred_w = exact = 0
        for s, (accuracy, (_, hits, sizes)) in enumerate(per_sentence):
            if n - 1 < len(accuracy):
                if accuracy[n - 1] > accuracy[best[s]]:
                    best[s] = n - 1
                if accuracy[n - 1] < accuracy[worst[s]]:
                    worst[s] = n - 1
            tp_b += hits[best[s]]
            pred_b += sizes[best[s]]
            exact += accuracy[best[s]] == 1.0
            tp_w += hits[worst[s]]
            pred_w += sizes[worst[s]]
        rows.append(
            OracleRow(
                n=n,
                oba=exact / len(per_sentence),
                obf=PrfCounts(tp_b, pred_b, total_gold).f1,
                owf=PrfCounts(tp_w, pred_w, total_gold).f1,
            )
        )
    return rows


def length_bucket_ssa(
    selections: list[LabelSeq],
    gold: list[LabelSeq],
    bucket_width: int,
) -> list[BucketRow]:
    """Sentence-selection accuracy per length bucket (low, high], labeled
    by the upper bound; buckets with no sentences are omitted."""
    if bucket_width < 1:
        raise NerrankError(f"bucket width must be positive, got {bucket_width}")
    _check_aligned(gold, selections)
    totals: dict[int, int] = {}
    correct: dict[int, int] = {}
    for s, g in zip(selections, gold):
        upper = -(-len(g) // bucket_width) * bucket_width
        totals[upper] = totals.get(upper, 0) + 1
        if normalize_to_bio2(s) == normalize_to_bio2(g):
            correct[upper] = correct.get(upper, 0) + 1
    return [
        BucketRow(upper=u, total=totals[u], correct=correct.get(u, 0))
        for u in sorted(totals)
    ]


# ---------------------------------------------------------------------------
# report serialization


def format_metrics(values: dict) -> str:
    """Flat ``key = value`` lines, keys in the given order."""
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def oracle_csv(rows: list[OracleRow]) -> str:
    lines = ["n,oba,obf,owf"]
    for r in rows:
        lines.append(f"{r.n},{r.oba!r},{r.obf!r},{r.owf!r}")
    return "\n".join(lines) + "\n"
