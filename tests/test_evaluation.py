"""Tests for span scoring, SSA, oracle curves, and report serialization."""

import numpy as np
import pytest

from nerrank.baseline.crf import ALL_TAGS
from nerrank.baseline.nbest import CandidateSet, NBestCorpus
from nerrank.corpus import BioLabel, Sentence, Token, normalize_to_bio2, tag_accuracy
from nerrank.errors import NerrankError
from nerrank.evaluation import (
    BucketRow,
    OracleRow,
    PrfCounts,
    PrfReport,
    chunk_prf,
    format_metrics,
    length_bucket_ssa,
    oracle,
    oracle_csv,
    ssa,
)

from test_corpus import conlleval_segments, random_valid_sequence


def labels(*tags):
    return [BioLabel.parse(t) for t in tags]


def sent(sid, n):
    return Sentence(sid, tuple(Token(f"w{j}") for j in range(n)))


# ---------------------------------------------------------------------------
# counts and ratios


def test_prf_ratios_and_f1_zero_rule():
    c = PrfCounts(tp=3, pred=4, gold=6)
    assert c.precision == 0.75
    assert c.recall == 0.5
    assert c.f1 == pytest.approx(2 * 0.75 * 0.5 / 1.25)
    empty = PrfCounts(0, 0, 0)
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)


def test_prf_counts_validation():
    with pytest.raises(NerrankError):
        PrfCounts(-1, 0, 0)
    with pytest.raises(NerrankError):
        PrfCounts(2, 1, 5)
    with pytest.raises(NerrankError):
        PrfCounts(2, 5, 1)


# ---------------------------------------------------------------------------
# chunk_prf


def test_perfect_prediction_scores_one():
    gold = [labels("B-PER", "I-PER", "O"), labels("O", "B-LOC", "O")]
    report = chunk_prf(gold, gold)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert report.overall.tp == 2


def test_wrong_type_and_missed_span_score_zero():
    gold = [labels("B-PER", "I-PER", "O", "O", "O", "B-LOC")]
    pred = [labels("B-LOC", "I-LOC", "O", "O", "O", "O")]
    report = chunk_prf(gold, pred)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
    assert report.overall.pred == 1
    assert report.overall.gold == 2


def test_boundary_error_is_both_fp_and_fn():
    gold = [labels("B-PER", "I-PER")]
    pred = [labels("B-PER", "O")]
    report = chunk_prf(gold, pred)
    assert report.overall.tp == 0
    assert report.overall.pred == 1  # the false positive
    assert report.overall.gold == 1  # the false negative
    assert report.f1 == 0.0


def test_per_type_counts_sum_to_overall():
    rng = np.random.default_rng(3)
    gold = [random_valid_sequence(rng) for _ in range(40)]
    pred = [random_valid_sequence(rng, max_len=len(g))[: len(g)] for g in gold]
    pred = [p + [BioLabel.parse("O")] * (len(g) - len(p)) for g, p in zip(gold, pred)]
    report = chunk_prf(gold, pred)
    assert sum(c.tp for c in report.by_type.values()) == report.overall.tp
    assert sum(c.pred for c in report.by_type.values()) == report.overall.pred
    assert sum(c.gold for c in report.by_type.values()) == report.overall.gold


def test_misalignment_is_rejected():
    with pytest.raises(NerrankError):
        chunk_prf([labels("O")], [])
    with pytest.raises(NerrankError):
        chunk_prf([labels("O", "O")], [labels("O")])
    with pytest.raises(NerrankError):
        ssa([labels("O")], [labels("O", "O")])


def test_chunk_prf_agrees_with_bruteforce_span_sets():
    rng = np.random.default_rng(11)
    tags = list(ALL_TAGS)
    for _ in range(1000):
        n_sent = int(rng.integers(1, 4))
        gold, pred = [], []
        for _ in range(n_sent):
            n = int(rng.integers(1, 7))
            gold.append([BioLabel.parse(tags[i]) for i in rng.integers(0, 9, n)])
            pred.append([BioLabel.parse(tags[i]) for i in rng.integers(0, 9, n)])
        report = chunk_prf(gold, pred)
        tp = n_pred = n_gold = 0
        for g, p in zip(gold, pred):
            gs = conlleval_segments(g)
            ps = conlleval_segments(p)
            tp += len(gs & ps)
            n_gold += len(gs)
            n_pred += len(ps)
        assert (report.overall.tp, report.overall.pred, report.overall.gold) == (
            tp, n_pred, n_gold,
        )


# ---------------------------------------------------------------------------
# SSA


def test_ssa_fractions():
    gold = [labels("B-PER", "O"), labels("O", "O"), labels("B-LOC"), labels("O")]
    perfect = ssa(gold, gold)
    assert perfect == 1.0
    one_off = [gold[0], labels("B-PER", "O"), gold[2], gold[3]]
    assert ssa(one_off, gold) == 0.75
    mostly_wrong = [gold[0], labels("B-PER", "O"), labels("O"), labels("B-LOC")]
    assert ssa(mostly_wrong, gold) == 0.25


def test_ssa_compares_normalized_sequences():
    gold = [labels("B-PER", "I-PER")]
    raw_selection = [[BioLabel("I", "PER"), BioLabel("I", "PER")]]
    assert normalize_to_bio2(raw_selection[0]) == gold[0]
    assert ssa(raw_selection, gold) == 1.0


def test_ssa_empty_corpus():
    assert ssa([], []) == 0.0


# ---------------------------------------------------------------------------
# oracle curves


def cset(sid, gold, cands, base=0.5):
    probs = [base * (0.5 ** i) for i in range(len(cands))]
    return CandidateSet(sid, gold, list(zip(cands, probs)))


def hand_oracle(nbest, n):
    """Brute-force reference: scan candidates, track best/worst by accuracy."""
    tp_b = pred_b = tp_w = pred_w = n_gold = exact = 0
    for cs in nbest.sets:
        gold = normalize_to_bio2(cs.gold)
        cands = [normalize_to_bio2(c) for c, _ in cs.candidates[:n]]
        accs = [tag_accuracy(gold, c) for c in cands]
        bi = accs.index(max(accs))
        wi = accs.index(min(accs))
        gs = conlleval_segments(gold)
        bs = conlleval_segments(cands[bi])
        ws = conlleval_segments(cands[wi])
        tp_b += len(bs & gs)
        pred_b += len(bs)
        tp_w += len(ws & gs)
        pred_w += len(ws)
        n_gold += len(gs)
        exact += accs[bi] == 1.0
    def f1(tp, pred):
        return 2 * tp / (pred + n_gold) if pred + n_gold else 0.0
    return exact / len(nbest.sets), f1(tp_b, pred_b), f1(tp_w, pred_w)


def three_sentence_corpus():
    g1 = labels("B-PER", "I-PER", "O")
    g2 = labels("O", "B-LOC", "O")
    g3 = labels("B-ORG", "O")
    sets = [
        cset(0, g1, [labels("B-PER", "O", "O"), g1, labels("O", "O", "O")]),
        cset(1, g2, [g2, labels("O", "B-PER", "O"), labels("B-LOC", "I-LOC", "O")]),
        cset(2, g3, [labels("O", "O"), labels("B-ORG", "I-ORG"), g3]),
    ]
    return NBestCorpus([sent(0, 3), sent(1, 3), sent(2, 2)], sets)


def test_oracle_matches_hand_computation():
    nb = three_sentence_corpus()
    rows = oracle(nb)
    assert [r.n for r in rows] == [1, 2, 3]
    for row in rows:
        assert (row.oba, row.obf, row.owf) == pytest.approx(hand_oracle(nb, row.n))


def test_oracle_depth_one_equals_baseline():
    nb = three_sentence_corpus()
    row = oracle(nb.truncated(1))[0]
    top1 = [cs.candidates[0][0] for cs in nb.sets]
    gold = [cs.gold for cs in nb.sets]
    assert row.oba == ssa(top1, gold)
    assert row.obf == pytest.approx(chunk_prf(gold, top1).f1)
    assert row.owf == row.obf


def test_oracle_perfect_when_gold_in_every_set():
    nb = three_sentence_corpus()
    last = oracle(nb)[-1]
    assert last.oba == 1.0
    assert last.obf == 1.0


def test_oracle_ties_choose_lower_index():
    gold = labels("B-PER", "O")
    # both candidates have accuracy 1/2; the first wins both best and worst
    a = labels("B-PER", "B-LOC")
    b = labels("O", "O")
    nb = NBestCorpus([sent(0, 2)], [cset(0, gold, [a, b])])
    row = oracle(nb)[-1]
    spans_a = chunk_prf([gold], [a])
    assert tag_accuracy(gold, a) == tag_accuracy(gold, b) == 0.5
    assert row.obf == pytest.approx(spans_a.f1)
    assert row.owf == pytest.approx(spans_a.f1)


def test_oracle_requires_gold():
    nb = NBestCorpus(
        [sent(0, 1)],
        [CandidateSet(0, None, [(labels("O"), 0.9)])],
    )
    with pytest.raises(NerrankError):
        oracle(nb)


def test_oracle_of_an_empty_corpus_has_no_rows():
    rows = oracle(NBestCorpus([], []))
    assert rows == []
    assert oracle_csv(rows) == "n,oba,obf,owf\n"


def test_oracle_handles_short_sets_and_truncation():
    g = labels("B-PER",)
    nb = NBestCorpus(
        [sent(0, 1), sent(1, 1)],
        [
            cset(0, g, [labels("O"), g]),
            cset(1, g, [g]),  # only one candidate
        ],
    )
    rows = oracle(nb.truncated(5))
    assert [r.n for r in rows] == [1, 2]
    assert rows[1].oba == 1.0
    assert rows[1].obf == 1.0


def test_sandwich_bounds_any_selection_policy():
    rng = np.random.default_rng(5)
    sents, sets = [], []
    for sid in range(30):
        n = int(rng.integers(1, 6))
        gold = random_valid_sequence(rng, max_len=n)[:n]
        gold += [BioLabel.parse("O")] * (n - len(gold))
        cands, seen = [], set()
        for _ in range(4):
            c = tuple(random_valid_sequence(rng, max_len=n)[:n])
            c = c + (BioLabel.parse("O"),) * (n - len(c))
            if c not in seen:
                seen.add(c)
                cands.append(list(c))
        sents.append(sent(sid, n))
        sets.append(cset(sid, gold, cands))
    nb = NBestCorpus(sents, sets)
    deepest = oracle(nb)[-1]
    gold_all = [cs.gold for cs in sets]
    for trial in range(20):
        picks = [
            cs.candidates[int(rng.integers(len(cs.candidates)))][0] for cs in sets
        ]
        f1 = chunk_prf(gold_all, picks).f1
        assert deepest.owf - 1e-12 <= f1 <= deepest.obf + 1e-12


# ---------------------------------------------------------------------------
# length buckets


def test_single_bucket_labeled_by_upper_bound():
    gold = [labels(*["O"] * 7) for _ in range(3)]
    rows = length_bucket_ssa(gold, gold, bucket_width=5)
    assert rows == [BucketRow(upper=10, total=3, correct=3)]
    assert rows[0].ssa == 1.0


def test_bucket_boundaries_are_half_open():
    gold = [labels(*["O"] * 5), labels(*["O"] * 6)]
    rows = length_bucket_ssa(gold, gold, bucket_width=5)
    assert [r.upper for r in rows] == [5, 10]


def test_bucket_ssa_values_and_absent_buckets():
    gold = [labels("O"), labels("O", "O"), labels(*["O"] * 12)]
    pred = [labels("B-PER"), gold[1], gold[2]]
    rows = length_bucket_ssa(pred, gold, bucket_width=5)
    assert [(r.upper, r.total, r.correct) for r in rows] == [(5, 2, 1), (15, 1, 1)]
    assert rows[0].ssa == 0.5


def test_empty_corpus_has_no_buckets():
    assert length_bucket_ssa([], [], bucket_width=5) == []


def test_bucket_width_must_be_positive():
    with pytest.raises(NerrankError):
        length_bucket_ssa([], [], bucket_width=0)


# ---------------------------------------------------------------------------
# serialization


def test_metrics_format_and_file():
    text = format_metrics({"f1": 0.5, "ssa": 0.25})
    assert text == "f1 = 0.5\nssa = 0.25\n"


def test_csv_emitters_have_one_row_per_item():
    olines = oracle_csv([OracleRow(1, 0.5, 0.5, 0.25)]).strip().split("\n")
    assert olines == ["n,oba,obf,owf", "1,0.5,0.5,0.25"]
