"""Release gate: ten end-to-end checks covering gradient exactness, CRF
probability calculus, pattern collapsing, oracle structure, mixture
decoding, desk-scale improvement, the training objective, the evaluator,
determinism, and (when a real corpus is supplied) non-degradation.

Run with -v for one pass/fail line per check. Tolerances are stated inline.
"""

import itertools
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from nerrank.baseline.crf import CrfModel, crf_train
from nerrank.baseline.features import FeatureTemplateSet, featurize
from nerrank.baseline.nbest import build_nbest_corpus, decode_corpus
from nerrank.cli import EXIT_OK, main
from nerrank.collapse import collapse, collapsed_to_labels, collapsed_token_strings
from nerrank.config import RunConfig, ScorerConfig, TrainConfig
from nerrank.corpus import (
    BioLabel,
    Dataset,
    Sentence,
    Token,
    extract_spans,
    format_conll,
    normalize_to_bio2,
    parse_conll,
)
from nerrank.evaluation import PrfCounts, chunk_prf, oracle
from nerrank.numerics import AdamState, Tensor
from nerrank.pipeline import (
    RerankExample,
    alpha_search,
    batch_loss,
    make_examples,
    rerank,
    score_sets,
    train_reranker,
)
from nerrank.reranker import PatternScorer, build_vocab

from gradcheck import grad_check
from test_baseline import decode_one, score_tag_ids, sequence_prob
from test_corpus import conlleval_segments
from toycorpus import make_corpus

# crf_train's settings at their config defaults; tests override what they pin
CRF = RunConfig().crf_options()

# current-word-only features: deliberately too weak to resolve entities
# whose type depends on sentence context
WORD_ONLY = FeatureTemplateSet(
    word_grams=True, word_bigrams=False, shape=True, capital=False,
    capital_word=False, connect=False, capital_connect=False,
    cluster_grams=False, prefix_suffix=False, pos_grams=False,
    pos_word=False, offsets=(0,),
)


def labels(*tags):
    return [BioLabel.parse(t) for t in tags]


def sent(sid, *words):
    return Sentence(sid, tuple(Token(w) for w in words))


def top_one(nbest):
    return [normalize_to_bio2(cs.candidates[0][0]) for cs in nbest.sets]


# ---------------------------------------------------------------------------
# 1. gradients of the full scoring network


def test_full_reranker_gradient_matches_finite_differences():
    """Char-CNN + LSTM + word-CNN + head, dropout off: analytic gradients of
    the batch objective agree with central differences to 1e-4 in < 60 s."""
    start = time.monotonic()
    batch_sentences = [
        (sent(0, "Johan", "visited", "Ulvik", "today"),
         ("B-PER", "O", "B-LOC", "O")),
        (sent(1, "the", "Grandprix", "began"), ("O", "B-MISC", "O")),
        (sent(2, "Acmetron", "hired", "Petrina"), ("B-ORG", "O", "B-PER")),
    ]
    examples = [
        RerankExample(collapsed=collapse(s, labels(*tags)), target=0.5 + 0.1 * i)
        for i, (s, tags) in enumerate(batch_sentences)
    ]
    vocab = build_vocab([ex.tokens for ex in examples])
    config = ScorerConfig(
        word_dim=4, char_dim=3, lstm_hidden=4, char_cnn_filters=3, word_cnn_filters=4,
        char_cnn_window=3, word_cnn_window=3, dropout=0.0,
    )
    scorer = PatternScorer(vocab, config, char_pad=6, seed=1)

    def loss():
        return batch_loss(scorer, examples, 0.001)

    report = grad_check(loss, scorer.trainable(), h=1e-5)
    elapsed = time.monotonic() - start
    assert report.max_rel_err < 1e-4, str(report)
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. CRF probability calculus and exact k-best


def test_crf_probability_mass_and_kbest_exactness():
    """3-tag, length-4 model: all 81 sequence probabilities sum to 1 within
    1e-10, and the 10-best list equals brute-force enumeration in both
    membership and order, in < 5 s."""
    start = time.monotonic()
    tags = ("B-PER", "I-PER", "O")
    sentence = sent(0, "alpha", "beta", "gamma", "delta")
    feats = featurize(sentence, WORD_ONLY)
    vocab = tuple(sorted({f for pos in feats for f in pos}))
    rng = np.random.default_rng(7)
    model = CrfModel(
        tags=tags,
        feature_vocab=vocab,
        templates=WORD_ONLY,
        emit=rng.normal(size=(len(vocab), 3)),
        trans=rng.normal(size=(3, 3)),
        begin=rng.normal(size=3),
        end=rng.normal(size=3),
    )
    seqs = list(itertools.product(range(3), repeat=4))
    assert len(seqs) == 81
    total = sum(
        sequence_prob(model, sentence, [BioLabel.parse(tags[y]) for y in ids])
        for ids in seqs
    )
    assert abs(total - 1.0) < 1e-10

    emissions = model.emission_scores(sentence)
    brute = sorted(
        ((score_tag_ids(model, emissions, list(ids)), ids) for ids in seqs),
        key=lambda item: (-item[0], item[1]),
    )[:10]
    expected = [[tags[y] for y in ids] for _, ids in brute]
    got = [
        [str(l) for l in cand]
        for cand, _ in decode_one(model, sentence, 10).candidates
    ]
    assert got == expected
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"k-best check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. pattern collapsing


def test_collapse_examples_and_injectivity():
    """A reference sentence collapses to exactly the expected patterns,
    and collapsing is injective over every valid BIO2 labeling of short
    sentences with two entity types (exhaustive)."""
    s = sent(0, "Barack", "Obama", "was", "born", "in", "hawaii", ".")
    person = collapse(s, labels("B-PER", "I-PER", "O", "O", "O", "B-LOC", "O"))
    assert " ".join(collapsed_token_strings(person)) == "PER was born in LOC ."
    place = collapse(s, labels("B-LOC", "I-LOC", "O", "O", "O", "O", "O"))
    assert " ".join(collapsed_token_strings(place)) == "LOC was born in hawaii ."

    alphabet = [BioLabel.parse("O")]
    for t in ("PER", "LOC"):
        alphabet += [BioLabel("B", t), BioLabel("I", t)]
    checked = 0
    for length in range(1, 5):
        base = sent(9000 + length, *(f"w{j}" for j in range(length)))
        seen = {}
        for raw in itertools.product(alphabet, repeat=length):
            seq = list(raw)
            try:
                extract_spans(seq)
            except ValueError:
                continue  # not valid BIO2
            collapsed = collapse(base, seq)
            assert collapsed_to_labels(collapsed) == seq
            key = (
                tuple(item.token_string() for item in collapsed.items),
                collapsed.spans,
            )
            assert key not in seen, f"collision between {seen[key]} and {seq}"
            seen[key] = seq
            checked += 1
    assert checked > 100  # exhaustive enumeration actually ran


# ---------------------------------------------------------------------------
# 4. oracle curve structure


def test_oracle_curves_monotone_with_exact_endpoints():
    """On decoder-generated n-best corpora the best curves never fall and
    the worst curve never rises for n = 1..10, and the n=1 points equal the
    baseline F1 exactly."""
    for seed in (0, 1):
        dataset = make_corpus(120, seed=seed, split="train")
        model = crf_train(dataset, WORD_ONLY, **dict(CRF, epochs=3, seed=seed))
        nbest = decode_corpus(model, dataset, 10)
        rows = oracle(nbest.truncated(10))
        assert [r.n for r in rows] == list(range(1, 11))
        for prev, cur in zip(rows, rows[1:]):
            assert cur.oba >= prev.oba, f"OBA fell at n={cur.n} (seed {seed})"
            assert cur.obf >= prev.obf, f"OBF fell at n={cur.n} (seed {seed})"
            assert cur.owf <= prev.owf, f"OWF rose at n={cur.n} (seed {seed})"
        base_f1 = chunk_prf(dataset.gold, top_one(nbest)).f1
        assert rows[0].obf == base_f1
        assert rows[0].owf == base_f1


# ---------------------------------------------------------------------------
# 5. mixture limits and the search grid


def test_alpha_zero_identity_and_search_grid():
    """With the interpolation weight at 0, decoding renders byte-identically
    to baseline 1-best extraction on a 500-sentence corpus; the weight
    search evaluates exactly 201 grid points and lands on the grid."""
    train_ds = make_corpus(160, seed=0, split="train")
    model = crf_train(train_ds, WORD_ONLY, **dict(CRF, epochs=3, seed=0))
    big = decode_corpus(model, make_corpus(500, seed=0, split="dev"), 10)
    assert len(big) == 500

    config = TrainConfig(
        scorer=ScorerConfig(
            word_dim=6, char_dim=4, lstm_hidden=5, char_cnn_filters=3,
            word_cnn_filters=4, dropout=0.0,
        ),
        epochs=0, seed=0,
    )
    bundle = train_reranker(make_examples(big), big, config)
    at_zero = replace(bundle, alpha=0.0)
    reranked = format_conll(
        Dataset(list(big.sentences), rerank(at_zero, big))
    ).encode("utf-8")
    extracted = format_conll(
        Dataset(list(big.sentences), top_one(big))
    ).encode("utf-8")
    assert reranked == extracted

    result = alpha_search(big, score_sets(bundle.scorer, big))
    assert result.points == 201
    assert abs(result.alpha * 200 - round(result.alpha * 200)) < 1e-9
    assert 0.0 <= result.alpha <= 1.0


# ---------------------------------------------------------------------------
# 6. desk-scale end-to-end improvement


def test_end_to_end_improvement_and_ablation_order():
    """2000-sentence template corpus, current-word-only baseline: the full
    reranker gains >= 2.0 F1 over the baseline, the LSTM-only ablation
    gains less than the full model, all in < 15 minutes."""
    start = time.monotonic()
    train_ds = make_corpus(2000, seed=0, split="train")
    dev_ds = make_corpus(400, seed=0, split="dev")
    test_ds = make_corpus(400, seed=0, split="test")

    model = crf_train(train_ds, WORD_ONLY, **dict(CRF, epochs=6, seed=0))
    dev_nb = decode_corpus(model, dev_ds, 10)
    test_nb = decode_corpus(model, test_ds, 10)
    train_nb = build_nbest_corpus(train_ds, 2, 10, WORD_ONLY, **dict(CRF, epochs=6, seed=0))

    base_f1 = chunk_prf(test_ds.gold, top_one(test_nb)).f1
    examples = make_examples(train_nb)

    def gain(**flags):
        config = TrainConfig(
            scorer=ScorerConfig(
                word_dim=16, char_dim=8, lstm_hidden=16, char_cnn_filters=8,
                word_cnn_filters=16, dropout=0.1, **flags,
            ),
            batch_size=64, learning_rate=0.005, l2=1e-4, epochs=3, seed=0,
        )
        bundle = train_reranker(examples, dev_nb, config)
        f1 = chunk_prf(test_ds.gold, rerank(bundle, test_nb)).f1
        return 100.0 * (f1 - base_f1)

    full_gain = gain()
    lstm_gain = gain(use_char_cnn=False, use_word_cnn=False)
    elapsed = time.monotonic() - start

    assert full_gain >= 2.0, f"full reranker gained only {full_gain:.2f} F1"
    assert lstm_gain < full_gain, (
        f"LSTM-only gained {lstm_gain:.2f}, full gained {full_gain:.2f}"
    )
    assert elapsed < 900.0, f"end-to-end run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 7. training objective and optimizer step


def test_objective_formula_and_adam_step_size():
    """The batch loss equals mean squared error plus (l2/2)*||params||^2 to
    1e-12, and one Adam step under a constant gradient moves a parameter by
    |delta| in [0.000999, 0.001]."""
    targets = (0.2, 0.7, 1.0)
    examples = []
    for i, y in enumerate(targets):
        seq = collapse(
            sent(i, "Kestrel", "prandels", "the", "Romest", "."),
            labels("B-PER", "O", "O", "B-LOC", "O"),
        )
        examples.append(RerankExample(collapsed=seq, target=y))
    config = ScorerConfig(
        word_dim=5, char_dim=3, lstm_hidden=4, char_cnn_filters=3, word_cnn_filters=4,
        dropout=0.0,
    )
    scorer = PatternScorer(build_vocab([examples[0].tokens]), config, char_pad=8, seed=4)
    lam = 0.003
    got = batch_loss(scorer, examples, lam).item()

    mse = 0.0
    for ex in examples:
        s = scorer.score_batch([ex.tokens]).item()
        mse = mse + (s - ex.target) ** 2
    reg = 0.0
    for _, p in scorer.trainable():
        reg = reg + float(np.sum(p.data * p.data))
    expected = mse * (1.0 / len(examples)) + reg * (lam / 2.0)
    assert abs(got - expected) < 1e-12

    param = Tensor(np.array([[0.25]]))
    opt = AdamState([param], lr=0.001, beta1=0.1, beta2=0.999, eps=1e-8)
    param.grad = np.array([[2.0]])
    before = float(param.data[0, 0])
    opt.step()
    delta = abs(float(param.data[0, 0]) - before)
    assert 0.000999 <= delta <= 0.001, f"|delta| = {delta:.9f}"


# ---------------------------------------------------------------------------
# 8. evaluator vs brute force


def test_chunk_scores_match_brute_force_span_sets():
    """chunk precision/recall/F1 agree with a direct span-set comparison on
    1000 randomized corpora, and a pure boundary error scores F1 = 0."""
    rng = np.random.default_rng(123)
    type_pool = ("PER", "LOC", "ORG", "MISC")

    def random_labels(n):
        out = []
        prev_type = None
        for _ in range(n):
            roll = rng.random()
            if roll < 0.5:
                out.append(BioLabel.parse("O"))
                prev_type = None
            elif roll < 0.8 or prev_type is None:
                t = type_pool[int(rng.integers(4))]
                out.append(BioLabel("B", t))
                prev_type = t
            else:
                out.append(BioLabel("I", prev_type))
        return normalize_to_bio2(out)

    for _ in range(1000):
        golds, preds = [], []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 9))
            golds.append(random_labels(n))
            preds.append(random_labels(n))
        report = chunk_prf(golds, preds)
        tp = pred = gold = 0
        for g, p in zip(golds, preds):
            gs = conlleval_segments(g)
            ps = conlleval_segments(p)
            tp += len(gs & ps)
            pred += len(ps)
            gold += len(gs)
        ref = PrfCounts(tp, pred, gold)
        assert report.overall == ref
        assert report.precision == ref.precision
        assert report.recall == ref.recall
        assert report.f1 == ref.f1

    boundary = chunk_prf([labels("B-PER", "I-PER")], [labels("B-PER", "O")])
    assert boundary.by_type["PER"].f1 == 0.0


# ---------------------------------------------------------------------------
# 9. whole-pipeline determinism


def test_pipeline_reruns_are_byte_identical(tmp_path):
    """Running the full toolchain twice with one seed produces byte-identical
    prediction files and the identical selected interpolation weight."""
    root = tmp_path
    for split, n in (("train", 24), ("dev", 12), ("test", 12)):
        (root / f"{split}.conll").write_text(
            format_conll(make_corpus(n, seed=3, split=split)), encoding="utf-8"
        )

    def run_all():
        steps = [
            ["baseline-train", "--train-path", str(root / "train.conll"),
             "--model-path", str(root / "crf.npz"), "--crf-epochs", "3",
             "--seed", "0"],
            ["baseline-decode", "--model-path", str(root / "crf.npz"),
             "--input-path", str(root / "dev.conll"),
             "--output-path", str(root / "dev.nbest"), "--n-best", "10"],
            ["baseline-decode", "--model-path", str(root / "crf.npz"),
             "--input-path", str(root / "test.conll"),
             "--output-path", str(root / "test.nbest"), "--n-best", "10"],
            ["jackknife", "--train-path", str(root / "train.conll"),
             "--output-path", str(root / "jk.nbest"), "--folds", "2",
             "--n-best", "10", "--crf-epochs", "3", "--seed", "0"],
            ["rerank-train", "--train-nbest-path", str(root / "jk.nbest"),
             "--dev-nbest-path", str(root / "dev.nbest"),
             "--bundle-path", str(root / "bundle"),
             "--word-dim", "8", "--char-dim", "6", "--lstm-hidden", "8",
             "--char-cnn-filters", "4", "--word-cnn-filters", "6",
             "--batch-size", "32", "--learning-rate", "0.01",
             "--dropout", "0.1", "--epochs", "1", "--seed", "0"],
            ["rerank-decode", "--bundle-path", str(root / "bundle"),
             "--nbest-path", str(root / "test.nbest"),
             "--output-path", str(root / "pred.conll")],
        ]
        for argv in steps:
            assert main(argv) == EXIT_OK, argv[0]
        meta = json.loads((root / "bundle" / "meta.json").read_text("utf-8"))
        return (root / "pred.conll").read_bytes(), meta["alpha"]

    first_bytes, first_alpha = run_all()
    second_bytes, second_alpha = run_all()
    assert first_bytes == second_bytes
    assert first_alpha == second_alpha


# ---------------------------------------------------------------------------
# 10. real-corpus non-degradation (runs only when data is supplied)


def test_real_corpus_nondegradation(tmp_path):
    """With a user-supplied CoNLL-format corpus (NERRANK_CONLL_DIR holding
    train/dev/test files), the pipeline completes, reranked F1 stays within
    0.1 points of the baseline, and the oracle bounds bracket it exactly."""
    root = os.environ.get("NERRANK_CONLL_DIR")
    if not root:
        pytest.skip("no real corpus supplied; set NERRANK_CONLL_DIR to run")

    def find(*names):
        for name in names:
            path = os.path.join(root, name)
            if os.path.exists(path):
                return path
        pytest.skip(f"none of {names} found under {root}")

    train_file = find("eng.train", "train.txt", "train.conll")
    dev_file = find("eng.testa", "dev.txt", "dev.conll")
    test_file = find("eng.testb", "test.txt", "test.conll")

    def read(path):
        with open(path, encoding="utf-8") as fh:
            return parse_conll(fh.read())

    train_ds, dev_ds, test_ds = read(train_file), read(dev_file), read(test_file)
    templates = FeatureTemplateSet()  # POS templates self-disable without a POS column
    model = crf_train(train_ds, templates, **dict(CRF, epochs=8, seed=0))
    dev_nb = decode_corpus(model, dev_ds, 10)
    test_nb = decode_corpus(model, test_ds, 10)
    train_nb = build_nbest_corpus(train_ds, 5, 10, templates, **dict(CRF, epochs=8, seed=0))

    base_f1 = chunk_prf(test_ds.gold, top_one(test_nb)).f1
    config = TrainConfig(epochs=3, seed=0)
    bundle = train_reranker(make_examples(train_nb), dev_nb, config)
    predictions = rerank(bundle, test_nb)
    reranked_f1 = chunk_prf(test_ds.gold, predictions).f1

    assert reranked_f1 >= base_f1 - 0.001  # within 0.1 points
    bounds = oracle(test_nb.truncated(10))[-1]
    assert bounds.owf <= reranked_f1 <= bounds.obf
