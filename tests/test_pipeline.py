"""Tests for reranker dataset construction, the MSE+L2 objective, mixture
decoding, the interpolation grid search, training, and bundle persistence."""

import logging
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nerrank import pipeline
from nerrank.baseline.nbest import CandidateSet, NBestCorpus
from nerrank.collapse import collapse, collapsed_token_strings
from nerrank.corpus import BioLabel, Sentence, Token, extract_spans, normalize_to_bio2
from nerrank.errors import CheckpointMismatchError, ConfigError, NerrankError
from nerrank.evaluation import PrfCounts, chunk_prf, oracle
from nerrank.pipeline import (
    ALPHA_GRID,
    AlphaSearchResult,
    EpochEval,
    RerankExample,
    RerankerBundle,
    TrainConfig,
    alpha_search,
    batch_loss,
    load_bundle,
    make_examples,
    mixture_select,
    rerank,
    save_bundle,
    score_sets,
    train_reranker,
)
from nerrank.reranker import PatternScorer, ScorerConfig, build_vocab
from strategies import label_seqs, sentences

TINY = TrainConfig(
    scorer=ScorerConfig(
        word_dim=6,
        char_dim=4,
        lstm_hidden=5,
        char_cnn_filters=3,
        word_cnn_filters=4,
        dropout=0.0,
    ),
    batch_size=16,
    epochs=2,
    learning_rate=0.01,
    l2=0.0,
)


def labels(*tags):
    return [BioLabel.parse(t) for t in tags]


def sent(sid, *words):
    return Sentence(sid, tuple(Token(w) for w in words))


def nbest_from(rows):
    """rows: list of (sentence, gold tag strings, [(cand tags, prob), ...])."""
    sentences, sets = [], []
    for sentence, gold, cands in rows:
        sentences.append(sentence)
        sets.append(
            CandidateSet(
                sentence_id=sentence.id,
                gold=labels(*gold) if gold is not None else None,
                candidates=[(labels(*tags), prob) for tags, prob in cands],
            )
        )
    return NBestCorpus(sentences, sets)


def tiny_scorer(token_lists, *, zero_head=False, seed=0, config=None):
    scorer = PatternScorer(
        build_vocab(token_lists),
        config or TINY.scorer,
        char_pad=8,
        seed=seed,
    )
    if zero_head:
        scorer.params["head_w"].data[:] = 0.0
        scorer.params["head_b"].data[:] = 0.0
    return scorer


# ---------------------------------------------------------------------------
# example construction


def test_gold_candidate_gets_target_one():
    corpus = nbest_from(
        [
            (
                sent(0, "John", "runs"),
                ("B-PER", "O"),
                [(("B-PER", "O"), 0.6), (("O", "O"), 0.3)],
            )
        ]
    )
    examples = make_examples(corpus)
    assert examples[0].target == 1.0
    assert examples[1].target == 0.5


def test_target_is_tag_accuracy_fraction():
    words = ["a", "b", "c", "d", "e", "f", "g"]
    gold = ("B-PER", "I-PER", "O", "O", "B-LOC", "O", "O")
    cand = ("B-PER", "I-PER", "O", "O", "B-ORG", "I-ORG", "B-MISC")
    corpus = nbest_from([(sent(0, *words), gold, [(cand, 0.5)])])
    (ex,) = make_examples(corpus)
    assert ex.target == pytest.approx(4 / 7)


def test_one_example_per_candidate_order_preserved():
    corpus = nbest_from(
        [
            (
                sent(3, "x", "y"),
                ("O", "O"),
                [(("O", "O"), 0.5), (("B-PER", "O"), 0.25), (("B-LOC", "O"), 0.125)],
            )
        ]
    )
    examples = make_examples(corpus)
    assert len(examples) == 3
    assert [ex.tokens for ex in examples] == [["x", "y"], ["PER", "y"], ["LOC", "y"]]


def test_missing_gold_is_an_error():
    corpus = nbest_from([(sent(7, "x"), None, [(("O",), 0.9)])])
    with pytest.raises(NerrankError, match="7"):
        make_examples(corpus)


def test_targets_compare_normalized_labels():
    # raw gold written I-PER from position 0 means the same entity as B-PER
    corpus = nbest_from(
        [(sent(0, "John"), ("I-PER",), [(("B-PER",), 0.8)])]
    )
    (ex,) = make_examples(corpus)
    assert ex.target == 1.0


def test_example_field_validation():
    seq = collapse(sent(0, "x"), labels("O"))
    with pytest.raises(NerrankError):
        RerankExample(collapsed=seq, target=1.5)
    with pytest.raises(NerrankError):
        RerankExample(collapsed=seq, target=-0.5)


def test_example_tokens_use_type_tokens():
    seq = collapse(sent(0, "visited", "New", "York"), labels("O", "B-LOC", "I-LOC"))
    ex = RerankExample(collapsed=seq, target=1.0)
    assert ex.tokens == ["visited", "LOC"]


# ---------------------------------------------------------------------------
# loss


def loss_fixture(targets, *, l2=0.0, zero_head=True):
    examples = []
    for i, y in enumerate(targets):
        seq = collapse(sent(i, "w", "v"), labels("O", "O"))
        examples.append(RerankExample(collapsed=seq, target=y))
    scorer = tiny_scorer([ex.tokens for ex in examples], zero_head=zero_head)
    return scorer, examples, l2


def test_zero_error_zero_l2_gives_zero_loss():
    # a zeroed head scores exactly 0.5 everywhere
    scorer, examples, _ = loss_fixture([0.5, 0.5, 0.5])
    assert batch_loss(scorer, examples, 0.0, train=False).item() == 0.0


def test_single_example_squared_error():
    scorer, examples, _ = loss_fixture([1.0])
    assert batch_loss(scorer, examples, 0.0, train=False).item() == pytest.approx(
        0.25, abs=1e-15
    )


def test_loss_is_mean_over_batch():
    scorer, examples, _ = loss_fixture([1.0, 0.0])
    assert batch_loss(scorer, examples, 0.0, train=False).item() == pytest.approx(
        0.25, abs=1e-15
    )


def test_l2_term_matches_direct_parameter_norm():
    lam = 0.01
    scorer, examples, _ = loss_fixture([0.5, 0.5], l2=lam)
    norm_sq = sum(
        float(np.sum(t.data * t.data)) for _, t in scorer.trainable()
    )
    got = batch_loss(scorer, examples, lam, train=False).item()
    assert got == pytest.approx((lam / 2.0) * norm_sq, rel=1e-12)


def test_l2_covers_all_trainable_parameters():
    # zeroing the head changes the penalty by exactly its squared norm
    scorer, examples, lam = loss_fixture([0.5, 0.5], l2=0.5, zero_head=False)
    before = batch_loss(scorer, examples, 0.5, train=False).item()
    head_sq = float(np.sum(scorer.params["head_w"].data ** 2))
    err = (scorer.score_batch([examples[0].tokens]).item() - 0.5) ** 2
    scorer.params["head_w"].data[:] = 0.0
    scorer.params["head_b"].data[:] = 0.0
    after = batch_loss(scorer, examples, 0.5, train=False).item()
    assert before - err == pytest.approx(after + 0.25 * head_sq, rel=1e-9)


def test_empty_batch_is_an_error():
    scorer = tiny_scorer([["w"]])
    with pytest.raises(NerrankError):
        batch_loss(scorer, [], 0.0)


# ---------------------------------------------------------------------------
# mixture selection


def test_alpha_zero_takes_baseline_top():
    assert mixture_select([0.1, 0.99], [0.6, 0.3], [0.0]).tolist() == [0]


def test_alpha_one_takes_best_score():
    assert mixture_select([0.2, 0.9], [0.6, 0.3], [1.0]).tolist() == [1]


def test_alpha_half_arithmetic():
    # mixed: 0.6 vs 0.55
    assert mixture_select([0.8, 0.2], [0.4, 0.9], [0.5]).tolist() == [0]


def test_one_pick_per_alpha():
    # mixed at alpha: 0.6 - 0.2*alpha vs 0.3 + 0.6*alpha, equal at 3/8
    picks = mixture_select([0.4, 0.9], [0.6, 0.3], [0.0, 0.25, 0.375, 0.5, 1.0])
    assert picks.tolist() == [0, 0, 0, 1, 1]


def test_ties_prefer_lower_index():
    assert mixture_select([0.5, 0.5], [0.5, 0.5], [0.5, 1.0]).tolist() == [0, 0]


def test_mixture_select_validation():
    with pytest.raises(NerrankError):
        mixture_select([], [], [0.5])
    with pytest.raises(ConfigError):
        mixture_select([0.5], [0.5], [1.5])
    with pytest.raises(ConfigError):
        mixture_select([0.5], [0.5], [0.5, -0.005])
    with pytest.raises(ConfigError):
        mixture_select([0.5], [0.5], [float("nan")])
    with pytest.raises(NerrankError, match="2 scores for 1 candidates"):
        mixture_select([0.5, 0.4], [0.5], [0.5])
    # NaN would win numpy's argmax but never the scalar loop's comparison
    with pytest.raises(NerrankError, match="must be finite"):
        mixture_select([0.5, float("nan")], [0.6, 0.3], [0.0])
    with pytest.raises(NerrankError, match="must be finite"):
        mixture_select([0.5, 0.4], [0.6, float("inf")], [1.0])


def test_constant_shift_never_changes_selection():
    rng = np.random.default_rng(5)
    for _ in range(50):
        scores = rng.uniform(0.05, 0.95, size=4)
        probs = rng.uniform(0.05, 0.45, size=4)
        alpha = float(rng.integers(0, 201)) / 200.0
        base = mixture_select(scores, probs, [alpha])
        # shifting every baseline probability by the same amount shifts all
        # mixed scores by the same constant
        assert mixture_select(scores, probs + 0.5, [alpha]).tolist() == base.tolist()


def reference_select(pairs, alpha):
    """The selection rule one (score, prob) list and one alpha at a time."""
    best_i = 0
    best_v = None
    for i, (s, p) in enumerate(pairs):
        v = alpha * s + (1.0 - alpha) * p
        if best_v is None or v > best_v:
            best_i, best_v = i, v
    return best_i


def reference_search(nbest, scores):
    """The grid search as one selection per sentence and grid point."""
    per_sentence = []
    total_gold = 0
    for cs, row in zip(nbest.sets, scores):
        gspans = extract_spans(normalize_to_bio2(cs.gold))
        total_gold += len(gspans)
        counts = []
        for cand, _ in cs.candidates:
            spans = extract_spans(normalize_to_bio2(cand))
            counts.append((len(spans & gspans), len(spans)))
        pairs = [(s, prob) for s, (_, prob) in zip(row, cs.candidates)]
        per_sentence.append((pairs, counts))
    best_alpha = None
    best_f1 = -1.0
    points = 0
    for alpha in ALPHA_GRID:
        points += 1
        tp = pred = 0
        for pairs, counts in per_sentence:
            hit, size = counts[reference_select(pairs, alpha)]
            tp += hit
            pred += size
        f1 = PrfCounts(tp, pred, total_gold).f1
        if f1 > best_f1:
            best_alpha, best_f1 = alpha, f1
    return AlphaSearchResult(alpha=best_alpha, f1=best_f1, points=points)


# sixteenths tie often under the mixture; arbitrary floats rarely do
unit_values = st.integers(1, 15).map(lambda i: i / 16.0) | st.floats(0.01, 0.99)


@st.composite
def scored_corpora(draw):
    """Gold n-best corpora with ragged set sizes (1-12), probabilities in
    128ths (equal ones are common) and a score per candidate."""
    sentences_, sets, scores = [], [], []
    for sid in range(draw(st.integers(1, 6))):
        s = draw(sentences(st.just(sid), max_len=4))
        k = draw(st.integers(1, 12))
        probs = sorted(
            (i / 128.0 for i in draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))),
            reverse=True,
        )
        cands = [(draw(label_seqs(len(s))), p) for p in probs]
        sentences_.append(s)
        sets.append(CandidateSet(sid, draw(label_seqs(len(s))), cands))
        scores.append(draw(st.lists(unit_values, min_size=k, max_size=k)))
    return NBestCorpus(sentences_, sets), scores


@given(scored_corpora())
def test_alpha_search_matches_the_scalar_reference(scored):
    corpus, scores = scored
    for cs, row in zip(corpus.sets, scores):
        pairs = [(s, prob) for s, (_, prob) in zip(row, cs.candidates)]
        picks = mixture_select(row, [prob for _, prob in cs.candidates], ALPHA_GRID)
        assert picks.tolist() == [reference_select(pairs, a) for a in ALPHA_GRID]
    # a second search on the same corpus object, as every training epoch
    # makes, reads the span counts the first one derived
    for row_scores in (scores, [[1.0 - x for x in row] for row in scores]):
        result = alpha_search(corpus, row_scores)
        expected = reference_search(corpus, row_scores)
        assert (result.alpha, result.f1, result.points) == (
            expected.alpha,
            expected.f1,
            expected.points,
        )
        assert type(result.alpha) is float and type(result.f1) is float


# ---------------------------------------------------------------------------
# corpus scoring


def small_corpus():
    return nbest_from(
        [
            (
                sent(0, "visited", "Paris", "today"),
                ("O", "B-LOC", "O"),
                [(("O", "B-LOC", "O"), 0.5), (("O", "B-PER", "O"), 0.3)],
            ),
            (
                sent(1, "John", "slept"),
                ("B-PER", "O"),
                [(("O", "O"), 0.4), (("B-PER", "O"), 0.35)],
            ),
        ]
    )


def corpus_token_lists(nbest):
    lists = []
    for sentence, cs in nbest:
        for cand, _ in cs.candidates:
            lists.append(collapsed_token_strings(collapse(sentence, cand)))
    return lists


def test_score_sets_matches_single_scoring():
    corpus = small_corpus()
    scorer = tiny_scorer(corpus_token_lists(corpus))
    rows = score_sets(scorer, corpus)
    assert [len(r) for r in rows] == [2, 2]
    for (sentence, cs), row in zip(corpus, rows):
        for score, (cand, _) in zip(row, cs.candidates):
            assert type(score) is float
            seq = collapse(sentence, cand)
            direct = scorer.score_batch([collapsed_token_strings(seq)]).item()
            assert score == pytest.approx(direct, abs=1e-12)


def test_identical_patterns_share_a_score():
    corpus = nbest_from(
        [
            (
                sent(0, "in", "Rome"),
                ("O", "B-LOC"),
                [(("O", "B-LOC"), 0.6), (("O", "O"), 0.2)],
            ),
            (
                sent(1, "in", "Oslo"),
                ("O", "B-LOC"),
                [(("O", "B-LOC"), 0.5), (("O", "O"), 0.25)],
            ),
        ]
    )
    scorer = tiny_scorer(corpus_token_lists(corpus))
    rows = score_sets(scorer, corpus)
    # both first candidates collapse to the pattern ["in", "LOC"]
    assert rows[0][0] == rows[1][0]



def test_score_sets_rejects_scores_outside_the_open_interval():
    # a saturated head scores exactly 1.0 or 0.0; a NaN weight scores NaN
    corpus = small_corpus()
    for bias, weight, shown in ((1000.0, 0.0, "1.0"), (-1000.0, 0.0, "0.0"), (0.0, np.nan, "nan")):
        scorer = tiny_scorer(corpus_token_lists(corpus), zero_head=True)
        scorer.params["head_b"].data[:] = bias
        scorer.params["head_w"].data[:] = weight
        with pytest.raises(NerrankError, match=rf"inside \(0, 1\): {shown}"):
            score_sets(scorer, corpus)


# ---------------------------------------------------------------------------
# alpha search


def test_constant_scores_return_alpha_zero():
    corpus = small_corpus()
    scorer = tiny_scorer(corpus_token_lists(corpus), zero_head=True)
    rows = score_sets(scorer, corpus)
    assert all(score == 0.5 for row in rows for score in row)
    result = alpha_search(corpus, rows)
    assert result.alpha == 0.0
    assert result.points == 201


def test_alpha_grid_has_201_points_at_step_0_005():
    assert len(ALPHA_GRID) == 201
    assert ALPHA_GRID[0] == 0.0
    assert ALPHA_GRID[-1] == 1.0
    assert ALPHA_GRID[1] == 0.005


def test_oracle_perfect_reranker_pushes_alpha_high():
    # baseline ranks the wrong candidate first with a wide probability gap;
    # the scorer separates them by a narrow margin, so only a large alpha
    # flips the selection (threshold 8/9 -> first grid point 0.89)
    corpus = nbest_from(
        [
            (sent(sid, "w", "v"), ("B-PER", "O"), [(("O", "O"), 0.9), (("B-PER", "O"), 0.1)])
            for sid in range(3)
        ]
    )
    result = alpha_search(corpus, [[0.8, 0.9]] * 3)
    assert result.alpha == 178 / 200.0
    assert result.f1 == 1.0


def test_alpha_search_alignment_errors():
    corpus = small_corpus()
    scorer = tiny_scorer(corpus_token_lists(corpus))
    rows = score_sets(scorer, corpus)
    with pytest.raises(NerrankError):
        alpha_search(corpus, rows[:1])
    with pytest.raises(NerrankError):
        alpha_search(corpus, [rows[0], []])
    with pytest.raises(NerrankError, match="gold"):
        alpha_search(nbest_from([(sent(0, "x"), None, [(("O",), 0.9)])]), [[0.5]])


# ---------------------------------------------------------------------------
# reranking


def make_bundle(scorer, alpha, config=TINY):
    return RerankerBundle(scorer=scorer, alpha=alpha, config=config, history=[])


def test_alpha_zero_reproduces_baseline_choices():
    corpus = small_corpus()
    scorer = tiny_scorer(corpus_token_lists(corpus))
    bundle = make_bundle(scorer, 0.0)
    predictions = rerank(bundle, corpus)
    for cs, pred in zip(corpus.sets, predictions):
        assert pred == normalize_to_bio2(cs.candidates[0][0])


def test_single_candidate_sets_ignore_alpha():
    corpus = nbest_from(
        [
            (sent(0, "Rome"), ("B-LOC",), [(("B-LOC",), 0.7)]),
            (sent(1, "ran"), ("O",), [(("O",), 0.9)]),
        ]
    )
    scorer = tiny_scorer(corpus_token_lists(corpus))
    for alpha in (0.0, 0.25, 1.0):
        predictions = rerank(make_bundle(scorer, alpha), corpus)
        assert predictions == [labels("B-LOC"), labels("O")]


def test_reranked_f1_sits_between_oracle_bounds():
    corpus = small_corpus()
    scorer = tiny_scorer(corpus_token_lists(corpus))
    report = oracle(corpus)
    k = max(len(cs) for cs in corpus.sets)
    bounds = report.row(k)
    golds = [cs.gold for cs in corpus.sets]
    for alpha in (0.0, 0.5, 1.0):
        predictions = rerank(make_bundle(scorer, alpha), corpus)
        f1 = chunk_prf(golds, predictions).f1
        assert bounds.owf - 1e-12 <= f1 <= bounds.obf + 1e-12


def test_bundle_requires_alpha_on_grid():
    scorer = tiny_scorer([["w"]])
    make_bundle(scorer, 0.305)  # fine
    with pytest.raises(ConfigError):
        make_bundle(scorer, 0.3033)
    with pytest.raises(ConfigError):
        make_bundle(scorer, -0.005)


# ---------------------------------------------------------------------------
# training


def cue_corpus(n, seed, *, start=0):
    """Separable toy task: 'in X today' makes X a location, 'greets X today'
    makes X a person. Candidate 0 carries the wrong type half the time."""
    rng = np.random.default_rng([seed, 91])
    rows = []
    names = ["astor", "belmar", "corin", "delos", "em", "farr"]
    for i in range(n):
        cue, right, wrong = (
            ("in", "B-LOC", "B-ORG") if i % 2 == 0 else ("greets", "B-PER", "B-MISC")
        )
        name = names[int(rng.integers(len(names)))]
        sentence = sent(start + i, cue, name, "today")
        gold = ("O", right, "O")
        good = ("O", right, "O")
        bad = ("O", wrong, "O")
        # half the sentences have the wrong type ranked first
        first, second = (bad, good) if i % 4 < 2 else (good, bad)
        rows.append((sentence, gold, [(first, 0.5), (second, 0.45)]))
    return nbest_from(rows)


def test_training_beats_the_initial_model():
    train_corpus = cue_corpus(48, seed=0)
    dev_corpus = cue_corpus(16, seed=1, start=1000)
    config = TINY
    bundle = train_reranker(make_examples(train_corpus), dev_corpus, config)
    first = bundle.history[0]
    assert first.epoch == 0
    best = max(h.dev_f1 for h in bundle.history)
    assert best > first.dev_f1
    # ties go to the earlier epoch, and its alpha is what the bundle reports
    winner = min(
        (h for h in bundle.history if h.dev_f1 == best), key=lambda h: h.epoch
    )
    assert bundle.alpha == winner.alpha


def test_each_epoch_is_logged_when_it_is_evaluated(caplog, monkeypatch):
    train_corpus = cue_corpus(16, seed=6)
    dev_corpus = cue_corpus(8, seed=7, start=1000)
    losses = []

    def traced_loss(*args, **kwargs):
        loss = batch_loss(*args, **kwargs)
        losses.append(loss.item())
        logging.getLogger("nerrank.pipeline").info("batch")
        return loss

    monkeypatch.setattr(pipeline, "batch_loss", traced_loss)
    with caplog.at_level(logging.INFO, logger="nerrank.pipeline"):
        bundle = train_reranker(make_examples(train_corpus), dev_corpus, TINY)
    lines = [r.getMessage() for r in caplog.records if r.name == "nerrank.pipeline"]
    # 32 examples in batches of 16: two batches per epoch, each epoch's line
    # follows its own batches and precedes the next epoch's
    assert [line.split(":")[0] for line in lines] == [
        "epoch 0", "batch", "batch", "epoch 1", "batch", "batch", "epoch 2",
    ]
    epoch_lines = [line for line in lines if line != "batch"]
    means = ["-", f"{np.mean(losses[:2]):.6f}", f"{np.mean(losses[2:]):.6f}"]
    assert epoch_lines == [
        f"epoch {h.epoch}: mean loss {mean}, dev F1 {h.dev_f1:.4f} at alpha {h.alpha:.3f}"
        for h, mean in zip(bundle.history, means)
    ]


def test_epochs_zero_returns_initialized_model():
    train_corpus = cue_corpus(8, seed=2)
    dev_corpus = cue_corpus(4, seed=3, start=1000)
    config = TrainConfig(
        scorer=ScorerConfig(
            word_dim=6,
            char_dim=4,
            lstm_hidden=5,
            char_cnn_filters=3,
            word_cnn_filters=4,
            dropout=0.0,
        ),
        epochs=0,
        seed=11,
    )
    examples = make_examples(train_corpus)
    bundle = train_reranker(examples, dev_corpus, config)
    assert [h.epoch for h in bundle.history] == [0]
    fresh = PatternScorer(
        build_vocab([ex.tokens for ex in examples]),
        config.scorer,
        char_pad=bundle.scorer.char_pad,
        seed=11,
    )
    for name, tensor in bundle.scorer.params.items():
        assert np.array_equal(tensor.data, fresh.params[name].data), name


def test_same_seed_trains_identically():
    train_corpus = cue_corpus(16, seed=4)
    dev_corpus = cue_corpus(8, seed=5, start=1000)
    config = TrainConfig(
        scorer=ScorerConfig(
            word_dim=6,
            char_dim=4,
            lstm_hidden=5,
            char_cnn_filters=3,
            word_cnn_filters=4,
            dropout=0.1,
        ),
        batch_size=8,
        epochs=1,
        learning_rate=0.01,
        seed=3,
    )
    a = train_reranker(make_examples(train_corpus), dev_corpus, config)
    b = train_reranker(make_examples(train_corpus), dev_corpus, config)
    assert a.alpha == b.alpha
    assert a.history == b.history
    for name, tensor in a.scorer.params.items():
        assert np.array_equal(tensor.data, b.scorer.params[name].data), name


def count_calls(monkeypatch, functions) -> dict[str, int]:
    """Wrap each function under every name a nerrank module binds it to,
    as perfbench's tracer does; the returned counts grow with each call."""
    counts = {fn.__name__: 0 for fn in functions}
    for fn in functions:

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "nerrank":
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, counted)
    return counts


def test_dev_is_collapsed_and_counted_once_per_training_run(monkeypatch):
    """Every epoch rescores dev and re-tunes alpha from the patterns and
    span counts derived on the first evaluation."""
    examples = make_examples(cue_corpus(16, seed=8))
    counts = count_calls(monkeypatch, (collapse, extract_spans))
    per_run = []
    for epochs in (0, 3):
        counts.update(dict.fromkeys(counts, 0))
        dev_corpus = cue_corpus(8, seed=9, start=1000)
        train_reranker(examples, dev_corpus, replace(TINY, epochs=epochs))
        per_run.append(dict(counts))
    assert per_run[0] == per_run[1]
    assert per_run[0]["collapse"] == 16  # once per dev candidate


def test_training_input_validation():
    dev_corpus = cue_corpus(4, seed=6)
    with pytest.raises(NerrankError):
        train_reranker([], dev_corpus, TINY)
    examples = make_examples(cue_corpus(4, seed=7))
    nogold = nbest_from([(sent(0, "w"), None, [(("O",), 0.9)])])
    with pytest.raises(NerrankError):
        train_reranker(examples, nogold, TINY)


def test_config_defaults_and_validation():
    cfg = TrainConfig()
    assert (cfg.batch_size, cfg.epochs) == (128, 5)
    assert (cfg.scorer.word_dim, cfg.scorer.char_dim, cfg.scorer.lstm_hidden) == (50, 50, 100)
    assert (cfg.scorer.char_cnn_filters, cfg.scorer.word_cnn_filters) == (50, 100)
    assert (cfg.learning_rate, cfg.l2) == (0.001, 0.001)
    assert (cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps) == (0.1, 0.999, 1e-8)
    assert (cfg.scorer.dropout, cfg.scorer.peepholes) == (0.2, False)
    for bad in (
        dict(epochs=-1),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(l2=-0.1),
        dict(adam_beta1=1.0),
        dict(adam_eps=0.0),
        dict(char_pad_cap=0),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


# ---------------------------------------------------------------------------
# persistence


def test_bundle_roundtrip(tmp_path):
    train_corpus = cue_corpus(8, seed=8)
    dev_corpus = cue_corpus(4, seed=9, start=1000)
    config = TrainConfig(
        scorer=ScorerConfig(
            word_dim=6,
            char_dim=4,
            lstm_hidden=5,
            char_cnn_filters=3,
            word_cnn_filters=4,
            dropout=0.0,
        ),
        epochs=1,
        batch_size=8,
        seed=2,
    )
    bundle = train_reranker(make_examples(train_corpus), dev_corpus, config)
    path = tmp_path / "bundle"
    save_bundle(path, bundle)
    loaded = load_bundle(path)
    assert loaded.alpha == bundle.alpha
    assert loaded.config == bundle.config
    assert loaded.history == bundle.history
    assert loaded.scorer.vocab.word_list() == bundle.scorer.vocab.word_list()
    for name, tensor in bundle.scorer.params.items():
        assert np.array_equal(tensor.data, loaded.scorer.params[name].data), name
    assert rerank(loaded, dev_corpus) == rerank(bundle, dev_corpus)


def random_bundle(seed):
    """A bundle whose parameters are all random, so no byte is a default."""
    scorer = tiny_scorer([["PER", "visited", "LOC"]], seed=seed)
    rng = np.random.default_rng(seed)
    for _, tensor in scorer.params.items():
        tensor.data = rng.normal(size=tensor.data.shape)
    return make_bundle(scorer, 0.25)


def test_bundle_weights_round_trip_bit_exact(tmp_path):
    bundle = random_bundle(seed=1)
    save_bundle(tmp_path / "a", bundle)
    loaded = load_bundle(tmp_path / "a")
    assert loaded.scorer.params.names() == bundle.scorer.params.names()
    for name, tensor in bundle.scorer.params.items():
        assert loaded.scorer.params[name].data.tobytes() == tensor.data.tobytes(), name
    save_bundle(tmp_path / "b", loaded)
    for name in ("weights.bin", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bundle_rejects_garbage_weights(tmp_path):
    path = tmp_path / "bundle"
    save_bundle(path, random_bundle(seed=2))
    good = (path / "weights.bin").read_bytes()
    for junk in (b"not a checkpoint", b"NRKC", good[: len(good) // 2]):
        (path / "weights.bin").write_bytes(junk)
        with pytest.raises(CheckpointMismatchError, match=str(path)):
            load_bundle(path)


def test_load_bundle_missing_directory(tmp_path):
    with pytest.raises(NerrankError):
        load_bundle(tmp_path / "nowhere")
