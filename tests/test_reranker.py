"""Tests for the vocabulary, embedding init, and the neural pattern scorer."""

import math
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerrank.collapse import collapse, collapsed_token_strings
from nerrank.corpus import BioLabel, Sentence, Token
from nerrank.errors import (
    CheckpointMismatchError,
    ConfigError,
    NerrankError,
    ParseError,
    ShapeMismatchError,
)
from nerrank.config import ScorerConfig, TrainConfig
from nerrank.numerics import Tensor, backward, sum_all
from nerrank.pipeline import RerankerBundle, load_bundle, save_bundle
from nerrank.reranker import (
    CHAR_PAD_ID,
    CHAR_UNK_ID,
    PatternScorer,
    Vocab,
    WORD_UNK_ID,
    build_vocab,
    init_embeddings,
    parse_embeddings,
)
from nerrank.reranker.model import DROPOUT_STREAM
from gradcheck import grad_check

SMALL = ScorerConfig(
    word_dim=3,
    char_dim=2,
    lstm_hidden=4,
    char_cnn_filters=2,
    word_cnn_filters=3,
    dropout=0.0,
)
SMALL_PAD = 4


def small_vocab():
    return build_vocab([["PER", "ab", "ba", "visited"], ["LOC", "xy", "."]])


def labels(*tags):
    return [BioLabel.parse(t) for t in tags]


def sentence(sid, *words):
    return Sentence(sid, tuple(Token(w) for w in words))


# ---------------------------------------------------------------------------
# vocabulary


def test_reserved_word_ids():
    v = small_vocab()
    assert [v.word_to_id[w] for w in ("<unk>", "<pad>", "PER", "LOC", "ORG", "MISC")] == [
        0, 1, 2, 3, 4, 5,
    ]
    assert v.char_to_id["<unk_char>"] == 0
    assert v.char_to_id["<pad_char>"] == 1


def test_unknown_lookups_fall_back():
    v = small_vocab()
    assert v.word_id("never-seen") == WORD_UNK_ID
    assert v.char_id("€") == CHAR_UNK_ID
    assert v.word_id("ab") > 5
    assert v.char_id("a") > 1


def test_build_vocab_deterministic_and_sorted():
    a = build_vocab([["zz", "aa"], ["mm"]])
    b = build_vocab([["mm"], ["aa", "zz"]])
    assert a == b
    non_reserved = a.word_list()[6:]
    assert non_reserved == sorted(non_reserved)


def test_vocab_list_roundtrip():
    v = small_vocab()
    again = Vocab.from_lists(v.word_list(), v.char_list())
    assert again == v


def test_vocab_rejects_broken_reserved_prefix():
    with pytest.raises(ConfigError):
        Vocab(word_to_id={"<unk>": 1, "<pad>": 0}, char_to_id={"<unk_char>": 0, "<pad_char>": 1})
    with pytest.raises(ConfigError):
        Vocab.from_lists(["<unk>", "<pad>"], ["<unk_char>", "<pad_char>"])  # no type tokens


# ---------------------------------------------------------------------------
# embeddings


def test_oov_rows_stay_inside_bound():
    v = small_vocab()
    table = init_embeddings(v, 50, np.random.default_rng(0))
    bound = math.sqrt(3.0 / 50)
    assert abs(bound - 0.2449) < 1e-4
    assert table.shape == (v.num_words, 50)
    assert np.all(np.abs(table) < bound)


def test_pretrained_tokens_copied_exactly():
    v = small_vocab()
    vec = np.arange(4.0)
    table = init_embeddings(v, 4, np.random.default_rng(1), {"ab": vec, "PER": -vec})
    assert np.array_equal(table[v.word_id("ab")], vec)
    assert np.array_equal(table[v.word_id("PER")], -vec)
    assert np.all(np.abs(table[v.word_id("ba")]) < math.sqrt(3.0 / 4))


def test_empty_pretrained_means_all_random():
    v = small_vocab()
    a = init_embeddings(v, 8, np.random.default_rng(2), {})
    b = init_embeddings(v, 8, np.random.default_rng(2))
    assert np.array_equal(a, b)


def test_embedding_header_detected_and_checked():
    parsed = parse_embeddings("2 3\nfoo 1 2 3\nbar 4 5 6\n", 3)
    assert set(parsed) == {"foo", "bar"}
    with pytest.raises(ParseError, match="line 1"):
        parse_embeddings("2 4\nfoo 1 2 3 4\n", 3)


def test_embedding_row_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_embeddings("foo 1 2\nbar 1\n", 2)
    with pytest.raises(ParseError, match="line 1"):
        parse_embeddings("foo 1 oops\n", 2)


def test_two_field_first_line_is_only_a_header_when_numeric():
    parsed = parse_embeddings("foo 7\nbar 8\n", 1)
    assert parsed["foo"].tolist() == [7.0]
    # duplicate token: last occurrence wins
    parsed = parse_embeddings("foo 1\nfoo 2\n", 1)
    assert parsed["foo"].tolist() == [2.0]


# ---------------------------------------------------------------------------
# character CNN


def ref_char_cnn(scorer, word):
    """Plain-numpy rebuild of the char CNN from its definition."""
    cfg = scorer.config
    ids = [scorer.vocab.char_id(c) for c in word[: scorer.char_pad]]
    ids += [CHAR_PAD_ID] * (scorer.char_pad - len(ids))
    x = scorer.char_emb.data[ids]
    w, b = scorer.char_cnn_w.data, scorer.char_cnn_b.data[0]
    half = cfg.char_cnn_window // 2
    best = None
    for j in range(scorer.char_pad):
        parts = [
            x[j + o] if 0 <= j + o < scorer.char_pad else np.zeros(cfg.char_dim)
            for o in range(-half, half + 1)
        ]
        resp = np.concatenate(parts) @ w + b
        best = resp if best is None else np.maximum(best, resp)
    return best


def char_vectors(scorer, words):
    """The character-CNN columns of the words' representations."""
    return scorer.word_matrix(words).data[:, scorer.config.word_dim :]


def test_char_cnn_matches_reference_windows():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=3)
    words = ["ab", "ba", "xy", "a", "", "abba", "toolongword"]
    for word, got in zip(words, char_vectors(scorer, words)):
        assert np.allclose(got, ref_char_cnn(scorer, word), atol=1e-12)
        assert np.allclose(char_vectors(scorer, [word])[0], got, atol=1e-12)


def test_char_cnn_zero_filters_give_bias():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=0)
    scorer.char_cnn_w.data[:] = 0.0
    scorer.char_cnn_b.data[:] = [[0.25, -1.5]]
    assert char_vectors(scorer, ["ab", "", "zzz"]).tolist() == [[0.25, -1.5]] * 3


def test_char_cnn_single_filter_picks_max_coordinate():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=4)
    # one live filter reading coordinate 0 of the window's center character
    scorer.char_cnn_w.data[:] = 0.0
    scorer.char_cnn_b.data[:] = 0.0
    scorer.char_cnn_w.data[scorer.config.char_dim + 0, 0] = 1.0
    word = "ab"
    ids = [scorer.vocab.char_id(c) for c in word] + [CHAR_PAD_ID] * 2
    expected = max(scorer.char_emb.data[i][0] for i in ids)
    got = char_vectors(scorer, [word])[0]
    assert got[0] == pytest.approx(expected, abs=1e-12)
    assert got[1] == 0.0


def test_char_cnn_ignores_text_beyond_pad_length():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=5)
    a, b = char_vectors(scorer, ["abba", "abbaXYZ"])
    assert np.array_equal(a, b)


def test_empty_word_uses_pure_padding():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=6)
    pad_only = scorer.char_emb.data[[CHAR_PAD_ID] * scorer.char_pad]
    got = char_vectors(scorer, [""])[0]
    assert np.isfinite(got).all()
    assert np.allclose(got, ref_char_cnn(scorer, ""), atol=1e-12)
    assert ref_char_cnn(scorer, "").shape == (scorer.config.char_cnn_filters,)
    assert pad_only.shape == (4, 2)


# ---------------------------------------------------------------------------
# word representations


def test_word_repr_is_embedding_concat_char_vector():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=7)
    got = scorer.word_matrix(["ab"]).data[0]
    expected = np.concatenate(
        [scorer.word_emb.data[scorer.vocab.word_id("ab")], ref_char_cnn(scorer, "ab")]
    )
    assert np.allclose(got, expected, atol=1e-12)


def test_type_token_item_uses_reserved_embedding_row():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=8)
    sent = sentence(1, "John", "ran")
    collapsed = collapse(sent, labels("B-PER", "O"))
    per_item = collapsed.items[0]
    assert per_item.is_type_token
    got = scorer.word_matrix([per_item.token_string()]).data[0][: scorer.config.word_dim]
    assert np.array_equal(got, scorer.word_emb.data[2])  # reserved PER row


def test_word_repr_dropout_one_zeroes_training_output():
    cfg = ScorerConfig(
        word_dim=3, char_dim=2, lstm_hidden=4, char_cnn_filters=2, word_cnn_filters=3,
        dropout=1.0,
    )
    scorer = PatternScorer(small_vocab(), cfg, char_pad=4, seed=9)
    # every representation is zeroed, so the score is the one of a zero row
    zero = Tensor(np.zeros((1, 5)))
    h = np.concatenate(
        [scorer.lstm_encode(zero, [1]).data, scorer.word_cnn_encode(zero, [1]).data], axis=1
    )
    expected = 1.0 / (1.0 + np.exp(-(h @ scorer.head_w.data + scorer.head_b.data)))
    got = scorer.score_batch([["ab"], ["xy"]], train=True).data
    assert np.allclose(got, np.repeat(expected, 2, axis=0), atol=1e-12)
    assert np.any(scorer.word_matrix(["ab"]).data != 0.0)
    evaluated = scorer.score_batch([["ab"], ["xy"]]).data
    assert evaluated[0, 0] != evaluated[1, 0]


def test_char_cnn_off_leaves_plain_embedding():
    cfg = ScorerConfig(
        word_dim=3, char_dim=2, lstm_hidden=4, char_cnn_filters=2, word_cnn_filters=3,
        dropout=0.0, use_char_cnn=False,
    )
    scorer = PatternScorer(small_vocab(), cfg, char_pad=4, seed=10)
    assert cfg.repr_dim == 3
    row = scorer.word_matrix(["ab"]).data
    assert row.shape == (1, 3)
    assert np.array_equal(row[0], scorer.word_emb.data[scorer.vocab.word_id("ab")])
    assert "char_emb" not in dict(scorer.params.items())


# ---------------------------------------------------------------------------
# LSTM encoder


def ref_lstm(xs, w, b, mu=None):
    """Plain-numpy rebuild of the gate equations."""
    hidden = b[0].shape[1]
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    h = np.zeros((1, hidden))
    m = np.zeros((1, hidden))
    for x in xs:
        gate_i = h @ w[0] + x @ w[1] + b[0]
        gate_f = h @ w[2] + x @ w[3] + b[1]
        if mu is not None:
            gate_i = gate_i + mu[0] * m
            gate_f = gate_f + mu[1] * m
        i = sig(gate_i)
        f = sig(gate_f)
        cand = np.tanh(h @ w[4] + x @ w[5] + b[2])
        m = i * cand + f * m
        o = sig(h @ w[6] + x @ w[7] + b[3])
        h = np.tanh(m) * o
    return h


def rows(rng, n, dim):
    return Tensor(rng.normal(size=(n, dim)))


def runs(x, lengths):
    """The rows of x split into runs, each a list of (1, dim) arrays."""
    bounds = np.cumsum([0, *lengths])
    return [[x.data[i : i + 1] for i in range(a, b)] for a, b in zip(bounds, bounds[1:])]


def test_lstm_zero_parameters_give_zero_state():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=11)
    for t in scorer.lstm_w + scorer.lstm_b:
        t.data[:] = 0.0
    x = rows(np.random.default_rng(0), 6, SMALL.repr_dim)
    assert np.array_equal(scorer.lstm_encode(x, [6]).data, np.zeros((1, 4)))
    assert np.array_equal(scorer.lstm_encode(x, [2, 4]).data, np.zeros((2, 4)))


def test_lstm_single_step_closed_form():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=12)
    for t in scorer.lstm_w + scorer.lstm_b:
        t.data[:] = 0.0
    scorer.lstm_b[2].data[:] = 3.0  # candidate-memory bias
    x = Tensor(np.zeros((1, SMALL.repr_dim)))
    expected = np.tanh(np.tanh(3.0) * 0.5) * 0.5
    assert np.allclose(scorer.lstm_encode(x, [1]).data, expected, atol=1e-12)


def test_lstm_matches_reference_equations():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=13)
    rng = np.random.default_rng(5)
    for t in scorer.lstm_w + scorer.lstm_b:
        t.data[:] = rng.normal(scale=0.5, size=t.data.shape)
    w = [t.data for t in scorer.lstm_w]
    b = [t.data for t in scorer.lstm_b]
    x = rows(rng, 7, SMALL.repr_dim)
    assert np.allclose(scorer.lstm_encode(x, [7]).data, ref_lstm(runs(x, [7])[0], w, b), atol=1e-12)
    # runs that end early carry their final state through the later steps
    lengths = [3, 1, 2, 1]
    got = scorer.lstm_encode(x, lengths).data
    for row, xs in zip(got, runs(x, lengths)):
        assert np.allclose(row, ref_lstm(xs, w, b)[0], atol=1e-12)


def test_lstm_five_step_gradients():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=14)
    x = rows(np.random.default_rng(6), 5, SMALL.repr_dim)
    params = [(n, t) for n, t in scorer.params.items() if n.startswith("lstm_")]
    report = grad_check(lambda: sum_all(scorer.lstm_encode(x, [5])), params)
    assert report.ok(1e-4), str(report)


def test_lstm_rejects_empty_sequence():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=15)
    none = Tensor(np.zeros((0, SMALL.repr_dim)))
    x = rows(np.random.default_rng(0), 2, SMALL.repr_dim)
    for encode in (scorer.lstm_encode, scorer.word_cnn_encode):
        for args in ((none, []), (none, [0]), (x, [2, 0])):
            with pytest.raises(NerrankError, match="empty sequence"):
                encode(*args)
        with pytest.raises(ShapeMismatchError):
            encode(x, [1])


def test_peephole_mode_reduces_to_default_when_mu_is_zero():
    cfg_on = ScorerConfig(
        word_dim=3, char_dim=2, lstm_hidden=4, char_cnn_filters=2, word_cnn_filters=3,
        dropout=0.0, peepholes=True,
    )
    plain = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=16)
    peep = PatternScorer(small_vocab(), cfg_on, char_pad=4, seed=16)
    x = rows(np.random.default_rng(7), 5, SMALL.repr_dim)
    assert np.array_equal(plain.lstm_encode(x, [5]).data, peep.lstm_encode(x, [5]).data)

    peep.lstm_mu1.data[:] = 0.7
    peep.lstm_mu2.data[:] = -0.3
    changed = peep.lstm_encode(x, [5]).data
    expected = ref_lstm(
        runs(x, [5])[0],
        [t.data for t in peep.lstm_w],
        [t.data for t in peep.lstm_b],
        mu=(peep.lstm_mu1.data, peep.lstm_mu2.data),
    )
    assert not np.array_equal(changed, plain.lstm_encode(x, [5]).data)
    assert np.allclose(changed, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# word-level CNN


def ref_word_cnn(scorer, xs):
    cfg = scorer.config
    w, b = scorer.word_cnn_w.data, scorer.word_cnn_b.data[0]
    half = cfg.word_cnn_window // 2
    n = len(xs)
    best = None
    for j in range(n):
        parts = [
            xs[j + o][0] if 0 <= j + o < n else np.zeros(cfg.repr_dim)
            for o in range(-half, half + 1)
        ]
        resp = np.concatenate(parts) @ w + b
        best = resp if best is None else np.maximum(best, resp)
    return best


def test_word_cnn_single_window_for_length_one():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=17)
    z = np.random.default_rng(8).normal(size=(1, SMALL.repr_dim))
    window = np.concatenate([np.zeros(5), z[0], np.zeros(5)])
    expected = window @ scorer.word_cnn_w.data + scorer.word_cnn_b.data[0]
    got = scorer.word_cnn_encode(Tensor(z), [1]).data[0]
    assert np.allclose(got, expected, atol=1e-12)


def test_word_cnn_zero_filters_give_bias():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=18)
    scorer.word_cnn_w.data[:] = 0.0
    scorer.word_cnn_b.data[:] = [[1.0, 2.0, 3.0]]
    x = rows(np.random.default_rng(9), 4, SMALL.repr_dim)
    assert scorer.word_cnn_encode(x, [4]).data.tolist() == [[1.0, 2.0, 3.0]]
    assert scorer.word_cnn_encode(x, [1, 3]).data.tolist() == [[1.0, 2.0, 3.0]] * 2


def test_word_cnn_length_four_matches_hand_windows():
    cfg = ScorerConfig(
        word_dim=2, char_dim=2, lstm_hidden=3, char_cnn_filters=1, word_cnn_filters=1,
        dropout=0.0,
    )
    scorer = PatternScorer(small_vocab(), cfg, char_pad=3, seed=19)
    x = rows(np.random.default_rng(10), 7, cfg.repr_dim)
    for lengths in ([7], [4, 1, 2]):
        got = scorer.word_cnn_encode(x, lengths).data
        # windows stop at each run's edges instead of reading its neighbours
        for row, xs in zip(got, runs(x, lengths)):
            assert np.allclose(row, ref_word_cnn(scorer, xs), atol=1e-12)


# ---------------------------------------------------------------------------
# scoring


def ref_score(scorer, tokens, mask=None):
    """Plain-numpy forward of one sequence, built from the references above;
    `mask` holds the sequence's dropout multipliers, one row per token."""
    cfg = scorer.config
    xs = [
        np.concatenate([scorer.word_emb.data[scorer.vocab.word_id(t)], ref_char_cnn(scorer, t)])
        for t in tokens
    ]
    if mask is not None:
        xs = [x * m for x, m in zip(xs, mask)]
    xs = [x[None, :] for x in xs]
    mu = (scorer.lstm_mu1.data, scorer.lstm_mu2.data) if cfg.peepholes else None
    h = np.concatenate(
        [
            ref_lstm(xs, [t.data for t in scorer.lstm_w], [t.data for t in scorer.lstm_b], mu)[0],
            ref_word_cnn(scorer, xs),
        ]
    )
    return 1.0 / (1.0 + np.exp(-(h @ scorer.head_w.data[:, 0] + scorer.head_b.data[0, 0])))


PATTERN_WORDS = ["PER", "LOC", "ORG", "ab", "ba", "xy", "visited", "unseen"]
DROPPY = replace(SMALL, dropout=0.3, peepholes=True)


def droppy_scorer(seed):
    scorer = PatternScorer(small_vocab(), DROPPY, char_pad=SMALL_PAD, seed=seed)
    rng = np.random.default_rng(seed)
    scorer.lstm_mu1.data[:] = rng.normal(size=(1, DROPPY.lstm_hidden))
    scorer.lstm_mu2.data[:] = rng.normal(size=(1, DROPPY.lstm_hidden))
    return scorer


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.sampled_from(PATTERN_WORDS), min_size=1, max_size=8),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 3),
    st.data(),
)
def test_batched_scores_equal_the_reference_forward(lists, seed, data):
    scorer = droppy_scorer(seed)
    batched = scorer.score_batch(lists).data[:, 0]
    expected = [ref_score(scorer, tokens) for tokens in lists]
    assert np.allclose(batched, expected, rtol=0.0, atol=1e-12)
    single = [scorer.score_batch([tokens]).item() for tokens in lists]
    assert np.allclose(batched, single, rtol=0.0, atol=1e-12)
    perm = data.draw(st.permutations(range(len(lists))))
    permuted = scorer.score_batch([lists[i] for i in perm]).data[:, 0]
    assert np.allclose(permuted, batched[perm], rtol=0.0, atol=1e-12)

    # train mode: one (n_tokens, repr_dim) draw of the scorer's dropout stream
    trained = droppy_scorer(seed).score_batch(lists, train=True).data[:, 0]
    n_tokens = sum(len(tokens) for tokens in lists)
    draw = np.random.default_rng([seed, DROPOUT_STREAM]).random((n_tokens, DROPPY.repr_dim))
    mask = (draw >= DROPPY.dropout) / (1.0 - DROPPY.dropout)
    starts = np.cumsum([0] + [len(tokens) for tokens in lists])
    expected = [
        ref_score(scorer, tokens, mask[a : a + len(tokens)])
        for tokens, a in zip(lists, starts)
    ]
    assert np.allclose(trained, expected, rtol=0.0, atol=1e-12)


def test_zero_head_scores_half_everywhere():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=20)
    scorer.head_w.data[:] = 0.0
    scorer.head_b.data[:] = 0.0
    for tokens in (["PER"], ["ab", "LOC", "ba"], ["?", "?", "?"]):
        assert scorer.score_batch([tokens]).item() == 0.5


def test_scores_are_strictly_inside_unit_interval():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=21)
    rng = np.random.default_rng(11)
    alphabet = ["PER", "LOC", "ORG", "MISC", "ab", "ba", "xy", "visited", ".", "odd"]
    batch = [
        list(rng.choice(alphabet, size=rng.integers(1, 5)))
        for _ in range(1000)
    ]
    for start in range(0, 1000, 100):
        scores = scorer.score_batch(batch[start : start + 100]).data
        assert scores.shape == (100, 1)
        assert np.all((0.0 < scores) & (scores < 1.0))


def test_identical_collapsed_sequences_share_a_score():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=22)
    tags = labels("B-PER", "O", "B-LOC")
    a = collapse(sentence(1, "John", "visited", "Paris"), tags)
    b = collapse(sentence(2, "John", "visited", "Paris"), tags)
    score_a = scorer.score_batch([collapsed_token_strings(a)]).data.tobytes()
    assert score_a == scorer.score_batch([collapsed_token_strings(b)]).data.tobytes()


def test_reversal_changes_the_score():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=23)
    tokens = ["PER", "visited", "LOC", "."]
    fwd, rev = scorer.score_batch([tokens, tokens[::-1]]).data[:, 0]
    assert abs(fwd - rev) > 1e-12


def test_eval_scoring_is_bit_exact_and_seed_reproducible():
    first = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=24)
    again = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=24)
    tokens = ["PER", "visited", "LOC"]
    one = first.score_batch([tokens]).data.tobytes()
    assert first.score_batch([tokens]).data.tobytes() == one
    assert again.score_batch([tokens]).data.tobytes() == one
    other = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=25)
    assert other.score_batch([tokens]).data.tobytes() != one


def test_batch_scoring_agrees_with_single_scoring():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=26)
    lists = [["PER", "visited"], ["ab", "ba", "xy"], ["LOC"]]
    batched = scorer.score_batch(lists).data[:, 0].tolist()
    single = [scorer.score_batch([t]).item() for t in lists]
    assert batched == pytest.approx(single, abs=1e-12)


def test_head_dimension_follows_enabled_components():
    assert SMALL.head_dim == SMALL.lstm_hidden + SMALL.word_cnn_filters
    lstm_only = ScorerConfig(use_word_cnn=False)
    assert lstm_only.head_dim == 100
    cnn_only = ScorerConfig(use_lstm=False)
    assert cnn_only.head_dim == 100
    assert ScorerConfig().head_dim == 200
    with pytest.raises(ConfigError):
        ScorerConfig(use_lstm=False, use_word_cnn=False)


def save_scorer(path, scorer):
    config = TrainConfig(scorer=scorer.config)
    save_bundle(path, RerankerBundle(scorer=scorer, alpha=0.5, config=config, history=[]))


def test_checkpoint_rejects_other_architectures(tmp_path):
    full = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=27)
    save_scorer(tmp_path / "full", full)

    lstm_only = replace(SMALL, use_word_cnn=False)
    wider = replace(SMALL, word_cnn_filters=5)
    for name, cfg in (("lstm_only", lstm_only), ("wider", wider)):
        other = PatternScorer(small_vocab(), cfg, char_pad=SMALL_PAD, seed=27)
        save_scorer(tmp_path / name, other)
        shutil.copy(tmp_path / "full" / "weights.bin", tmp_path / name / "weights.bin")
        with pytest.raises(CheckpointMismatchError, match=name):
            load_bundle(tmp_path / name)

    same = load_bundle(tmp_path / "full").scorer
    tokens = ["PER", "visited"]
    assert same.score_batch([tokens]).item() == full.score_batch([tokens]).item()


def test_full_model_gradients_match_finite_differences():
    cfg = ScorerConfig(
        word_dim=3, char_dim=2, lstm_hidden=3, char_cnn_filters=2, word_cnn_filters=2,
        dropout=0.0, peepholes=True,
    )
    scorer = PatternScorer(small_vocab(), cfg, char_pad=3, seed=28)
    scorer.lstm_mu1.data[:] = [[0.5, -0.4, 0.3]]
    scorer.lstm_mu2.data[:] = [[-0.2, 0.6, 0.1]]
    # lengths 1, 2 and 5: the short runs carry their state through steps 2-5
    lists = [["PER"], ["ab", "LOC"], ["xy", "PER", "ab", "visited", "LOC"]]
    target = Tensor(np.array([[0.3], [0.6], [0.1]]))

    def loss():
        diff = scorer.score_batch(lists) - target
        return sum_all(diff * diff)

    report = grad_check(loss, scorer.params)
    assert report.ok(1e-4), str(report)


def test_empty_sequences_cannot_be_scored():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=29)
    for lists in ([[]], [], [["PER"], []]):
        with pytest.raises(NerrankError, match="empty sequence"):
            scorer.score_batch(lists)


def test_frozen_embeddings_leave_the_optimizer_list():
    cfg = ScorerConfig(
        word_dim=3, char_dim=2, lstm_hidden=4, char_cnn_filters=2, word_cnn_filters=3,
        dropout=0.0, freeze_embeddings=True,
    )
    frozen = PatternScorer(small_vocab(), cfg, char_pad=4, seed=30)
    names = [n for n, _ in frozen.trainable()]
    assert "word_emb" not in names
    assert "char_emb" in names

    default = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=30)
    assert "word_emb" in [n for n, _ in default.trainable()]


def test_training_mode_dropout_changes_scores_but_respects_seed():
    cfg = ScorerConfig(
        word_dim=3, char_dim=2, lstm_hidden=4, char_cnn_filters=2, word_cnn_filters=3,
        dropout=0.5,
    )
    a = PatternScorer(small_vocab(), cfg, char_pad=4, seed=31)
    b = PatternScorer(small_vocab(), cfg, char_pad=4, seed=31)
    tokens = ["PER", "visited", "LOC"]
    eval_score = a.score_batch([tokens]).item()
    train_a = a.score_batch([tokens], train=True).item()
    train_b = b.score_batch([tokens], train=True).item()
    assert train_a == train_b  # same dropout stream
    assert train_a != eval_score


def test_default_configuration_sizes_are_pinned():
    cfg = ScorerConfig()
    assert (cfg.word_dim, cfg.char_dim) == (50, 50)
    assert (cfg.lstm_hidden, cfg.char_cnn_filters, cfg.word_cnn_filters) == (100, 50, 100)
    assert (cfg.char_cnn_window, cfg.word_cnn_window) == (3, 3)
    assert cfg.dropout == 0.2
    assert cfg.peepholes is False
    assert cfg.repr_dim == 100
    v = small_vocab()
    scorer = PatternScorer(v, ScorerConfig(), char_pad=8, seed=32)
    assert scorer.word_emb.data.shape == (v.num_words, 50)
    assert scorer.char_cnn_w.data.shape == (150, 50)
    assert scorer.word_cnn_w.data.shape == (300, 100)
    assert scorer.head_w.data.shape == (200, 1)
    assert [t.data.shape for t in scorer.lstm_w] == [
        (100, 100), (100, 100), (100, 100), (100, 100),
        (100, 100), (100, 100), (100, 100), (100, 100),
    ]


def test_gradients_flow_into_embeddings_through_score():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=33)
    scorer.params.zero_grad()
    backward(scorer.score_batch([["ab", "PER"]]))
    touched = scorer.word_emb.grad
    assert touched is not None
    assert np.any(touched[scorer.vocab.word_id("ab")] != 0.0)
    assert np.all(touched[scorer.vocab.word_id("xy")] == 0.0)
