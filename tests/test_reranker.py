"""Tests for the vocabulary, embedding files, the initial draw, and the neural pattern scorer."""

import math
import re
import shutil
import tracemalloc
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
from nerrank.numerics import Tensor, backward, mse, no_tape
from nerrank.pipeline import RerankExample, RerankerBundle, batch_loss, load_bundle, save_bundle
from nerrank.reranker import (
    CHAR_PAD_ID,
    CHAR_UNK_ID,
    PatternScorer,
    Vocab,
    WORD_UNK_ID,
    build_vocab,
    parse_embeddings,
)
from nerrank.reranker.model import DROPOUT_STREAM, INIT_STREAM, scorer_layout
from gradcheck import grad_check, weighted_sum

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
    non_reserved = a.words[6:]
    assert list(non_reserved) == sorted(non_reserved)


def test_vocab_list_roundtrip():
    v = small_vocab()
    assert list(v.word_to_id.values()) == list(range(len(v.words)))
    assert list(v.char_to_id.values()) == list(range(len(v.chars)))
    assert Vocab(tuple(v.word_to_id), tuple(v.char_to_id)) == v


def test_vocab_rejects_broken_reserved_prefix():
    v = small_vocab()
    with pytest.raises(ConfigError, match="'<unk>' to id 0"):
        Vocab(("<pad>", "<unk>") + v.words[2:], v.chars)
    with pytest.raises(ConfigError, match="'PER' to id 2"):
        Vocab(("<unk>", "<pad>"), v.chars)  # no type tokens
    with pytest.raises(ConfigError, match="duplicates"):
        Vocab(v.words + v.words[-1:], v.chars)
    with pytest.raises(ConfigError, match="duplicates"):
        Vocab(v.words, v.chars + ("<unk_char>",))


# ---------------------------------------------------------------------------
# embeddings


def word_table(vocab, dim, seed, pretrained=None):
    """The initial word_emb table of a SMALL scorer with `dim`-wide words."""
    scorer = PatternScorer(vocab, replace(SMALL, word_dim=dim), char_pad=SMALL_PAD, seed=seed, pretrained=pretrained)
    return scorer.params["word_emb"].data


def test_oov_rows_stay_inside_bound():
    v = small_vocab()
    table = word_table(v, 50, seed=0)
    bound = math.sqrt(3.0 / 50)
    assert abs(bound - 0.2449) < 1e-4
    assert table.shape == (len(v.words), 50)
    assert np.all(np.abs(table) < bound)


def test_pretrained_tokens_copied_exactly():
    v = small_vocab()
    vec = np.arange(4.0)
    table = word_table(v, 4, seed=1, pretrained={"ab": vec, "PER": -vec})
    assert np.array_equal(table[v.word_id("ab")], vec)
    assert np.array_equal(table[v.word_id("PER")], -vec)
    assert np.all(np.abs(table[v.word_id("ba")]) < math.sqrt(3.0 / 4))


def test_empty_pretrained_means_all_random():
    v = small_vocab()
    cfg = replace(SMALL, word_dim=8)
    a = PatternScorer(v, cfg, char_pad=SMALL_PAD, seed=2, pretrained={})
    b = PatternScorer(v, cfg, char_pad=SMALL_PAD, seed=2)
    assert list(a.params) == list(b.params)
    assert all(np.array_equal(a.params[n].data, t.data) for n, t in b.params.items())


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
    x = scorer.params["char_emb"].data[ids]
    w, b = scorer.params["char_cnn_w"].data, scorer.params["char_cnn_b"].data[0]
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
    scorer.params["char_cnn_w"].data[:] = 0.0
    scorer.params["char_cnn_b"].data[:] = [[0.25, -1.5]]
    assert char_vectors(scorer, ["ab", "", "zzz"]).tolist() == [[0.25, -1.5]] * 3


def test_char_cnn_single_filter_picks_max_coordinate():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=4)
    # one live filter reading coordinate 0 of the window's center character
    scorer.params["char_cnn_w"].data[:] = 0.0
    scorer.params["char_cnn_b"].data[:] = 0.0
    scorer.params["char_cnn_w"].data[scorer.config.char_dim + 0, 0] = 1.0
    word = "ab"
    ids = [scorer.vocab.char_id(c) for c in word] + [CHAR_PAD_ID] * 2
    expected = max(scorer.params["char_emb"].data[i][0] for i in ids)
    got = char_vectors(scorer, [word])[0]
    assert got[0] == pytest.approx(expected, abs=1e-12)
    assert got[1] == 0.0


def test_char_cnn_ignores_text_beyond_pad_length():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=5)
    a, b = char_vectors(scorer, ["abba", "abbaXYZ"])
    assert np.array_equal(a, b)


def test_empty_word_uses_pure_padding():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=6)
    pad_only = scorer.params["char_emb"].data[[CHAR_PAD_ID] * scorer.char_pad]
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
        [scorer.params["word_emb"].data[scorer.vocab.word_id("ab")], ref_char_cnn(scorer, "ab")]
    )
    assert np.allclose(got, expected, atol=1e-12)


def test_type_token_item_uses_reserved_embedding_row():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=8)
    sent = sentence(1, "John", "ran")
    collapsed = collapse(sent, labels("B-PER", "O"))
    per_item = collapsed.items[0]
    assert per_item.is_type_token
    got = scorer.word_matrix([per_item.token_string()]).data[0][: scorer.config.word_dim]
    assert np.array_equal(got, scorer.params["word_emb"].data[2])  # reserved PER row


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
    expected = 1.0 / (1.0 + np.exp(-(h @ scorer.params["head_w"].data + scorer.params["head_b"].data)))
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
    assert np.array_equal(row[0], scorer.params["word_emb"].data[scorer.vocab.word_id("ab")])
    assert "char_emb" not in dict(scorer.params.items())


# ---------------------------------------------------------------------------
# LSTM encoder


def gate_weights(scorer):
    """The LSTM's W1..W8 Tensors, in the order of the gate equations."""
    return [scorer.params[f"lstm_w{i}"] for i in range(1, 9)]


def gate_biases(scorer):
    """The LSTM's b1..b4 Tensors."""
    return [scorer.params[f"lstm_b{i}"] for i in range(1, 5)]


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
    for t in gate_weights(scorer) + gate_biases(scorer):
        t.data[:] = 0.0
    x = rows(np.random.default_rng(0), 6, SMALL.repr_dim)
    assert np.array_equal(scorer.lstm_encode(x, [6]).data, np.zeros((1, 4)))
    assert np.array_equal(scorer.lstm_encode(x, [2, 4]).data, np.zeros((2, 4)))


def test_lstm_single_step_closed_form():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=12)
    for t in gate_weights(scorer) + gate_biases(scorer):
        t.data[:] = 0.0
    scorer.params["lstm_b3"].data[:] = 3.0  # candidate-memory bias
    x = Tensor(np.zeros((1, SMALL.repr_dim)))
    expected = np.tanh(np.tanh(3.0) * 0.5) * 0.5
    assert np.allclose(scorer.lstm_encode(x, [1]).data, expected, atol=1e-12)


def test_lstm_matches_reference_equations():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=13)
    rng = np.random.default_rng(5)
    for t in gate_weights(scorer) + gate_biases(scorer):
        t.data[:] = rng.normal(scale=0.5, size=t.data.shape)
    w = [t.data for t in gate_weights(scorer)]
    b = [t.data for t in gate_biases(scorer)]
    x = rows(rng, 7, SMALL.repr_dim)
    assert np.allclose(scorer.lstm_encode(x, [7]).data, ref_lstm(runs(x, [7])[0], w, b), atol=1e-12)
    # runs that end early are read at their own last step
    lengths = [3, 1, 2, 1]
    got = scorer.lstm_encode(x, lengths).data
    for row, xs in zip(got, runs(x, lengths)):
        assert np.allclose(row, ref_lstm(xs, w, b)[0], atol=1e-12)


def test_lstm_five_step_gradients():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=14)
    x = rows(np.random.default_rng(6), 5, SMALL.repr_dim)
    params = [(n, t) for n, t in scorer.params.items() if n.startswith("lstm_")]
    report = grad_check(lambda: mse(scorer.lstm_encode(x, [5]), np.ones((1, 4))), params)
    assert report.ok(1e-4), str(report)


def graph_size(root) -> tuple[int, int]:
    """(op nodes, leaves) of the autodiff graph that ends in `root`."""
    seen, stack, ops = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += bool(node._parents)
            stack.extend(node._parents)
    return ops, len(seen) - ops


def test_ragged_runs_cost_no_extra_graph_nodes():
    # the recurrence and each conv-pool are one node each, so the graph
    # does not grow with the number, length or raggedness of the word runs
    # (sequences) or of the character runs (words, short, long or cut at
    # char_pad): eight op nodes over the twenty parameters
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=17)
    words = ["ab", "ba", "xy", "visited"]
    long = (words * 8)[:30]
    chars = [".", "ab", "visited", "unseenword", "PER", "x"]
    sizes = [
        graph_size(scorer.score_batch(lists))
        for lists in (
            [words[:3]], [long], [long, words[:3]], [words, words[:1], words[:2]],
            [["."]], [chars], [chars[::-1], chars[2:4], ["."]],
        )
    ]
    assert sizes == [(8, 20)] * len(sizes)


def test_training_batch_graph_has_one_node_per_layer():
    """An acceptance-size training batch (64 examples of 1-6 tokens, the
    acceptance test's scorer with dropout, l2 on) builds 12 op nodes over
    its 20 parameters: word lookup, char conv-pool, concat, token gather,
    dropout, LSTM, word conv-pool, concat and head, then mse, l2 penalty
    and add in the loss."""
    rng = np.random.default_rng(0)
    words = ["Rome", "is", "far", "a", "visited", "Paris", "."]
    examples = []
    for i, n in enumerate(rng.integers(1, 7, size=64)):
        tokens = [str(w) for w in rng.choice(words, size=n)]
        seq = collapse(sentence(i, *tokens), labels(*["O"] * n))
        examples.append(RerankExample(collapsed=seq, target=float(rng.random())))
    config = ScorerConfig(
        word_dim=16, char_dim=8, lstm_hidden=16, char_cnn_filters=8, word_cnn_filters=16,
        dropout=0.1,
    )
    scorer = PatternScorer(build_vocab([ex.tokens for ex in examples]), config, char_pad=8, seed=0)
    assert graph_size(batch_loss(scorer, examples, 1e-4)) == (12, 20)


def test_clamped_steps_carry_no_gradient():
    """The gradients of the batch [long, short] are the sums of each run's
    gradients scored alone: the steps the short run takes on its clamped
    last row after it has ended add exactly nothing."""
    cfg = replace(SMALL, peepholes=True)
    scorer = PatternScorer(small_vocab(), cfg, char_pad=SMALL_PAD, seed=19)
    rng = np.random.default_rng(8)
    scorer.params["lstm_mu1"].data[:] = rng.normal(size=(1, cfg.lstm_hidden))
    scorer.params["lstm_mu2"].data[:] = rng.normal(size=(1, cfg.lstm_hidden))
    params = [t for n, t in scorer.params.items() if n.startswith("lstm_")]
    x = rng.normal(size=(7, cfg.repr_dim))
    readout = rng.normal(size=(2, cfg.lstm_hidden))

    def grads(rows, lengths, weights):
        for t in params:
            t.grad = None
        inputs = Tensor(rows)
        backward(weighted_sum(scorer.lstm_encode(inputs, lengths), weights))
        return [t.grad.copy() for t in params], inputs.grad

    batch, batch_x = grads(x, [5, 2], readout)
    long, long_x = grads(x[:5], [5], readout[:1])
    short, short_x = grads(x[5:], [2], readout[1:])
    for got, a, b in zip(batch, long, short):
        assert np.allclose(got, a + b, rtol=0.0, atol=1e-12)
    assert np.allclose(batch_x, np.concatenate([long_x, short_x]), rtol=0.0, atol=1e-12)


def test_lstm_ragged_gradients_with_peepholes_and_narrow_state():
    # lstm_hidden 2 below repr_dim 5; the input rows are checked too
    cfg = replace(SMALL, lstm_hidden=2, peepholes=True)
    scorer = PatternScorer(small_vocab(), cfg, char_pad=SMALL_PAD, seed=20)
    rng = np.random.default_rng(9)
    scorer.params["lstm_mu1"].data[:] = rng.normal(size=(1, 2))
    scorer.params["lstm_mu2"].data[:] = rng.normal(size=(1, 2))
    x = Tensor(rng.normal(size=(7, cfg.repr_dim)))
    readout = rng.normal(size=(3, 2))
    params = [(n, t) for n, t in scorer.params.items() if n.startswith("lstm_")]

    def loss():
        return mse(scorer.lstm_encode(x, [4, 1, 2]), readout)

    report = grad_check(loss, params + [("x", x)])
    assert report.ok(1e-6), str(report)


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

    peep.params["lstm_mu1"].data[:] = 0.7
    peep.params["lstm_mu2"].data[:] = -0.3
    changed = peep.lstm_encode(x, [5]).data
    expected = ref_lstm(
        runs(x, [5])[0],
        [t.data for t in gate_weights(peep)],
        [t.data for t in gate_biases(peep)],
        mu=(peep.params["lstm_mu1"].data, peep.params["lstm_mu2"].data),
    )
    assert not np.array_equal(changed, plain.lstm_encode(x, [5]).data)
    assert np.allclose(changed, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# word-level CNN


def ref_word_cnn(scorer, xs):
    cfg = scorer.config
    w, b = scorer.params["word_cnn_w"].data, scorer.params["word_cnn_b"].data[0]
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
    expected = window @ scorer.params["word_cnn_w"].data + scorer.params["word_cnn_b"].data[0]
    got = scorer.word_cnn_encode(Tensor(z), [1]).data[0]
    assert np.allclose(got, expected, atol=1e-12)


def test_word_cnn_zero_filters_give_bias():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=18)
    scorer.params["word_cnn_w"].data[:] = 0.0
    scorer.params["word_cnn_b"].data[:] = [[1.0, 2.0, 3.0]]
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
        np.concatenate([scorer.params["word_emb"].data[scorer.vocab.word_id(t)], ref_char_cnn(scorer, t)])
        for t in tokens
    ]
    if mask is not None:
        xs = [x * m for x, m in zip(xs, mask)]
    xs = [x[None, :] for x in xs]
    mu = (scorer.params["lstm_mu1"].data, scorer.params["lstm_mu2"].data) if cfg.peepholes else None
    h = np.concatenate(
        [
            ref_lstm(
                xs, [t.data for t in gate_weights(scorer)], [t.data for t in gate_biases(scorer)], mu
            )[0],
            ref_word_cnn(scorer, xs),
        ]
    )
    return 1.0 / (1.0 + np.exp(-(h @ scorer.params["head_w"].data[:, 0] + scorer.params["head_b"].data[0, 0])))


PATTERN_WORDS = ["PER", "LOC", "ORG", "ab", "ba", "xy", "visited", "unseen"]
DROPPY = replace(SMALL, dropout=0.3, peepholes=True)


def droppy_scorer(seed):
    scorer = PatternScorer(small_vocab(), DROPPY, char_pad=SMALL_PAD, seed=seed)
    rng = np.random.default_rng(seed)
    scorer.params["lstm_mu1"].data[:] = rng.normal(size=(1, DROPPY.lstm_hidden))
    scorer.params["lstm_mu2"].data[:] = rng.normal(size=(1, DROPPY.lstm_hidden))
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
    scorer.params["head_w"].data[:] = 0.0
    scorer.params["head_b"].data[:] = 0.0
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


def test_no_tape_scores_equal_recorded_scores_bit_for_bit():
    """Scoring under no_tape records no graph and changes no bit: ragged
    batches with a one-item run, a run of the batch's longest length and
    repeated words, for the default scorer and a peephole scorer with
    dropout 0.1."""
    peephole = replace(ScorerConfig(), peepholes=True, dropout=0.1)
    batches = [
        [["PER"], ["ab", "ba", "ab", "visited", "LOC", "ab"], ["xy", "xy", "."]],
        [["ab", "ab", "ab", "ab"], ["LOC", "visited", "PER", "visited"], ["."]],
        [["visited"]],
    ]
    for cfg in (ScorerConfig(), peephole):
        scorer = PatternScorer(small_vocab(), cfg, char_pad=8, seed=34)
        if cfg.peepholes:
            rng = np.random.default_rng(34)
            scorer.params["lstm_mu1"].data[:] = rng.normal(size=(1, cfg.lstm_hidden))
            scorer.params["lstm_mu2"].data[:] = rng.normal(size=(1, cfg.lstm_hidden))
        for lists in batches:
            recorded = scorer.score_batch(lists)
            with no_tape():
                free = scorer.score_batch(lists)
            assert free.data.tobytes() == recorded.data.tobytes()
            assert free._parents == () and free._backward is None
        assert scorer.score_batch(batches[0])._parents  # recording resumes


def test_no_tape_scoring_keeps_no_step_history():
    """Eight runs of 300 items at default sizes. A recorded pass still
    holds the LSTM's (steps, 4, B, h) gates and (steps + 1, B, h) states
    while the word CNN runs; under no_tape the LSTM holds one step's gates
    and state, and each layer's intermediates go when it returns. The
    no_tape peak is about 0.46 of the recorded one, and about 0.69 when the
    LSTM still allocates its gate history."""
    rng = np.random.default_rng(35)
    words = ["PER", "LOC", "ab", "ba", "xy", "visited", "."]
    lists = [[str(w) for w in rng.choice(words, size=300)] for _ in range(8)]
    scorer = PatternScorer(small_vocab(), ScorerConfig(), char_pad=8, seed=35)

    def peak(score):
        tracemalloc.start()
        try:
            score()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def free():
        with no_tape():
            scorer.score_batch(lists)

    recorded = peak(lambda: scorer.score_batch(lists))
    assert peak(free) < 0.6 * recorded


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


def saved_weights(scorer):
    return {name: t.data.copy() for name, t in scorer.params.items()}


def test_scorer_params_follow_the_layout():
    for cfg in (SMALL, replace(SMALL, peepholes=True), replace(SMALL, use_char_cnn=False)):
        scorer = PatternScorer(small_vocab(), cfg, char_pad=SMALL_PAD, seed=0)
        layout = scorer_layout(small_vocab(), cfg)
        assert list(scorer.params) == list(layout)
        assert [t.data.shape for t in scorer.params.values()] == [s for s, _ in layout.values()]
        assert all(t.grad is None for t in scorer.params.values())
        for (shape, bound), t in zip(layout.values(), scorer.params.values()):
            assert np.abs(t.data).max() <= bound
    assert "lstm_mu1" not in scorer_layout(small_vocab(), SMALL)


def reference_draw(vocab, cfg, seed, pretrained=None):
    """The initial weights by the draw rule: one uniform within its bound
    per layout entry, in layout order, from the seed's INIT_STREAM; a
    zero bound gives zeros and draws nothing; then each pretrained vector
    of a vocabulary token replaces its word_emb row."""
    rng = np.random.default_rng([seed, INIT_STREAM])
    arrays = {}
    for name, (shape, bound) in scorer_layout(vocab, cfg).items():
        arrays[name] = rng.uniform(-bound, bound, size=shape) if bound else np.zeros(shape)
    for token, vec in (pretrained or {}).items():
        if token in vocab.word_to_id:
            arrays["word_emb"][vocab.word_to_id[token]] = vec
    return arrays


DRAW_CASES = {
    "default": (ScorerConfig(), None),
    "peepholes": (ScorerConfig(peepholes=True), None),
    "no-char-cnn": (ScorerConfig(use_char_cnn=False), None),
    "no-lstm": (ScorerConfig(use_lstm=False), None),
    "no-word-cnn": (ScorerConfig(use_word_cnn=False), None),
    # a token outside the vocabulary is not copied anywhere
    "pretrained": (ScorerConfig(), {"ab": np.arange(50) / 7.0, "PER": -np.ones(50), "zz": np.ones(50)}),
    "small-frozen": (replace(SMALL, freeze_embeddings=True), None),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("case", list(DRAW_CASES))
def test_initial_weights_follow_the_draw_rule(case, seed):
    cfg, pretrained = DRAW_CASES[case]
    v = small_vocab()
    scorer = PatternScorer(v, cfg, char_pad=SMALL_PAD, seed=seed, pretrained=pretrained)
    expected = reference_draw(v, cfg, seed, pretrained)
    assert list(scorer.params) == list(expected)
    for name, array in expected.items():
        assert scorer.params[name].data.tobytes() == array.tobytes(), name


def test_scorer_uses_the_given_weights_without_a_copy():
    weights = saved_weights(PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=1))
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=2, weights=weights)
    assert all(scorer.params[name].data is array for name, array in weights.items())


def test_scorer_weights_must_match_the_layout():
    weights = saved_weights(PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=3))

    def build(arrays):
        return PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=3, weights=arrays)

    missing = {n: a for n, a in weights.items() if n != "head_b"}
    with pytest.raises(
        CheckpointMismatchError, match=re.escape("parameter names differ (missing ['head_b'], extra [])")
    ):
        build(missing)
    with pytest.raises(
        CheckpointMismatchError, match=re.escape("parameter names differ (missing [], extra ['head_v'])")
    ):
        build({**weights, "head_v": weights["head_w"]})
    with pytest.raises(
        CheckpointMismatchError,
        match=re.escape("parameter 'word_cnn_w': shape (14, 3) vs expected (15, 3)"),
    ):
        build({**weights, "word_cnn_w": weights["word_cnn_w"][:-1]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scorer_weights_must_be_finite(bad):
    weights = saved_weights(PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=4))
    weights["head_w"].flat[-1] = bad
    with pytest.raises(CheckpointMismatchError, match="parameter 'head_w' holds a non-finite value"):
        PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=4, weights=weights)


def test_full_model_gradients_match_finite_differences():
    cfg = ScorerConfig(
        word_dim=3, char_dim=2, lstm_hidden=3, char_cnn_filters=2, word_cnn_filters=2,
        dropout=0.0, peepholes=True,
    )
    scorer = PatternScorer(small_vocab(), cfg, char_pad=3, seed=28)
    scorer.params["lstm_mu1"].data[:] = [[0.5, -0.4, 0.3]]
    scorer.params["lstm_mu2"].data[:] = [[-0.2, 0.6, 0.1]]
    # lengths 1, 2 and 5: the short runs carry their state through steps 2-5
    lists = [["PER"], ["ab", "LOC"], ["xy", "PER", "ab", "visited", "LOC"]]
    target = np.array([[0.3], [0.6], [0.1]])

    def loss():
        return mse(scorer.score_batch(lists), target)

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
    assert scorer.params["word_emb"].data.shape == (len(v.words), 50)
    assert scorer.params["char_cnn_w"].data.shape == (150, 50)
    assert scorer.params["word_cnn_w"].data.shape == (300, 100)
    assert scorer.params["head_w"].data.shape == (200, 1)
    assert [t.data.shape for t in gate_weights(scorer)] == [
        (100, 100), (100, 100), (100, 100), (100, 100),
        (100, 100), (100, 100), (100, 100), (100, 100),
    ]


def test_gradients_flow_into_embeddings_through_score():
    scorer = PatternScorer(small_vocab(), SMALL, char_pad=SMALL_PAD, seed=33)
    backward(scorer.score_batch([["ab", "PER"]]))
    touched = scorer.params["word_emb"].grad
    assert touched is not None
    assert np.any(touched[scorer.vocab.word_id("ab")] != 0.0)
    assert np.all(touched[scorer.vocab.word_id("xy")] == 0.0)
