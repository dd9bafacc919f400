"""The neural pattern scorer.

Architecture, per collapsed candidate sequence: every item string gets a word
representation (embedding, optionally concatenated with a character-CNN
vector); a left-to-right LSTM reads the representations and its last hidden
state is concatenated with a max-pooled word-level CNN vector; a single
sigmoid unit maps the result to a score in (0, 1).

All activations are matrices with one row per item, so every affine map is
``x @ W + b`` with W shaped (inputs, outputs).  A minibatch of sequences is
scored in one pass: their items are laid end to end as the rows of one
(n_items, repr_dim) matrix, read as runs of the sequences' lengths.  Both
CNNs are the same conv-pool: each row's window of neighbours within its run
(zero vectors beyond the run's edges) is gathered into one row, multiplied
by the filters in one matmul and max-pooled over time per run.  The
character CNN sees each word as a run of ``char_pad`` characters (padded
with <pad_char>), the word CNN each sequence as a run of item
representations.  The LSTM is the standard cell

    i = sigmoid(h W1 + x W2 + b1)        f = sigmoid(h W3 + x W4 + b2)
    m~ = tanh(h W5 + x W6 + b3)          M = i * m~ + f * M_prev
    o = sigmoid(h W7 + x W8 + b4)        h = tanh(M) * o

with h_0 = M_0 = 0; setting ``peepholes`` adds mu1 * M_prev and mu2 * M_prev
inside the input and forget gates.  All sequences of a batch step together
on one (B, lstm_hidden) state; a sequence that has ended carries its h and
M unchanged to the last step.
"""

from __future__ import annotations

import numpy as np

from ..config import ScorerConfig
from ..errors import ConfigError, NerrankError, ShapeMismatchError
from ..numerics import (
    ParamStore,
    Tensor,
    concat_cols,
    dropout,
    lookup_rows,
    matmul,
    max_pool_time,
    sigmoid,
    stack_rows,
    tanh,
)
from .embeddings import init_embeddings
from .vocab import CHAR_PAD_ID, Vocab

INIT_STREAM = 21
DROPOUT_STREAM = 22


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _runs(x: Tensor, lengths) -> np.ndarray:
    """Checked run lengths of the rows of x."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1:
        raise NerrankError("cannot encode an empty sequence")
    if lengths.sum() != x.shape[0]:
        raise ShapeMismatchError(f"runs of lengths {lengths.tolist()} over {x.shape}")
    return lengths


def _conv_pool(source: Tensor, ids, lengths, w: Tensor, b: Tensor) -> Tensor:
    """Max-pooled window responses of each run, shape (B, filters).

    Position p of the runs laid end to end reads row ``ids[p]`` of source;
    the response at p is [x_{p-half}, ..., x_{p+half}] @ w + b, with zero
    vectors beyond the edges of p's run (w has one block of rows per window
    position).  The windows are gathered from source under a zero row, so
    the whole batch shares one matmul.
    """
    ids = np.asarray(ids, dtype=np.intp)
    table = stack_rows([Tensor(np.zeros((1, source.shape[1]))), source])
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    ends = starts + np.repeat(lengths, lengths)
    half = w.shape[0] // source.shape[1] // 2
    cols = []
    for o in range(-half, half + 1):
        at = np.arange(len(ids)) + o
        inside = (at >= starts) & (at < ends)
        rows = np.where(inside, ids[np.clip(at, 0, len(ids) - 1)] + 1, 0)
        cols.append(lookup_rows(table, rows))
    return max_pool_time(matmul(concat_cols(cols), w) + b, lengths)


class PatternScorer:
    """Scores collapsed candidate sequences; owns its parameters and vocab."""

    def __init__(
        self,
        vocab: Vocab,
        config: ScorerConfig | None = None,
        *,
        char_pad: int = 32,
        seed: int = 0,
        pretrained: dict[str, np.ndarray] | None = None,
    ):
        self.vocab = vocab
        self.config = cfg = config if config is not None else ScorerConfig()
        if char_pad < 1:
            raise ConfigError(f"char_pad must be positive, got {char_pad}")
        self.char_pad = char_pad
        self.params = store = ParamStore()
        rng = np.random.default_rng([seed, INIT_STREAM])
        self._drop_rng = np.random.default_rng([seed, DROPOUT_STREAM])

        self.word_emb = store.add(
            "word_emb", init_embeddings(vocab, cfg.word_dim, rng, pretrained)
        )
        if cfg.use_char_cnn:
            cbound = np.sqrt(3.0 / cfg.char_dim)
            self.char_emb = store.add(
                "char_emb",
                rng.uniform(-cbound, cbound, size=(vocab.num_chars, cfg.char_dim)),
            )
            self.char_cnn_w = store.add(
                "char_cnn_w",
                _glorot(rng, cfg.char_cnn_window * cfg.char_dim, cfg.char_cnn_filters),
            )
            self.char_cnn_b = store.add("char_cnn_b", np.zeros((1, cfg.char_cnn_filters)))
        if cfg.use_lstm:
            h, r = cfg.lstm_hidden, cfg.repr_dim
            self.lstm_w = [
                store.add(f"lstm_w{i}", _glorot(rng, h if i % 2 == 1 else r, h))
                for i in range(1, 9)
            ]
            self.lstm_b = [
                store.add(f"lstm_b{i}", np.zeros((1, h))) for i in range(1, 5)
            ]
            if cfg.peepholes:
                self.lstm_mu1 = store.add("lstm_mu1", np.zeros((1, h)))
                self.lstm_mu2 = store.add("lstm_mu2", np.zeros((1, h)))
        if cfg.use_word_cnn:
            self.word_cnn_w = store.add(
                "word_cnn_w",
                _glorot(rng, cfg.word_cnn_window * cfg.repr_dim, cfg.word_cnn_filters),
            )
            self.word_cnn_b = store.add("word_cnn_b", np.zeros((1, cfg.word_cnn_filters)))
        self.head_w = store.add("head_w", _glorot(rng, cfg.head_dim, 1))
        self.head_b = store.add("head_b", np.zeros((1, 1)))

    # -- word-level representations -------------------------------------

    def _char_ids(self, word: str) -> list[int]:
        ids = [self.vocab.char_id(c) for c in word[: self.char_pad]]
        return ids + [CHAR_PAD_ID] * (self.char_pad - len(ids))

    def word_matrix(self, words: list[str]) -> Tensor:
        """Pre-dropout representations of the given words, one row each."""
        emb = lookup_rows(self.word_emb, [self.vocab.word_id(w) for w in words])
        if not self.config.use_char_cnn:
            return emb
        chars = _conv_pool(
            self.char_emb,
            [i for w in words for i in self._char_ids(w)],
            np.full(len(words), self.char_pad),
            self.char_cnn_w,
            self.char_cnn_b,
        )
        return concat_cols([emb, chars])

    # -- sequence encoders ----------------------------------------------

    def lstm_encode(self, x: Tensor, lengths) -> Tensor:
        """Final hidden state of each run of rows read top to bottom,
        shape (B, lstm_hidden).

        The input projections x W2, x W4, x W6, x W8 are one matmul each over
        all rows; step t gathers row t of every run (a run's last row once it
        has ended, whose result 0/1 multipliers then discard exactly).
        """
        lengths = _runs(x, lengths)
        cfg = self.config
        w1, w2, w3, w4, w5, w6, w7, w8 = self.lstm_w
        b1, b2, b3, b4 = self.lstm_b
        x_i, x_f, x_m, x_o = (matmul(x, w) for w in (w2, w4, w6, w8))
        starts = np.cumsum(lengths) - lengths
        h = m = Tensor(np.zeros((len(lengths), cfg.lstm_hidden)))
        for t in range(lengths.max()):
            at = starts + np.minimum(t, lengths - 1)
            gate_i = matmul(h, w1) + lookup_rows(x_i, at) + b1
            gate_f = matmul(h, w3) + lookup_rows(x_f, at) + b2
            if cfg.peepholes:
                gate_i = gate_i + self.lstm_mu1 * m
                gate_f = gate_f + self.lstm_mu2 * m
            i = sigmoid(gate_i)
            f = sigmoid(gate_f)
            cand = tanh(matmul(h, w5) + lookup_rows(x_m, at) + b3)
            m_next = i * cand + f * m
            o = sigmoid(matmul(h, w7) + lookup_rows(x_o, at) + b4)
            h_next = tanh(m_next) * o
            live = (lengths > t)[:, None].astype(np.float64)
            if live.all():
                h, m = h_next, m_next
            else:
                keep, carry = Tensor(live), Tensor(1.0 - live)
                h = keep * h_next + carry * h
                m = keep * m_next + carry * m
        return h

    def word_cnn_encode(self, x: Tensor, lengths) -> Tensor:
        """Max-pooled window responses over each run of rows, shape
        (B, word_cnn_filters)."""
        lengths = _runs(x, lengths)
        return _conv_pool(x, np.arange(x.shape[0]), lengths, self.word_cnn_w, self.word_cnn_b)

    # -- scoring ---------------------------------------------------------

    def score_batch(self, token_lists: list[list[str]], *, train: bool = False) -> Tensor:
        """Scores of several token sequences, one row each, shape (B, 1).

        Each distinct word in the batch is represented once; the sequences'
        tokens gather their rows from that table end to end, and dropout
        masks that whole matrix in one draw, so batching changes cost but
        not the computation each sequence sees.
        """
        cfg = self.config
        lengths = [len(tokens) for tokens in token_lists]
        if not lengths or min(lengths) == 0:
            raise NerrankError("cannot score an empty sequence")
        unique = sorted({t for tokens in token_lists for t in tokens})
        row_of = {w: i for i, w in enumerate(unique)}
        x = lookup_rows(
            self.word_matrix(unique), [row_of[t] for tokens in token_lists for t in tokens]
        )
        x = dropout(x, cfg.dropout, self._drop_rng, train)
        parts = []
        if cfg.use_lstm:
            parts.append(self.lstm_encode(x, lengths))
        if cfg.use_word_cnn:
            parts.append(self.word_cnn_encode(x, lengths))
        h = parts[0] if len(parts) == 1 else concat_cols(parts)
        return sigmoid(matmul(h, self.head_w) + self.head_b)

    def trainable(self):
        """(name, tensor) pairs the optimizer should update."""
        frozen = {"word_emb"} if self.config.freeze_embeddings else set()
        return [(n, t) for n, t in self.params.items() if n not in frozen]
