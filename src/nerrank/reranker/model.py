"""The neural pattern scorer.

Architecture, per collapsed candidate sequence: every item string gets a word
representation (embedding, optionally concatenated with a character-CNN
vector); a left-to-right LSTM reads the representations and its last hidden
state is concatenated with a max-pooled word-level CNN vector; a single
sigmoid unit maps the result to a score in (0, 1).

All activations are matrices with one row per item, so every affine map is
``x @ W + b`` with W shaped (inputs, outputs).  A minibatch of sequences is
scored in one pass: their items are laid end to end as the rows of one
(n_items, repr_dim) matrix, read as runs of the sequences' lengths.  Each
layer is one autodiff node.  Both CNNs are one ``numerics.conv_pool``: each
row's window of neighbours within its run (zero vectors beyond the run's
edges) is gathered into one row, multiplied by the filters in one matmul
and max-pooled over time per run.  The character CNN sees each word as a
run of ``char_pad`` characters (padded with <pad_char>), the word CNN each
sequence as a run of item representations.  The LSTM is the standard cell

    i = sigmoid(h W1 + x W2 + b1)        f = sigmoid(h W3 + x W4 + b2)
    m~ = tanh(h W5 + x W6 + b3)          M = i * m~ + f * M_prev
    o = sigmoid(h W7 + x W8 + b4)        h = tanh(M) * o

with h_0 = M_0 = 0; setting ``peepholes`` adds mu1 * M_prev and mu2 * M_prev
inside the input and forget gates.  It is one ``numerics.lstm`` node,
which forms the input projections x W2, x W4, x W6, x W8 with one matmul
each over all rows, steps all sequences of a batch together on one
(B, lstm_hidden) state in plain numpy, reads each sequence's final state
at its own last step and backpropagates through time by hand.  The sigmoid
unit is one ``numerics.head`` node.  Evaluation scoring runs the same ops
under ``numerics.no_tape`` and records nothing: no node, no gate or state
history, no window matrix beyond its matmul.
"""

from __future__ import annotations

import numpy as np

from ..config import ScorerConfig
from ..errors import CheckpointMismatchError, ConfigError, NerrankError
from ..numerics import Tensor, concat, conv_pool, dropout, head, lookup_rows, lstm
from .vocab import CHAR_PAD_ID, Vocab

INIT_STREAM = 21
DROPOUT_STREAM = 22


def scorer_layout(vocab: Vocab, config: ScorerConfig) -> dict[str, tuple[tuple[int, ...], float]]:
    """The scorer's parameters in draw order: name -> (shape, bound of the
    uniform initial draw, 0.0 for zeros). The embedding tables' bound is
    sqrt(3 / dim), a weight matrix's the Glorot sqrt(6 / (fan_in +
    fan_out)); every word_emb row is drawn, reserved tokens' included,
    and a pretrained vector then replaces its token's row."""
    cfg = config

    def glorot(fan_in: int, fan_out: int):
        return (fan_in, fan_out), np.sqrt(6.0 / (fan_in + fan_out))

    layout = {"word_emb": ((len(vocab.words), cfg.word_dim), np.sqrt(3.0 / cfg.word_dim))}
    if cfg.use_char_cnn:
        layout["char_emb"] = ((len(vocab.chars), cfg.char_dim), np.sqrt(3.0 / cfg.char_dim))
        layout["char_cnn_w"] = glorot(cfg.char_cnn_window * cfg.char_dim, cfg.char_cnn_filters)
        layout["char_cnn_b"] = ((1, cfg.char_cnn_filters), 0.0)
    if cfg.use_lstm:
        h, r = cfg.lstm_hidden, cfg.repr_dim
        for i in range(1, 9):
            layout[f"lstm_w{i}"] = glorot(h if i % 2 == 1 else r, h)
        for i in range(1, 5):
            layout[f"lstm_b{i}"] = ((1, h), 0.0)
        if cfg.peepholes:
            layout["lstm_mu1"] = layout["lstm_mu2"] = ((1, h), 0.0)
    if cfg.use_word_cnn:
        layout["word_cnn_w"] = glorot(cfg.word_cnn_window * cfg.repr_dim, cfg.word_cnn_filters)
        layout["word_cnn_b"] = ((1, cfg.word_cnn_filters), 0.0)
    layout["head_w"] = glorot(cfg.head_dim, 1)
    layout["head_b"] = ((1, 1), 0.0)
    return layout


class PatternScorer:
    """Scores collapsed candidate sequences; owns its parameters and vocab.

    `config` sizes the network; `char_pad` is the characters each word is
    padded or cut to (at most `TrainConfig.char_pad_cap`) and `seed` seeds
    the dropout masks and, without `weights`, the initial weights. The
    config blocks hold the defaults of all three.

    The parameters are `scorer_layout(vocab, config)`, and `params`, the
    one handle on them, maps each name to its Tensor in that order.
    Without `weights`, they are drawn from the seed's INIT_STREAM in that
    order, each by one uniform draw within its bound, zeros drawing
    nothing; then each vocabulary token's `pretrained` vector, if it has
    one, is copied into its `word_emb` row. `weights`, trained arrays by
    name, must hold exactly the layout's names, each of its shape and
    finite, or raise CheckpointMismatchError; they are used as given (not
    copied; only an array that is not C-ordered float64 is converted), and
    nothing is drawn.
    """

    def __init__(
        self,
        vocab: Vocab,
        config: ScorerConfig,
        *,
        char_pad: int,
        seed: int,
        pretrained: dict[str, np.ndarray] | None = None,
        weights: dict[str, np.ndarray] | None = None,
    ):
        self.vocab = vocab
        self.config = cfg = config
        if type(char_pad) is not int or char_pad < 1:
            raise ConfigError(f"char_pad must be a positive integer, got {char_pad!r}")
        self.char_pad = char_pad
        self._drop_rng = np.random.default_rng([seed, DROPOUT_STREAM])
        layout = scorer_layout(vocab, cfg)
        if weights is None:
            rng = np.random.default_rng([seed, INIT_STREAM])
            weights = {
                name: rng.uniform(-bound, bound, size=shape) if bound else np.zeros(shape)
                for name, (shape, bound) in layout.items()
            }
            if pretrained:
                for tid, token in enumerate(vocab.words):
                    if token in pretrained:
                        weights["word_emb"][tid] = pretrained[token]
        elif set(weights) != set(layout):
            missing = sorted(set(layout) - set(weights))
            extra = sorted(set(weights) - set(layout))
            raise CheckpointMismatchError(f"parameter names differ (missing {missing}, extra {extra})")
        self.params: dict[str, Tensor] = {}
        for name, (shape, _) in layout.items():
            arr = np.asarray(weights[name], dtype=np.float64, order="C")
            if arr.shape != shape:
                raise CheckpointMismatchError(f"parameter {name!r}: shape {arr.shape} vs expected {shape}")
            if not np.isfinite(arr).all():
                raise CheckpointMismatchError(f"parameter {name!r} holds a non-finite value")
            self.params[name] = Tensor(arr)

    # -- word-level representations -------------------------------------

    def _char_ids(self, word: str) -> list[int]:
        ids = [self.vocab.char_id(c) for c in word[: self.char_pad]]
        return ids + [CHAR_PAD_ID] * (self.char_pad - len(ids))

    def word_matrix(self, words: list[str]) -> Tensor:
        """Pre-dropout representations of the given words, one row each."""
        p = self.params
        emb = lookup_rows(p["word_emb"], [self.vocab.word_id(w) for w in words])
        if not self.config.use_char_cnn:
            return emb
        char_ids = [i for w in words for i in self._char_ids(w)]
        runs = np.full(len(words), self.char_pad)
        chars = conv_pool(p["char_emb"], char_ids, runs, p["char_cnn_w"], p["char_cnn_b"])
        return concat([emb, chars], 1)

    # -- sequence encoders ----------------------------------------------

    def lstm_encode(self, x: Tensor, lengths) -> Tensor:
        """Final hidden state of each run of rows read top to bottom,
        shape (B, lstm_hidden), as one `lstm` node."""
        p = self.params
        w = [p[f"lstm_w{i}"] for i in range(1, 9)]
        b = [p[f"lstm_b{i}"] for i in range(1, 5)]
        peepholes = (p["lstm_mu1"], p["lstm_mu2"]) if self.config.peepholes else None
        return lstm(x, w, b, peepholes, lengths)

    def word_cnn_encode(self, x: Tensor, lengths) -> Tensor:
        """Max-pooled window responses over each run of rows, shape
        (B, word_cnn_filters)."""
        p = self.params
        return conv_pool(x, np.arange(x.shape[0]), lengths, p["word_cnn_w"], p["word_cnn_b"])

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
        h = parts[0] if len(parts) == 1 else concat(parts, 1)
        return head(h, self.params["head_w"], self.params["head_b"])

    def trainable(self):
        """(name, tensor) pairs the optimizer should update."""
        frozen = {"word_emb"} if self.config.freeze_embeddings else set()
        return [(n, t) for n, t in self.params.items() if n not in frozen]
